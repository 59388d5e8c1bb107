package main

import (
	"os/exec"
	"strings"
	"testing"
)

// servingClosure is every repro/internal package the serving binaries
// (ldpd, ldpclient) link: "the system" that the durability, exactness
// and performance invariants are stated about. The rest of internal/
// (the paper's other mechanisms, the experiment suite, the lint
// framework) is reachable only from ldpbench, ldplint, examples and
// tests.
var servingClosure = []string{
	"binenc", "bitvec", "cluster", "cms", "core", "freq", "fsio",
	"hashutil", "heavyhitters", "ldprand", "mean", "sketch", "task",
	"task/cmstask", "task/freqtask", "task/hhtask", "task/meantask",
	"transform",
}

// TestServingImportClosure fails when a package outside servingClosure
// becomes reachable from a serving binary. Growing the closure is a
// decision, not a side effect of an import: add the package to the
// list in the change that needs it.
func TestServingImportClosure(t *testing.T) {
	allowed := make(map[string]bool, len(servingClosure))
	for _, p := range servingClosure {
		allowed["repro/internal/"+p] = true
	}
	cmd := exec.Command("go", "list", "-deps", "./cmd/ldpd", "./cmd/ldpclient")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	seen := 0
	for _, pkg := range strings.Fields(string(out)) {
		if !strings.HasPrefix(pkg, "repro/internal/") {
			continue
		}
		seen++
		if !allowed[pkg] {
			t.Errorf("%s is linked into a serving binary but is not in servingClosure", pkg)
		}
	}
	if seen == 0 {
		t.Fatal("go list reported no repro/internal packages; the check is not looking at this module")
	}
}
