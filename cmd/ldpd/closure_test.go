package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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
	"hashutil", "heavyhitters", "ldprand", "mean", "sketch", "tally",
	"task", "task/cmstask", "task/freqtask", "task/hhtask",
	"task/meantask", "transform",
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

// TestStateHasOneDecoder pins, structurally, that task state has one
// codec: the packages that own the leaf state layouts do not import
// encoding/json (a JSON state reader could not be written there
// without this test noticing), and nothing in the serving closure
// declares a second restore entry point — a method named
// Unmarshal…State — beside UnmarshalState.
func TestStateHasOneDecoder(t *testing.T) {
	cmd := exec.Command("go", "list", "-f", `{{.ImportPath}}: {{join .Imports " "}}`,
		"./internal/freq", "./internal/mean", "./internal/sketch", "./internal/tally")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 4 {
		t.Fatalf("go list reported %d packages, want 4:\n%s", len(lines), out)
	}
	for _, line := range lines {
		pkg, imports, _ := strings.Cut(line, ": ")
		for _, imp := range strings.Fields(imports) {
			if imp == "encoding/json" {
				t.Errorf("%s imports encoding/json; its state layouts are binary only", pkg)
			}
		}
	}

	// gofmt keeps a method declaration's receiver and name on one line.
	restore := regexp.MustCompile(`(?m)^func \([^)]+\) (Unmarshal\w*State)\(`)
	for _, p := range servingClosure {
		files, err := filepath.Glob(filepath.Join("../../internal", p, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files for internal/%s (%v)", p, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range restore.FindAllSubmatch(src, -1) {
				if name := string(m[1]); name != "UnmarshalState" {
					t.Errorf("%s declares a method %s; UnmarshalState is the one state decoder", file, name)
				}
			}
		}
	}
}

// TestJournalHasOneJSONReader pins, structurally, that the journal has
// one frame encoder and it is not JSON: internal/core/journal.go calls
// json.Marshal nowhere, and json.Unmarshal in exactly one function —
// the read-only reader of the JSON payloads older builds wrote. A
// second JSON reader, or a writer, cannot be added there unnoticed.
func TestJournalHasOneJSONReader(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "../../internal/core/journal.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls := make(map[string][]string) // json function → the functions calling it
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "json" {
					calls[sel.Sel.Name] = append(calls[sel.Sel.Name], fn.Name.Name)
				}
			}
			return true
		})
	}
	if got := calls["Marshal"]; len(got) != 0 {
		t.Errorf("journal.go calls json.Marshal in %v; frames are binenc records", got)
	}
	if got := calls["Unmarshal"]; len(got) != 1 || got[0] != "legacyJSONRecord" {
		t.Errorf("journal.go calls json.Unmarshal in %v, want legacyJSONRecord alone", got)
	}
}

// TestTalliesLiveInTally pins, structurally, that the counting states
// have one type: no struct in internal/freq or internal/task/hhtask
// declares a field of type []int or []int64. Their per-value and
// per-candidate report counts are a tally.Tally, with its one Merge,
// Clone, codec and refusal; a second hand-rolled count vector beside
// it cannot be added there unnoticed.
func TestTalliesLiveInTally(t *testing.T) {
	for _, p := range []string{"freq", "task/hhtask"} {
		files, err := filepath.Glob(filepath.Join("../../internal", p, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files for internal/%s (%v)", p, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if arr, ok := field.Type.(*ast.ArrayType); ok && arr.Len == nil {
						if elt, ok := arr.Elt.(*ast.Ident); ok && (elt.Name == "int" || elt.Name == "int64") {
							t.Errorf("%s declares a []%s struct field; count vectors are tally.Tally", name, elt.Name)
						}
					}
				}
				return true
			})
		}
	}
}
