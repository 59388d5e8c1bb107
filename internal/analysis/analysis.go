// Package analysis is ldplint's analyzer suite: custom static checks
// that machine-verify the invariants this codebase's correctness rests
// on but which otherwise live only in comments and after-the-fact
// tests. Three invariant families are covered:
//
//   - Concurrency: the walMu → readMu → phaseMu → shard-mutex lock
//     order that keeps checkpoints from seeing torn rounds, and "no JSON codec or file I/O inside a shard-lock
//     critical section" (the reason task.Preparer exists). See
//     lockorder.go.
//   - Determinism: Merge/Snapshot/MarshalState/Advance/Frontier call
//     graphs must not iterate maps unsorted or consult time.Now /
//     global math/rand — the sources of merge non-determinism that
//     would break bit-identical checkpoints across shards. See
//     detorder.go.
//   - Durability: every error from a mutating fsio.File / fsio.FS
//     operation must be checked or carry an explicit annotation
//     (fsiocheck.go), and UnmarshalState implementations must refuse
//     unknown state-version tags (envelopeversion.go).
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is built on the standard library
// alone, so the module needs no dependency to run its own gate. The
// cmd/ldplint multichecker drives these analyzers under
// `go vet -vettool` (one type-checked package per invocation, exactly
// the unitchecker contract) and standalone over `go list` patterns.
//
// # Suppressing a finding
//
// A deliberate exception is annotated where it happens:
//
//	_ = f.Close() //ldplint:ok fsiocheck superseded by the rename above
//
// The marker names the analyzer being waived and should carry a
// reason. It may sit on the flagged line or alone on the line above.
// Unannotated findings fail the build, so every waiver is visible in
// the diff that introduces it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// marker is the comment prefix that waives a finding on its line (or
// the line below).
const marker = "//ldplint:ok"

// An Analyzer is one named static check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records one finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Analyzers returns the full ldplint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{LockOrder, DetOrder, FsioCheck, EnvelopeVersion}
}

// Run applies the analyzers to one type-checked package and returns
// the surviving diagnostics sorted by position. Test files are
// skipped — the invariants are production invariants, and test
// doubles legitimately cut corners production code must not — and
// findings waived by an //ldplint:ok annotation are dropped.
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	var prod []*ast.File
	for _, f := range files {
		if name := fset.Position(f.Package).Filename; strings.HasSuffix(name, "_test.go") {
			continue
		}
		prod = append(prod, f)
	}
	waivers := collectWaivers(fset, prod)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    prod,
			Pkg:      pkg,
			Info:     info,
		}
		pass.report = func(d Diagnostic) {
			if waivers.covers(a.Name, fset.Position(d.Pos)) {
				return
			}
			d.Message = a.Name + ": " + d.Message
			out = append(out, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// waiverSet records, per file and line, which analyzers an
// //ldplint:ok comment waives.
type waiverSet map[string]map[int][]string

// collectWaivers scans the files' comments for //ldplint:ok markers.
// The analyzer name is the first word after the marker; the rest of
// the comment is the human reason and is not interpreted.
func collectWaivers(fset *token.FileSet, files []*ast.File) waiverSet {
	ws := make(waiverSet)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, marker)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := ws[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					ws[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], fields[0])
			}
		}
	}
	return ws
}

// covers reports whether a waiver for the analyzer sits on the
// diagnostic's line or on the line directly above it.
func (ws waiverSet) covers(analyzer string, pos token.Position) bool {
	lines, ok := ws[pos.Filename]
	if !ok {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}
