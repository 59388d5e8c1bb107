package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
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

// TestJournalCallsNoJSON pins, structurally, that the journal neither
// writes nor reads JSON: internal/core/journal.go calls no function of
// encoding/json. Frames are binenc records, and the JSON payloads older
// builds wrote are refused by their first byte, never decoded. A JSON
// frame reader or writer cannot be added there unnoticed.
func TestJournalCallsNoJSON(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "../../internal/core/journal.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "json" {
				t.Errorf("%s: journal.go calls json.%s; frames are binenc records", fset.Position(call.Pos()), sel.Sel.Name)
			}
		}
		return true
	})
}

// TestReportsHaveOneDecoder pins, structurally, that a report has one
// decoder: JSON is translated to the task's binary payload at the edge
// and validated by PrepareBinary alone. No method under internal/task
// takes a json.RawMessage and returns a prepared value (an any) — a
// second, JSON decoder beside PrepareBinary cannot be added there
// unnoticed. Frame in internal/core/journal.go never names
// kindBatchJSON: the 0x01 batch is refused, never written. And replay
// never translates: in internal/core, translate is called by the live
// JSON edge alone (Collection.IngestBatch, ShardedAggregator.AddBatch).
func TestReportsHaveOneDecoder(t *testing.T) {
	isJSONRaw := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "json" && sel.Sel.Name == "RawMessage"
	}
	isAny := func(e ast.Expr) bool {
		if id, ok := e.(*ast.Ident); ok {
			return id.Name == "any"
		}
		iface, ok := e.(*ast.InterfaceType)
		return ok && len(iface.Methods.List) == 0
	}
	files := 0
	err := filepath.WalkDir("../../internal/task", func(name string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return err
		}
		files++
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Type.Results == nil || len(fn.Type.Results.List) == 0 || !isAny(fn.Type.Results.List[0].Type) {
				continue
			}
			for _, param := range fn.Type.Params.List {
				if isJSONRaw(param.Type) {
					t.Errorf("%s: method %s takes a json.RawMessage and returns a prepared value; translate JSON to the binary payload instead", name, fn.Name.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files under internal/task")
	}

	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "../../internal/core/journal.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || fn.Name.Name != "frame" {
			continue
		}
		found = true
		ast.Inspect(fn, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "kindBatchJSON" {
				t.Errorf("%s: frame names kindBatchJSON; JSON batches are read, never written", fset.Position(id.Pos()))
			}
			return true
		})
	}
	if !found {
		t.Fatal("journal.go declares no func frame")
	}

	core, err := filepath.Glob("../../internal/core/*.go")
	if err != nil {
		t.Fatal(err)
	}
	var callers []string
	for _, name := range core {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "translate" {
						callers = append(callers, fn.Name.Name)
					}
				}
				return true
			})
		}
	}
	sort.Strings(callers)
	if got := strings.Join(callers, " "); got != "AddBatch IngestBatch" {
		t.Errorf("internal/core calls translate in [%s], want [AddBatch IngestBatch]: replay folds the binary payloads it journaled, never translating", got)
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

// unreachableAllowed lists what may stay under internal/ although no
// main package reaches it, each entry with its reason. An entry covers
// every top-level declaration of one package dir, or of one file in it
// when file is set. An entry that covers no unreachable declaration, or
// covers one a main package now reaches, is stale: the test fails on it
// so the list only ever shrinks to what is true.
var unreachableAllowed = []struct{ dir, file, reason string }{
	{"internal/fsio", "fault.go", "the fault-injecting FS the crash sweeps run Store and Relay on"},
	{"internal/analysis/analyzertest", "", "a test-helper package: the runner for the analyzers' fixtures"},
}

// TestNoUnreachableDeclarations pins, semantically, that the module
// carries no dead code: every top-level func, method, type, var and
// const under internal/ is reachable from some main package (cmd/*,
// examples/*, bench/ldpload) through the identifiers declarations use.
// Tests are not roots — code only a test calls is dead. staticcheck's
// U1000 cannot say this: it treats every exported name as used.
//
// Roots are every declaration of a main package, every init and blank
// var. A method is also live when its receiver type is and its name is
// a method of some interface type (module or stdlib): it may be called
// through an interface no identifier records, so when in doubt it is
// live. A value of a type no live declaration names cannot exist, so a
// dead type's methods stay dead.
func TestNoUnreachableDeclarations(t *testing.T) {
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	g := newDeclGraph()
	for _, p := range pkgs {
		g.add(p, root)
	}
	live := g.reach()

	type finding struct{ pos, key string }
	var dead []finding
	covered := make([]int, len(unreachableAllowed))
	for _, d := range g.decls {
		if !strings.HasPrefix(d.file, "internal/") {
			continue
		}
		entry := -1
		for i, a := range unreachableAllowed {
			if filepath.Dir(d.file) == a.dir && (a.file == "" || filepath.Base(d.file) == a.file) {
				entry = i
			}
		}
		switch {
		case entry >= 0 && live[d.key]:
			a := unreachableAllowed[entry]
			t.Errorf("stale allow-list entry %s: %s (%s) is reachable from a main package",
				path.Join(a.dir, a.file), d.key, d.pos)
		case entry >= 0:
			covered[entry]++
		case !live[d.key]:
			dead = append(dead, finding{d.pos, d.key})
		}
	}
	for i, n := range covered {
		if n == 0 {
			a := unreachableAllowed[i]
			t.Errorf("stale allow-list entry %s: it covers no unreachable declaration", path.Join(a.dir, a.file))
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].pos < dead[j].pos })
	for _, f := range dead {
		t.Errorf("%s: %s is reachable from no main package; delete it", f.pos, f.key)
	}
}

// A topDecl is one top-level declared name, keyed by import path,
// receiver type (for methods) and name: each package is type-checked
// against export data for its imports, so the same declaration is a
// different types.Object in every package that uses it.
type topDecl struct {
	key, pos, file string
	uses           []string // keys of the module declarations it refers to
	root           bool
	recv           string // key of the receiver type, for a method
	method         string // method name, for a method
}

type declGraph struct {
	decls []*topDecl
	// ifaceMethods holds every method name of every interface type
	// seen: a method of that name on a live type may be called through
	// an interface no identifier records.
	ifaceMethods map[string]bool
}

func newDeclGraph() *declGraph {
	// Methods errors.Is, errors.As and errors.Unwrap find through
	// interfaces declared inside their bodies, which export data omits.
	return &declGraph{ifaceMethods: map[string]bool{"Is": true, "As": true, "Unwrap": true}}
}

// objKey names a package-level object of this module, or returns ""
// for anything else (locals, fields, interface methods, other modules).
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	pkg := obj.Pkg().Path()
	if pkg != "repro" && !strings.HasPrefix(pkg, "repro/") {
		return ""
	}
	switch obj := obj.(type) {
	case *types.Func:
		recv := obj.Origin().Signature().Recv()
		if recv == nil {
			return pkg + "." + obj.Name()
		}
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if n, ok := rt.(*types.Named); ok && !types.IsInterface(n) {
			return pkg + "." + n.Obj().Name() + "." + obj.Name()
		}
		return ""
	case *types.TypeName, *types.Var, *types.Const:
		if obj.Parent() != obj.Pkg().Scope() {
			return ""
		}
		return pkg + "." + obj.Name()
	}
	return ""
}

func (g *declGraph) noteInterface(typ types.Type) {
	if iface, ok := typ.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			g.ifaceMethods[iface.Method(i).Name()] = true
		}
	}
}

func (g *declGraph) add(p *analysis.LoadedPackage, root string) {
	for _, tv := range p.Info.Types {
		if tv.Type != nil {
			g.noteInterface(tv.Type)
		}
	}
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				g.noteInterface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	walk(p.Pkg)

	isMain := p.Pkg.Name() == "main"
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			var names []*ast.Ident
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				names = []*ast.Ident{decl.Name}
			case *ast.GenDecl:
				// One node per spec: names sharing a spec share its
				// initialiser.
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						g.addDecl(p, root, spec, []*ast.Ident{spec.Name}, isMain)
					case *ast.ValueSpec:
						g.addDecl(p, root, spec, spec.Names, isMain)
					}
				}
				continue
			}
			g.addDecl(p, root, decl, names, isMain)
		}
	}
}

func (g *declGraph) addDecl(p *analysis.LoadedPackage, root string, node ast.Node, names []*ast.Ident, isMain bool) {
	var uses []string
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if k := objKey(p.Info.Uses[id]); k != "" {
				uses = append(uses, k)
			}
		}
		return true
	})
	for _, id := range names {
		pos := p.Fset.Position(id.Pos())
		rel, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		d := &topDecl{pos: rel + ":" + strconv.Itoa(pos.Line), file: rel, uses: uses}
		obj := p.Info.Defs[id]
		switch {
		case id.Name == "_" || id.Name == "init" || isMain:
			d.root = true
			d.key = p.Path + "." + id.Name
		default:
			d.key = objKey(obj)
		}
		if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
			d.method = fn.Name()
			d.recv = strings.TrimSuffix(d.key, "."+fn.Name())
		}
		g.decls = append(g.decls, d)
	}
}

// reach returns the set of live declaration keys.
func (g *declGraph) reach() map[string]bool {
	byKey := make(map[string][]*topDecl)
	methods := make(map[string][]*topDecl) // receiver key → its interface-named methods
	var work []string
	live := make(map[string]bool)
	mark := func(k string) {
		if !live[k] {
			live[k] = true
			work = append(work, k)
		}
	}
	for _, d := range g.decls {
		byKey[d.key] = append(byKey[d.key], d)
		if d.method != "" && g.ifaceMethods[d.method] {
			methods[d.recv] = append(methods[d.recv], d)
		}
		if d.root {
			mark(d.key)
		}
	}
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		for _, d := range byKey[k] {
			for _, u := range d.uses {
				mark(u)
			}
		}
		for _, m := range methods[k] {
			mark(m.key)
		}
	}
	return live
}
