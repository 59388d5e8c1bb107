package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockOrder enforces the mutex hierarchy the serving core's
// crash-safety argument depends on, documented across
// core.Collection, core.ShardedAggregator, core.journal and
// cluster.Relay:
//
//	flushMu < walMu < readMu < phaseMu < shard mutex < outMu < relayMu
//
// Ingestion holds walMu shared around append+fold so a checkpoint
// (walMu exclusive) sees journal-generation boundaries exactly;
// readMu guards the merged-snapshot and estimate caches and is held
// across the shard walk that refills them; phaseMu serializes round
// advances and excludes shard-walks from an advance's all-shard
// rewrite; the shard mutexes are innermost so striped ingestion never
// waits on coordination locks. Acquiring these locks in any other
// order is a deadlock or a torn-round read waiting for the right
// interleaving.
//
// The relay tier brackets the core hierarchy: flushMu serializes
// whole flush cycles and is taken before any collection's WAL lock
// (a cycle cuts state via CutDelta, walMu exclusive); outMu guards
// the outbox spool and relayMu the flush-standing counters — both
// are leaves acquired with no core lock held and nothing ranked
// acquired under them.
//
// The analyzer additionally flags JSON encoding/decoding and file I/O
// performed while a shard mutex is held: the task.Preparer split
// exists precisely so parsing and payload decoding run outside the
// locks, and a codec call under a shard lock re-serializes the whole
// ingest path on one stripe.
//
// A lock is ranked by its field name (the six in lockRanks); a field
// named "mu" ranks as a shard mutex when its struct also carries a
// task.Aggregator — the signature of a lock striping aggregate state.
// Unranked mutexes (registry, store, journal and dedup-memory
// internals: self-contained leaves that call nothing while held) are
// outside the hierarchy and ignored. The check
// is flow-insensitive across branches that return early and treats
// interface calls as opaque, so it under-approximates; what it does
// report is structural.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "check the walMu/readMu/phaseMu/shard-mutex acquisition order and forbid JSON codecs and file I/O inside shard-lock critical sections",
	Run:  runLockOrder,
}

// Lock ranks, outermost first. Gaps leave room for future layers.
const (
	rankFlush  = 5 // relay flush cycle: outermost, held across cut+send
	rankWal    = 10
	rankRead   = 30
	rankPhase  = 40
	rankShard  = 50
	rankOutbox = 65 // outbox spool: leaf, file ops only
	rankRelay  = 70 // relay standing counters: strict leaf
)

// lockRanks ranks the named locks; with the structurally recognised
// shard mutex they are the hierarchy's seven.
var lockRanks = map[string]int{
	"flushMu": rankFlush,
	"walMu":   rankWal,
	"readMu":  rankRead,
	"phaseMu": rankPhase,
	"outMu":   rankOutbox,
	"relayMu": rankRelay,
}

// lockOrderText spells the hierarchy out in diagnostics.
const lockOrderText = "flushMu < walMu < readMu < phaseMu < shard mu < outMu < relayMu"

// heldLock is one ranked lock currently held on the walked path.
type heldLock struct {
	rank int
	name string
}

// lockSummary is what one function does, transitively through
// same-package static calls: which ranked locks it may acquire and
// whether it performs JSON codec work or file I/O.
type lockSummary struct {
	acquires map[int]string // rank -> example lock name
	jsonIO   bool
}

func runLockOrder(pass *Pass) error {
	decls := funcDecls(pass)
	summaries := lockSummaries(pass, decls)
	for _, decl := range decls {
		w := &lockWalker{pass: pass, decls: decls, summaries: summaries}
		w.walkBody(nil, decl.Body)
	}
	return nil
}

// lockSummaries computes each function's transitive acquisition and
// I/O summary by fixpoint over the same-package static call graph.
func lockSummaries(pass *Pass, decls map[*types.Func]*ast.FuncDecl) map[*types.Func]*lockSummary {
	sums := make(map[*types.Func]*lockSummary, len(decls))
	edges := make(map[*types.Func][]*types.Func)
	for fn, decl := range decls {
		s := &lockSummary{acquires: make(map[int]string)}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if rank, name, acquire := lockCall(pass, call); rank > 0 && acquire {
				s.acquires[rank] = name
			}
			if isCodecOrFileIO(pass, call) {
				s.jsonIO = true
			}
			if callee := localCallee(pass, decls, call); callee != nil {
				edges[fn] = append(edges[fn], callee)
			}
			return true
		})
		sums[fn] = s
	}
	for changed := true; changed; {
		changed = false
		for fn, callees := range edges {
			s := sums[fn]
			for _, callee := range callees {
				cs := sums[callee]
				if cs == nil {
					continue
				}
				for r, n := range cs.acquires {
					if _, ok := s.acquires[r]; !ok {
						s.acquires[r] = n
						changed = true
					}
				}
				if cs.jsonIO && !s.jsonIO {
					s.jsonIO = true
					changed = true
				}
			}
		}
	}
	return sums
}

// lockCall classifies a call as a ranked Lock/RLock (acquire=true) or
// Unlock/RUnlock (acquire=false); rank 0 means not a ranked lock op.
func lockCall(pass *Pass, call *ast.CallExpr) (rank int, name string, acquire bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return 0, "", false
	}
	// The receiver must be a sync mutex, not any type with a Lock
	// method.
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Obj().Pkg() == nil || s.Obj().Pkg().Path() != "sync" {
		return 0, "", false
	}
	rank, name = lockRank(pass, ast.Unparen(sel.X))
	return rank, name, acquire
}

// lockRank ranks the mutex-valued expression by the hierarchy table.
func lockRank(pass *Pass, x ast.Expr) (int, string) {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		name := x.Sel.Name
		if r, ok := lockRanks[name]; ok {
			return r, name
		}
		if name == "mu" && recvGuardsAggregator(pass, x) {
			return rankShard, "shard mu"
		}
	case *ast.Ident:
		if r, ok := lockRanks[x.Name]; ok {
			return r, x.Name
		}
	}
	return 0, ""
}

// recvGuardsAggregator reports whether the field selection's receiver
// struct also carries a task.Aggregator field — the shape of a shard:
// a mutex striping a slice of aggregate state.
func recvGuardsAggregator(pass *Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.Info.Selections[sel]
	if !ok {
		return false
	}
	st, ok := derefStruct(s.Recv())
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isTaskAggregator(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

func derefStruct(t types.Type) (*types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// isTaskAggregator matches the task.Aggregator interface (or a slice
// of values carrying it, the shard-array case).
func isTaskAggregator(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return isTaskAggregator(u.Elem())
	case *types.Pointer:
		return isTaskAggregator(u.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == "Aggregator" && strings.HasSuffix(n.Obj().Pkg().Path(), "internal/task")
}

// osFileFuncs are the package-level os calls that touch the
// filesystem; any of them inside a shard-lock section stalls every
// report hash-routed to that stripe for the I/O's duration.
var osFileFuncs = map[string]bool{
	"Create": true, "CreateTemp": true, "Open": true, "OpenFile": true,
	"ReadFile": true, "WriteFile": true, "Remove": true, "RemoveAll": true,
	"Rename": true, "Mkdir": true, "MkdirAll": true, "Truncate": true,
	"ReadDir": true, "Stat": true,
}

// isCodecOrFileIO reports whether the call is JSON encode/decode work
// or file I/O: encoding/json package functions and method sets, fsio
// seam operations, and os file operations.
func isCodecOrFileIO(pass *Pass, call *ast.CallExpr) bool {
	if pkg, name := calleePkgPath(pass.Info, call); pkg != "" {
		if pkg == "encoding/json" {
			return true
		}
		if pkg == "os" && osFileFuncs[name] {
			return true
		}
	}
	// Method calls on encoding/json codecs, fsio seam values, or
	// *os.File (all dynamic or otherwise, resolved by receiver type).
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	if path, _ := namedRecv(s.Recv()); path == "encoding/json" || path == "os" || strings.HasSuffix(path, "internal/fsio") {
		return true
	}
	return false
}

// namedRecv returns the defining package path and type name of a
// method receiver type, dereferencing one pointer.
func namedRecv(t types.Type) (pkgPath, name string) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return "", ""
	}
	return n.Obj().Pkg().Path(), n.Obj().Name()
}

// lockWalker walks one function body in statement order, tracking the
// ranked locks held on the path.
type lockWalker struct {
	pass      *Pass
	decls     map[*types.Func]*ast.FuncDecl
	summaries map[*types.Func]*lockSummary
}

// walkBody processes a block and returns the held set at its end.
// Branch bodies are walked on a copy of the held set; a branch that
// cannot fall through (return, panic, continue, break, goto) discards
// its copy, so an early-error unlock does not leak into the main
// path. Loop bodies are walked twice so a second iteration sees locks
// the first left held — the lock-in-a-loop pattern.
func (w *lockWalker) walkBody(held []heldLock, block *ast.BlockStmt) []heldLock {
	if block == nil {
		return held
	}
	return w.walkStmts(held, block.List)
}

func (w *lockWalker) walkStmts(held []heldLock, stmts []ast.Stmt) []heldLock {
	for _, s := range stmts {
		held = w.walkStmt(held, s)
	}
	return held
}

func (w *lockWalker) walkStmt(held []heldLock, stmt ast.Stmt) []heldLock {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return w.walkExpr(held, s.X)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			held = w.walkExpr(held, rhs)
		}
		return held
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			held = w.walkExpr(held, r)
		}
		return held
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.walkStmt(held, s.Init)
		}
		held = w.walkExpr(held, s.Cond)
		held = w.mergeBranch(held, w.walkBody(cloneHeld(held), s.Body), s.Body)
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				held = w.mergeBranch(held, w.walkStmts(cloneHeld(held), e.List), e)
			default:
				held = w.walkStmt(held, e)
			}
		}
		return held
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.walkStmt(held, s.Init)
		}
		held = w.walkBody(held, s.Body)
		return w.walkBody(held, s.Body) // second pass: locks surviving an iteration
	case *ast.RangeStmt:
		held = w.walkExpr(held, s.X)
		held = w.walkBody(held, s.Body)
		return w.walkBody(held, s.Body)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var body *ast.BlockStmt
		switch s := s.(type) {
		case *ast.SwitchStmt:
			body = s.Body
		case *ast.TypeSwitchStmt:
			body = s.Body
		case *ast.SelectStmt:
			body = s.Body
		}
		for _, c := range body.List {
			var list []ast.Stmt
			switch c := c.(type) {
			case *ast.CaseClause:
				list = c.Body
			case *ast.CommClause:
				list = c.Body
			}
			end := w.walkStmts(cloneHeld(held), list)
			held = w.mergeBranch(held, end, &ast.BlockStmt{List: list})
		}
		return held
	case *ast.BlockStmt:
		return w.walkStmts(held, s.List)
	case *ast.LabeledStmt:
		return w.walkStmt(held, s.Stmt)
	case *ast.DeferStmt:
		// A deferred Unlock runs at function exit: the lock stays held
		// for the rest of the walk, which is exactly right. A deferred
		// function literal runs with no locks of this path held... at
		// exit the path's locks ARE held, but reporting inside it
		// against the current set would double-count; walk it with the
		// current held set minus nothing is the conservative choice.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walkBody(cloneHeld(held), lit.Body)
		}
		return held
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walkBody(nil, lit.Body) // new goroutine: fresh lock context
		} else {
			w.walkExpr(nil, s.Call)
		}
		return held
	}
	return held
}

// mergeBranch folds a branch's end state back into the main path:
// kept only when the branch can fall through.
func (w *lockWalker) mergeBranch(held, branchEnd []heldLock, body ast.Node) []heldLock {
	if terminates(body) {
		return held
	}
	return branchEnd
}

// terminates reports whether a block's last statement leaves it
// without falling through.
func terminates(n ast.Node) bool {
	var list []ast.Stmt
	switch n := n.(type) {
	case *ast.BlockStmt:
		list = n.List
	default:
		return false
	}
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// walkExpr processes one expression's calls in evaluation order,
// updating and checking the held set.
func (w *lockWalker) walkExpr(held []heldLock, expr ast.Expr) []heldLock {
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // analyzed when invoked, not where defined
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			held = w.checkCall(held, call)
			return true
		})
	}
	walk(expr)
	return held
}

// checkCall applies one call's effect to the held set and reports
// violations at the call site.
func (w *lockWalker) checkCall(held []heldLock, call *ast.CallExpr) []heldLock {
	if rank, name, acquire := lockCall(w.pass, call); rank > 0 {
		if !acquire {
			return releaseLock(held, rank, name)
		}
		for _, h := range held {
			if h.rank >= rank {
				w.pass.Reportf(call.Pos(),
					"%s acquired while %s is held; the lock order is %s",
					name, h.name, lockOrderText)
				break
			}
		}
		return append(held, heldLock{rank: rank, name: name})
	}
	if holdsShard(held) && isCodecOrFileIO(w.pass, call) {
		w.pass.Reportf(call.Pos(),
			"JSON codec or file I/O inside a shard-lock critical section; decode outside the lock (task.Preparer) and fold under it")
	}
	if callee := localCallee(w.pass, w.decls, call); callee != nil {
		if s := w.summaries[callee]; s != nil {
			for rank, name := range s.acquires {
				for _, h := range held {
					if h.rank >= rank {
						w.pass.Reportf(call.Pos(),
							"call to %s acquires %s while %s is held; the lock order is %s",
							callee.Name(), name, h.name, lockOrderText)
					}
				}
			}
			if s.jsonIO && holdsShard(held) {
				w.pass.Reportf(call.Pos(),
					"call to %s performs JSON codec work or file I/O inside a shard-lock critical section",
					callee.Name())
			}
		}
	}
	return held
}

func holdsShard(held []heldLock) bool {
	for _, h := range held {
		if h.rank == rankShard {
			return true
		}
	}
	return false
}

// releaseLock removes the most recently acquired lock of the rank.
func releaseLock(held []heldLock, rank int, name string) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].rank == rank && held[i].name == name {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

func cloneHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}
