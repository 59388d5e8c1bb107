package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// EnvelopeVersion requires every UnmarshalState implementation to gate
// on a state-version tag before trusting the payload. The checkpoint
// envelope itself is versioned (LDPSNAP5), and the aggregator states
// it wraps carry their own tags for the same reason: a state blob
// written by a future format revision must be refused loudly at
// restore time, not reinterpreted field-by-field into a silently
// corrupt aggregate. The hhtask guard is the canonical shape — read
// the leading byte into a local named "version" and compare before
// touching the payload:
//
//	version := int(r.Byte())
//	...
//	if version != stateVersionSums {
//		return fmt.Errorf("hhtask: state version %d not supported", version)
//	}
//
// The analyzer accepts any comparison or switch whose operand is
// named "V"/"v" or contains "version", looked for in the method body
// and, depth-limited, through same-package helpers it delegates to
// (freq's unmarshalStateAs → readBinaryStateVersion pattern).
// Delegating to another package's UnmarshalState also satisfies the
// check — the delegate is analyzed where it is defined.
var EnvelopeVersion = &Analyzer{
	Name: "envelopeversion",
	Doc:  "require UnmarshalState implementations to refuse unknown state-version tags",
	Run:  runEnvelopeVersion,
}

// restoreMethod is the restore entry point the guard requirement
// covers.
const restoreMethod = "UnmarshalState"

// guardDepth bounds how many same-package delegation hops the guard
// search follows; the repo's deepest real chain (UnmarshalState →
// unmarshalStateAs → readBinaryStateVersion) is two hops.
const guardDepth = 3

func runEnvelopeVersion(pass *Pass) error {
	decls := funcDecls(pass)
	for fn, decl := range decls {
		if decl.Recv == nil || fn.Name() != restoreMethod {
			continue
		}
		if hasVersionGuard(pass, decls, decl, guardDepth) {
			continue
		}
		pass.Reportf(decl.Name.Pos(),
			"%s accepts any state version; compare a version tag (the hhtask `version != stateVersion...` shape) and refuse unknown ones", fn.Name())
	}
	return nil
}

// hasVersionGuard reports whether the function body contains a
// version-tag comparison, a switch on a version tag, a delegation to
// another package's UnmarshalState, or a same-package call whose body
// (followed to the given depth) contains one.
func hasVersionGuard(pass *Pass, decls map[*types.Func]*ast.FuncDecl, decl *ast.FuncDecl, depth int) bool {
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if isComparisonOp(n.Op) && (versionOperand(n.X) || versionOperand(n.Y)) {
				found = true
			}
		case *ast.SwitchStmt:
			if n.Tag != nil && versionOperand(n.Tag) {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == restoreMethod {
				if s, ok := pass.Info.Selections[sel]; ok && s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
					// Delegation through an interface (the task
					// adapters wrapping freq.Oracle): the guard lives
					// with the format owner, which is analyzed in its
					// own package's pass.
					found = true
					return false
				}
			}
			callee := staticCallee(pass.Info, n)
			if callee == nil {
				return true
			}
			if callee.Pkg() != pass.Pkg && callee.Name() == restoreMethod {
				// Cross-package delegation: the delegate enforces its
				// own guard in its own package's ldplint pass.
				found = true
				return false
			}
			if depth > 0 && callee.Pkg() == pass.Pkg {
				if d, ok := decls[callee]; ok && hasVersionGuard(pass, decls, d, depth-1) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func isComparisonOp(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		return true
	}
	return false
}

// versionOperand reports whether the expression reads an identifier
// or field whose name marks it as a version tag.
func versionOperand(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return isVersionName(e.Name)
	case *ast.SelectorExpr:
		return isVersionName(e.Sel.Name)
	}
	return false
}

func isVersionName(s string) bool {
	return s == "V" || s == "v" || strings.Contains(strings.ToLower(s), "version")
}
