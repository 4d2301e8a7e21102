package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ErrDrop guards the fault-evidence error contract: a
// *resilience.CorruptionError is the only evidence a silent fault ever
// leaves behind, a *resilience.PanicError carries the one stack trace
// of a dead task, a *resilience.ErrSealMismatch identifies the one
// boundary block whose bytes failed their CRC32C seal in transit, a
// *cluster.ErrEpochFenced is the sole proof a deposed leader's write
// was rejected after failover, a *cluster.ErrProtocolVersion is the
// difference between refusing a wire-incompatible peer and silently
// mis-framing it, a *pager.ErrPageCorrupt names the one spilled block
// whose bytes came back wrong from disk, a *pager.ErrSpillSpace is the
// only record that an out-of-core solve hit its hard residency wall,
// and a checkpoint/seal codec error is the difference between refusing
// a corrupt snapshot and silently resuming bad state. None of them may
// be discarded.
//
// Watched calls are (a) any function or method declared in the
// resilience package whose results include an error, and (b) any
// function returning a //npdplint:watch-annotated type directly (the
// directive sits in the type declaration's doc comment, so a new typed
// error is watched the moment it is declared — see watch.go). For a
// watched call the analyzer rejects:
//
//   - calling it as a bare statement, or under go/defer, so the error
//     vanishes;
//   - assigning the error result to the blank identifier;
//   - the checked-but-dropped pattern: binding the error to a variable
//     that is only ever compared against nil and never returned,
//     wrapped, passed on, or otherwise consumed.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "resilience corruption/panic/codec errors must never be discarded or dropped after a nil check",
	Run:  runErrDrop,
}

func runErrDrop(pass *Pass) error {
	fset := pass.Fset
	info := pass.TypesInfo
	parents := buildParents(pass.Files)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := unparen(n.X).(*ast.CallExpr); ok {
					if name, ok := watchedCall(fset, info, call); ok {
						pass.Reportf(n.Pos(), "%s's error discarded: the call's result is the only record of the fault", name)
					}
				}
			case *ast.GoStmt:
				if name, ok := watchedCall(fset, info, n.Call); ok {
					pass.Reportf(n.Pos(), "%s's error discarded by go statement", name)
				}
			case *ast.DeferStmt:
				if name, ok := watchedCall(fset, info, n.Call); ok {
					pass.Reportf(n.Pos(), "%s's error discarded by defer; capture it into a named return instead", name)
				}
			case *ast.AssignStmt:
				checkErrDropAssign(pass, fset, info, parents, n)
			}
			return true
		})
	}
	return nil
}

// watchedCall reports whether call targets a watched error source, and
// the callee's name for diagnostics. A call is watched when its callee
// is declared in the resilience package and returns an error, or when
// any of its results is *CorruptionError / *PanicError.
func watchedCall(fset *token.FileSet, info *types.Info, call *ast.CallExpr) (string, bool) {
	obj := calleeObject(info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if errResultIndex(fset, sig) < 0 {
		return "", false
	}
	if isPkgPath(fn, "resilience") {
		return fn.Name(), true
	}
	// Functions elsewhere that mint the watched error types directly
	// (e.g. the npdp ladder's corruption constructor).
	for i := 0; i < sig.Results().Len(); i++ {
		if isWatchedErrType(fset, sig.Results().At(i).Type()) {
			return fn.Name(), true
		}
	}
	return "", false
}

// errResultIndex returns the index of the last error-like result, -1 if
// none.
func errResultIndex(fset *token.FileSet, sig *types.Signature) int {
	for i := sig.Results().Len() - 1; i >= 0; i-- {
		t := sig.Results().At(i).Type()
		if isErrorType(t) || isWatchedErrType(fset, t) {
			return i
		}
	}
	return -1
}

// isWatchedErrType reports whether t (through pointers and aliases) is
// a //npdplint:watch-annotated named type. The watch list lives on the
// type declarations themselves (watch.go), so new typed errors in the
// cluster/pager/resilience packages cannot silently escape the
// analyzer.
func isWatchedErrType(fset *token.FileSet, t types.Type) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	return typeHasWatchDirective(fset, n.Obj())
}

// checkErrDropAssign flags blank-discarded and checked-but-dropped
// error bindings from watched calls.
func checkErrDropAssign(pass *Pass, fset *token.FileSet, info *types.Info, parents parentMap, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	name, ok := watchedCall(fset, info, call)
	if !ok {
		return
	}
	// Locate the error position among the LHS: multi-value assignments
	// map results positionally; single-value assignments bind result 0.
	obj := calleeObject(info, call)
	sig := obj.(*types.Func).Type().(*types.Signature)
	idx := errResultIndex(fset, sig)
	if idx >= len(as.Lhs) {
		return // tuple mismatch; the compiler rejects it anyway
	}
	lhs := as.Lhs[idx]
	if sig.Results().Len() == 1 {
		lhs = as.Lhs[0]
	}
	id, ok := unparen(lhs).(*ast.Ident)
	if !ok {
		return
	}
	if id.Name == "_" {
		pass.Reportf(id.Pos(), "%s's error assigned to _: a corruption or codec failure would vanish", name)
		return
	}
	// Checked-but-dropped: the bound error is only ever compared to nil.
	errObj := info.Defs[id]
	if errObj == nil {
		errObj = info.Uses[id] // plain `=` rebind of an existing variable
	}
	if errObj == nil {
		return
	}
	fd := parents.enclosingFunc(as)
	if fd == nil || fd.Body == nil {
		return
	}
	consumed, compared := false, false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		use, ok := n.(*ast.Ident)
		if !ok || use == id || info.Uses[use] != errObj {
			return true
		}
		if isNilComparison(parents, use) {
			compared = true
			return true
		}
		consumed = true
		return false
	})
	if compared && !consumed {
		pass.Reportf(id.Pos(), "%s's error is nil-checked but never consumed: return it, wrap it, or record it", name)
	}
}

// isNilComparison reports whether the identifier use is an operand of
// an ==/!= comparison against nil.
func isNilComparison(parents parentMap, id *ast.Ident) bool {
	be, ok := parents.parentSkipParens(id).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return false
	}
	other := be.Y
	if unparen(be.Y) == id {
		other = be.X
	}
	o, ok := unparen(other).(*ast.Ident)
	return ok && o.Name == "nil"
}
