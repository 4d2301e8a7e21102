package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AllocBound guards every decode path against the PR 7 alloc-bomb
// class: a count or length lifted out of wire or disk bytes (a cluster
// frame, an NPSP spill file header or its NPSX index) fed straight into
// make() hands a hostile or corrupt peer a gigabyte
// allocation for sixteen bytes of input. The PR 7 review caught exactly
// that — an unbounded `nblocks` from a task frame — by hand; this
// analyzer finds the class statically.
//
// The model is a per-function lexical taint pass:
//
//   - taint sources: results of encoding/binary ByteOrder decodes
//     (Uint16/32/64) and any variable whose address feeds binary.Read;
//   - propagation: assignments whose right-hand side mentions a tainted,
//     not-yet-bounded value taint their targets;
//   - bounds: a comparison (<, >, <=, >=, ==, !=) mentioning the tainted
//     value, or passing it (or its address, or a method call on it) to a
//     named validator (check*/valid*/verify*/audit*), clears the taint —
//     the decodeTaskMsg `nblocks > (len(p)-16)/16` guard and the spill
//     header's `g.check()` both qualify;
//   - sinks: a make() size/capacity or a full-slice-expression capacity
//     mentioning a still-unbounded tainted value is a finding.
//
// The pass is deliberately function-local: a decoded field that crosses
// a function boundary has, by this repo's codec discipline, already
// passed its decoder's plausibility checks.
var AllocBound = &Analyzer{
	Name: "allocbound",
	Doc:  "make/slice sizes decoded from wire or disk bytes must be bounded before allocating",
	Run:  runAllocBound,
}

func runAllocBound(pass *Pass) error {
	for _, f := range pass.Files {
		if inTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkAllocBoundFunc(pass, fd)
		}
	}
	return nil
}

// allocEvent is one taint-relevant node, replayed in source order.
type allocEvent struct {
	pos  token.Pos
	node ast.Node
	kind int // evAssign, evGuard, evValidate, evRead, evSink
}

const (
	evAssign = iota
	evGuard
	evValidate
	evRead
	evSink
)

func checkAllocBoundFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// Collect events, then replay them in lexical order so "the bound
	// check dominates the allocation" degrades to "the bound check is
	// written before the allocation" — true for every straight-line
	// decoder in the tree.
	var events []allocEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			events = append(events, allocEvent{n.Pos(), n, evAssign})
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
				events = append(events, allocEvent{n.Pos(), n, evGuard})
			}
		case *ast.CallExpr:
			if obj := calleeObject(info, n); obj != nil {
				if obj.Name() == "make" && obj.Pkg() == nil {
					events = append(events, allocEvent{n.Pos(), n, evSink})
				} else if isBinaryReadCall(info, n) {
					events = append(events, allocEvent{n.Pos(), n, evRead})
				} else if isValidatorCall(obj) {
					events = append(events, allocEvent{n.Pos(), n, evValidate})
				}
			}
		case *ast.SliceExpr:
			if n.Max != nil {
				events = append(events, allocEvent{n.Pos(), n, evSink})
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	tainted := make(map[types.Object]bool)
	for _, ev := range events {
		switch ev.kind {
		case evRead:
			// binary.Read(r, order, &x): x now holds raw wire bytes.
			call := ev.node.(*ast.CallExpr)
			if len(call.Args) == 3 {
				if un, ok := unparen(call.Args[2]).(*ast.UnaryExpr); ok && un.Op == token.AND {
					if obj := rootObject(info, un.X); obj != nil {
						tainted[obj] = true
					}
				}
			}
		case evAssign:
			as := ev.node.(*ast.AssignStmt)
			taintAssign(info, as, tainted)
		case evGuard:
			be := ev.node.(*ast.BinaryExpr)
			for _, obj := range referencedObjects(info, be) {
				delete(tainted, obj)
			}
		case evValidate:
			call := ev.node.(*ast.CallExpr)
			for _, obj := range validatedObjects(info, call) {
				delete(tainted, obj)
			}
		case evSink:
			reportAllocSink(pass, info, ev.node, tainted)
		}
	}
}

// isBinaryReadCall matches encoding/binary.Read.
func isBinaryReadCall(info *types.Info, call *ast.CallExpr) bool {
	obj := calleeObject(info, call)
	return obj != nil && obj.Name() == "Read" && isPkgPath(obj, "encoding/binary")
}

// isBinaryDecode matches the ByteOrder integer decodes
// (binary.LittleEndian.Uint32 and friends) whose results are raw wire
// values.
func isBinaryDecode(info *types.Info, call *ast.CallExpr) bool {
	obj := calleeObject(info, call)
	if obj == nil || !isPkgPath(obj, "encoding/binary") {
		return false
	}
	return strings.HasPrefix(obj.Name(), "Uint")
}

// isValidatorCall matches calls to named validators: a check/valid/
// verify/audit-prefixed function clears the taint of every value it
// receives (the spill header and index decoders' `g.check()` idiom).
func isValidatorCall(obj types.Object) bool {
	name := strings.ToLower(obj.Name())
	for _, p := range []string{"check", "valid", "verify", "audit"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// validatedObjects returns the objects a validator call vouches for:
// its receiver and every argument (through & and conversions).
func validatedObjects(info *types.Info, call *ast.CallExpr) []types.Object {
	var objs []types.Object
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if obj := rootObject(info, sel.X); obj != nil {
			objs = append(objs, obj)
		}
	}
	for _, a := range call.Args {
		e := unparen(a)
		if un, ok := e.(*ast.UnaryExpr); ok && un.Op == token.AND {
			e = un.X
		}
		if obj := rootObject(info, e); obj != nil {
			objs = append(objs, obj)
		}
	}
	return objs
}

// rootObject resolves an expression to the variable object at its root:
// x, x.f, x[i], int(x) all resolve to x.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.CallExpr: // conversions like int(x)
			if len(x.Args) != 1 {
				return nil
			}
			e = x.Args[0]
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// referencedObjects collects every variable object mentioned anywhere in
// the expression subtree.
func referencedObjects(info *types.Info, e ast.Expr) []types.Object {
	var objs []types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				if _, isVar := obj.(*types.Var); isVar {
					objs = append(objs, obj)
				}
			}
		}
		return true
	})
	return objs
}

// exprTainted reports whether the expression subtree mentions a tainted
// object or a raw ByteOrder decode call, and names the source.
func exprTainted(info *types.Info, e ast.Expr, tainted map[types.Object]bool) (string, bool) {
	var name string
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && tainted[obj] {
				name, found = obj.Name(), true
				return false
			}
		case *ast.CallExpr:
			if isBinaryDecode(info, n) {
				name, found = "a raw binary decode", true
				return false
			}
		}
		return true
	})
	return name, found
}

// taintAssign propagates taint through an assignment: any LHS variable
// whose RHS mentions a still-unbounded wire value becomes tainted, and a
// rebind from clean values clears it.
func taintAssign(info *types.Info, as *ast.AssignStmt, tainted map[types.Object]bool) {
	// Positional match only when the counts line up (x, y := f() tuple
	// forms conservatively taint every target).
	for i, lhs := range as.Lhs {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			continue
		}
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		} else {
			continue
		}
		if _, dirty := exprTainted(info, rhs, tainted); dirty {
			tainted[obj] = true
		} else if len(as.Rhs) == len(as.Lhs) && as.Tok == token.ASSIGN {
			delete(tainted, obj) // clean rebind
		}
	}
}

// reportAllocSink flags make() sizes and full-slice capacities that
// mention a still-unbounded wire value.
func reportAllocSink(pass *Pass, info *types.Info, n ast.Node, tainted map[types.Object]bool) {
	switch n := n.(type) {
	case *ast.CallExpr: // make(T, len[, cap])
		for _, arg := range n.Args[1:] {
			if src, dirty := exprTainted(info, arg, tainted); dirty {
				pass.Reportf(arg.Pos(),
					"allocation sized by %s with no preceding bound check: a hostile frame buys an arbitrary allocation", src)
			}
		}
	case *ast.SliceExpr:
		if src, dirty := exprTainted(info, n.Max, tainted); dirty {
			pass.Reportf(n.Max.Pos(),
				"slice capacity from %s with no preceding bound check: a hostile frame buys an arbitrary allocation", src)
		}
	}
}
