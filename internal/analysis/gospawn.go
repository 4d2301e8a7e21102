package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoSpawn enforces the goroutine-lifecycle discipline the coordinator's
// writer fleet, the pager's prefetchers, and the serve drain all follow:
// a goroutine spawned outside tests must be tied to something that ends
// it. At a million-user scale an untied goroutine is a slow leak the
// race detector never sees; every spawn in this tree is bounded by one
// of the recognized regimes:
//
//   - a context: the body (or the same-package function it runs)
//     mentions a context.Context value — ctx-aware loops, DialContext;
//   - a sync.WaitGroup: the body calls Add/Done/Wait, so a drain
//     barrier observes its exit;
//   - a channel: the body sends, receives, selects, closes, or ranges
//     over a channel — done/poison/completion signalling;
//   - a conn deadline: the body arms SetReadDeadline/SetWriteDeadline/
//     SetDeadline, so its blocking I/O cannot outlive the regime;
//   - a listener: the body calls Accept — closing the listener is the
//     accept-loop's documented teardown.
//
// A spawn with none of these is a finding. When the go statement runs a
// named same-package function (generic methods resolve through their
// Origin) or a local variable bound to exactly one function literal,
// that body is inspected; spawning a context.CancelFunc is a lifecycle
// action in itself; for external callees the arguments must carry the
// lifecycle (a context, channel, or WaitGroup argument).
var GoSpawn = &Analyzer{
	Name: "gospawn",
	Doc:  "go statements outside tests must be tied to a lifecycle (ctx, WaitGroup, channel, deadline, or listener)",
	Run:  runGoSpawn,
}

func runGoSpawn(pass *Pass) error {
	info := pass.TypesInfo

	// Index same-package function bodies so `go co.writeLoop(sess)`
	// resolves to the loop that ranges the session's out channel.
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}

	// Index function literals bound to local variables so
	// `handshake := func(c net.Conn) { ... }; go handshake(c)` resolves
	// to the literal's body. A variable assigned more than one literal
	// is ambiguous and stays unresolved.
	varLits := make(map[types.Object]*ast.FuncLit)
	bind := func(id *ast.Ident, lit *ast.FuncLit) {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		if prev, ok := varLits[obj]; ok && prev != lit {
			varLits[obj] = nil
			return
		}
		varLits[obj] = lit
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					if lit, ok := unparen(rhs).(*ast.FuncLit); ok {
						if id, ok := unparen(n.Lhs[i]).(*ast.Ident); ok {
							bind(id, lit)
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) != len(n.Values) {
					return true
				}
				for i, v := range n.Values {
					if lit, ok := unparen(v).(*ast.FuncLit); ok {
						bind(n.Names[i], lit)
					}
				}
			}
			return true
		})
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if inTestFile(pass.Fset, gs.Pos()) {
				return false
			}
			if goStmtTied(info, decls, varLits, gs) {
				return true
			}
			pass.Reportf(gs.Pos(),
				"goroutine has no lifecycle: tie it to a context, WaitGroup, channel, conn deadline, or listener so it provably exits")
			return true
		})
	}
	return nil
}

// goStmtTied reports whether the spawned work is bound to a recognized
// lifecycle.
func goStmtTied(info *types.Info, decls map[types.Object]*ast.FuncDecl, varLits map[types.Object]*ast.FuncLit, gs *ast.GoStmt) bool {
	seen := make(map[*ast.BlockStmt]int)
	// Function-literal spawn: inspect the literal body.
	if lit, ok := unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return bodyHasLifecycle(info, decls, varLits, lit.Body, 1, seen)
	}
	// Spawning a cancel func is itself a lifecycle action: the call
	// tears a context down and returns.
	if isCancelFuncType(exprType(info, gs.Call.Fun)) {
		return true
	}
	// Named spawn declared in this package: inspect the callee body.
	// Origin maps an instantiated generic method (the object the call
	// site resolves) back to the declaration the decls index holds.
	if obj := calleeObject(info, gs.Call); obj != nil {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if fd, ok := decls[obj]; ok {
			if bodyHasLifecycle(info, decls, varLits, fd.Body, 1, seen) {
				return true
			}
		} else if lit := varLits[obj]; lit != nil {
			// A local func variable bound to exactly one literal.
			if bodyHasLifecycle(info, decls, varLits, lit.Body, 1, seen) {
				return true
			}
		} else {
			// External or unresolvable body: the lifecycle must travel in
			// the arguments.
			for _, arg := range gs.Call.Args {
				t := exprType(info, arg)
				if isContextType(t) || isChanType(t) || isWaitGroupType(t) {
					return true
				}
			}
		}
	}
	return false
}

// lifecycleDepth bounds how many call levels bodyHasLifecycle follows:
// the spawned body is depth 1, and a session loop reporting through one
// local post() closure is depth 2; anything deeper than 3 is structure
// the analyzer should not guess at.
const lifecycleDepth = 3

// bodyHasLifecycle scans a spawned body (including nested literals —
// a watcher the goroutine itself starts still witnesses the regime) for
// any of the recognized lifecycle markers. Calls to same-package
// functions and to locals bound to a single literal are followed while
// depth, the body's call level, is below lifecycleDepth: a tail loop
// whose exit signalling lives in a post() closure is still tied, however
// many sibling helpers it calls first. seen holds the shallowest depth
// each body was scanned at; a body scanned at that depth or shallower
// found nothing, so it is not scanned again, which also ends cycles.
func bodyHasLifecycle(info *types.Info, decls map[types.Object]*ast.FuncDecl, varLits map[types.Object]*ast.FuncLit, body *ast.BlockStmt, depth int, seen map[*ast.BlockStmt]int) bool {
	if body == nil || seen[body] != 0 && seen[body] <= depth {
		return false
	}
	seen[body] = depth
	tied := false
	ast.Inspect(body, func(n ast.Node) bool {
		if tied {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			tied = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				tied = true
			}
		case *ast.RangeStmt:
			if isChanType(exprType(info, n.X)) {
				tied = true
			}
		case *ast.CallExpr:
			if callIsLifecycle(info, n) {
				tied = true
				break
			}
			if depth >= lifecycleDepth {
				break
			}
			if obj := calleeObject(info, n); obj != nil {
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				if fd, ok := decls[obj]; ok {
					tied = bodyHasLifecycle(info, decls, varLits, fd.Body, depth+1, seen)
				} else if lit := varLits[obj]; lit != nil {
					tied = bodyHasLifecycle(info, decls, varLits, lit.Body, depth+1, seen)
				}
			}
		case *ast.Ident:
			if isContextType(exprType(info, n)) {
				tied = true
			}
		case *ast.SelectorExpr:
			if isContextType(exprType(info, n)) {
				tied = true
			}
		}
		return !tied
	})
	return tied
}

// callIsLifecycle matches the call forms that witness a lifecycle:
// closing a channel, WaitGroup methods, deadline arming, and Accept.
func callIsLifecycle(info *types.Info, call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "close" && len(call.Args) == 1 {
			if obj, ok := info.Uses[fun].(*types.Builtin); ok && obj.Name() == "close" {
				return true
			}
		}
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Done", "Add", "Wait":
			if isWaitGroupType(exprType(info, fun.X)) {
				return true
			}
		case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
			return true
		case "Accept":
			return true
		}
	}
	return false
}
