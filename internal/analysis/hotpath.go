package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath guards the Go analogue of the paper's Table I register
// kernel: functions annotated //npdp:hotpath (the stage-1 panel and band
// dispatchers, the stage-2 bodies and the 4×4 CB step) form a closed,
// allocation-free call universe.
// Inside an annotated function the analyzer rejects everything that
// would put an allocation, a dynamic dispatch, or scheduler work on the
// per-element path:
//
//   - make/new/append, map and slice literals, &composite literals,
//     non-constant string concatenation, closures (FuncLit);
//   - defer, go, select, channel operations;
//   - conversions to interface types and method calls through
//     interfaces;
//   - calls to any function that is not itself //npdp:hotpath-annotated
//     (len/cap/copy/min/max and panic are exempt).
//
// Body-less //go:noescape declarations — assembly kernel stubs like
// bandAVX2F32 — are legal leaves of the call universe: they have no Go
// body to allocate or dispatch from, and the noescape pragma pins the
// property the analyzer exists to protect (arguments stay off the
// heap). A //go:noescape declaration WITH a body is still rejected the
// usual way; the exemption is only for pure stubs.
//
// This is the syntactic half of the guarantee; the compiler-output half
// (escape analysis and bounds-check elimination on the exact shapes the
// engines instantiate) is enforced by the codegen gate
// (scripts/codegen_gate.sh), which diffs -gcflags='-m
// -d=ssa/check_bce/debug=1' output against a golden baseline.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "//npdp:hotpath functions must not allocate, defer, dispatch through interfaces, or call non-hotpath functions",
	Run:  runHotPath,
}

// hotpathMarker annotates hot-loop kernels in a function's doc comment.
const hotpathMarker = "npdp:hotpath"

// noescapeMarker is the compiler pragma on assembly stub declarations.
const noescapeMarker = "go:noescape"

// hotpathBuiltins are builtins that never allocate.
var hotpathBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "min": true, "max": true,
	"real": true, "imag": true,
	// panic is terminal: boxing its argument is off the hot loop by
	// definition, and kernels validate inputs by panicking early.
	"panic": true,
}

func runHotPath(pass *Pass) error {
	info := pass.TypesInfo

	// Collect the annotated set first: calls between annotated functions
	// are the sanctioned internal edges (PanelMinPlus → panelStats).
	annotated := make(map[types.Object]bool)
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if docHasDirective(fd.Doc, hotpathMarker) {
				if obj := info.Defs[fd.Name]; obj != nil {
					annotated[obj] = true
				}
				decls = append(decls, fd)
				continue
			}
			// Assembly stubs: body-less //go:noescape declarations are
			// sanctioned leaves (see the analyzer doc above).
			if fd.Body == nil && docHasDirective(fd.Doc, noescapeMarker) {
				if obj := info.Defs[fd.Name]; obj != nil {
					annotated[obj] = true
				}
			}
		}
	}

	for _, fd := range decls {
		if fd.Body == nil {
			continue
		}
		name := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				pass.Reportf(n.Pos(), "hotpath %s: defer allocates a frame record and delays the epilogue", name)
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "hotpath %s: go statement spawns a goroutine on the hot path", name)
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "hotpath %s: select blocks on the scheduler", name)
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "hotpath %s: channel send on the hot path", name)
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "hotpath %s: channel receive on the hot path", name)
				}
				if n.Op == token.AND {
					if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
						pass.Reportf(n.Pos(), "hotpath %s: &composite literal escapes to the heap", name)
					}
				}
			case *ast.RangeStmt:
				if tv, ok := info.Types[n.X]; ok {
					if _, isChan := types.Unalias(tv.Type).Underlying().(*types.Chan); isChan {
						pass.Reportf(n.Pos(), "hotpath %s: ranging over a channel blocks on the scheduler", name)
					}
				}
			case *ast.FuncLit:
				pass.Reportf(n.Pos(), "hotpath %s: closure literal allocates", name)
				return false // don't descend: the closure body is off-path
			case *ast.CompositeLit:
				checkHotpathComposite(pass, info, name, n)
			case *ast.BinaryExpr:
				if n.Op == token.ADD {
					if tv, ok := info.Types[n]; ok && isStringType(tv.Type) && tv.Value == nil {
						pass.Reportf(n.Pos(), "hotpath %s: non-constant string concatenation allocates", name)
					}
				}
			case *ast.CallExpr:
				checkHotpathCall(pass, info, annotated, name, n)
			}
			return true
		})
	}
	return nil
}

// checkHotpathComposite rejects literal kinds that allocate on the heap
// or hash on construction; plain struct/array value literals stay legal
// (they live in registers or on the stack).
func checkHotpathComposite(pass *Pass, info *types.Info, name string, cl *ast.CompositeLit) {
	tv, ok := info.Types[cl]
	if !ok {
		return
	}
	switch types.Unalias(tv.Type).Underlying().(type) {
	case *types.Map:
		pass.Reportf(cl.Pos(), "hotpath %s: map literal allocates", name)
	case *types.Slice:
		pass.Reportf(cl.Pos(), "hotpath %s: slice literal allocates", name)
	}
}

// checkHotpathCall classifies one call inside an annotated function.
func checkHotpathCall(pass *Pass, info *types.Info, annotated map[types.Object]bool, name string, call *ast.CallExpr) {
	// Conversions: free between concrete types, an allocation when the
	// target is an interface.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) {
			pass.Reportf(call.Pos(), "hotpath %s: conversion to interface type %s allocates", name, tv.Type)
		}
		return
	}
	// Interface method dispatch.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if types.IsInterface(s.Recv().Underlying()) {
				pass.Reportf(call.Pos(), "hotpath %s: interface dispatch through %s", name, describeExpr(sel.X))
				return
			}
		}
	}
	obj := calleeObject(info, call)
	switch obj := obj.(type) {
	case *types.Builtin:
		switch obj.Name() {
		case "make", "new", "append":
			pass.Reportf(call.Pos(), "hotpath %s: %s allocates", name, obj.Name())
		default:
			if !hotpathBuiltins[obj.Name()] {
				pass.Reportf(call.Pos(), "hotpath %s: builtin %s is not hot-path safe", name, obj.Name())
			}
		}
	case *types.Func:
		if !annotated[obj.Origin()] {
			pass.Reportf(call.Pos(), "hotpath %s: calls non-hotpath function %s (annotate it //npdp:hotpath or hoist the call)", name, obj.FullName())
		}
	case *types.Var:
		pass.Reportf(call.Pos(), "hotpath %s: indirect call through %s defeats inlining", name, obj.Name())
	case nil:
		pass.Reportf(call.Pos(), "hotpath %s: cannot resolve callee statically", name)
	}
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
