package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// VerifyFirst encodes "the digest IS the seal" as a dataflow rule: the
// payload of a decoded frame or record may not flow anywhere before its
// CRC32C check, and an epoch-carrying frame may not feed generation or
// install logic before its fence comparison. PR 7 put the discipline in
// by hand (executeDispatch re-digests every block before decodeCells;
// install() fences the epoch before it looks at the generation); PR 8's
// split-brain defense depends on the fence running first. This analyzer
// makes both orderings structural.
//
// A sealed record is any struct that pairs a uint32 CRC-named field
// with a []byte payload field (wireBlock). In every function (encoders
// exempted by name — serialization writes the seal, it does not trust
// it), a read of the payload field is rejected unless it is lexically
// preceded by a CRC check: an ==/!= comparison
// mentioning the record type's CRC field or a CRC-computing call
// (RawCRC, crc32.Checksum, hash/crc32 functions). len/cap of the
// payload and feeding it to the CRC computation itself are always
// allowed — sizing and digesting are how the check is built.
//
// An epoch-carrying frame is a struct with an Epoch field next to Gen
// or Blocks (taskMsg). Per variable: if the function fences it
// (compares its .Epoch), every read of its .Gen or .Blocks
// must come after the fence — install-before-fence is exactly the
// deposed-leader write PR 8 exists to reject. Functions that never
// fence a variable are exempt: they handle pre-fenced values their
// callers vetted (executeDispatch receives only fenced dispatches).
//
// Functions without bodies (assembly stubs) are skipped.
var VerifyFirst = &Analyzer{
	Name: "verifyfirst",
	Doc:  "decoded payloads may not flow before their CRC check; epoch frames may not feed gen/install logic before the fence",
	Run:  runVerifyFirst,
}

func runVerifyFirst(pass *Pass) error {
	for _, f := range pass.Files {
		if inTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue // assembly stubs and interface-less declarations
			}
			if isEncoderFunc(fd.Name.Name) {
				continue
			}
			checkSealedReads(pass, fd)
			checkEpochFence(pass, fd)
		}
	}
	return nil
}

// isEncoderFunc exempts serialization by name: encode/marshal/save
// functions construct records and write their seals.
func isEncoderFunc(name string) bool {
	n := strings.ToLower(name)
	return strings.Contains(n, "encode") || strings.Contains(n, "marshal") || strings.HasPrefix(n, "save") || strings.HasPrefix(n, "write")
}

// sealedRecord describes a CRC-sealed payload struct.
type sealedRecord struct {
	crcField string
	rawField string
}

// sealedRecordType reports whether t (through pointers) is a sealed
// record: a struct pairing a uint32 *CRC* field with a []byte payload.
func sealedRecordType(t types.Type) (sealedRecord, bool) {
	n := namedType(t)
	if n == nil {
		return sealedRecord{}, false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return sealedRecord{}, false
	}
	var rec sealedRecord
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		if b, ok := types.Unalias(fld.Type()).Underlying().(*types.Basic); ok && b.Kind() == types.Uint32 &&
			strings.Contains(strings.ToUpper(fld.Name()), "CRC") {
			rec.crcField = fld.Name()
		}
		if s, ok := types.Unalias(fld.Type()).Underlying().(*types.Slice); ok {
			if e, ok := s.Elem().Underlying().(*types.Basic); ok && e.Kind() == types.Byte {
				rec.rawField = fld.Name()
			}
		}
	}
	return rec, rec.crcField != "" && rec.rawField != ""
}

// isCRCCall matches CRC-computing callees: hash/crc32 functions and any
// function whose name names the digest (RawCRC, BlockCRC, Checksum).
func isCRCCall(info *types.Info, call *ast.CallExpr) bool {
	obj := calleeObject(info, call)
	if obj == nil {
		return false
	}
	if isPkgPath(obj, "hash/crc32") {
		return true
	}
	name := strings.ToLower(obj.Name())
	return strings.Contains(name, "crc") || strings.Contains(name, "checksum") || strings.Contains(name, "sum32")
}

// checkSealedReads flags payload reads that precede the function's
// first CRC check.
func checkSealedReads(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// First CRC-check position: an ==/!= comparison mentioning a sealed
	// type's CRC field or a CRC-computing call.
	checkPos := token.Pos(-1)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if !comparisonIsCRCCheck(info, be) {
			return true
		}
		if checkPos == token.Pos(-1) || be.Pos() < checkPos {
			checkPos = be.Pos()
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		rec, ok := sealedRecordType(exprType(info, sel.X))
		if !ok || sel.Sel.Name != rec.rawField {
			return true
		}
		if sealedReadAllowed(pass, info, fd, sel) {
			return true
		}
		if checkPos != token.Pos(-1) && sel.Pos() > checkPos {
			return true // after the seal check
		}
		pass.Reportf(sel.Pos(),
			"%s read before its %s seal is verified: corrupt or hostile bytes flow into state; digest first (the digest IS the seal)",
			describeExpr(sel), rec.crcField)
		return true
	})
}

// comparisonIsCRCCheck reports whether either operand mentions a sealed
// record's CRC field or a CRC-computing call.
func comparisonIsCRCCheck(info *types.Info, be *ast.BinaryExpr) bool {
	found := false
	for _, op := range []ast.Expr{be.X, be.Y} {
		ast.Inspect(op, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if rec, ok := sealedRecordType(exprType(info, n.X)); ok && n.Sel.Name == rec.crcField {
					found = true
				}
			case *ast.CallExpr:
				if isCRCCall(info, n) {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

// sealedReadAllowed permits the uses that build the check itself:
// len/cap sizing, feeding the CRC computation, and assignment targets
// (decoding writes the field; it does not read it).
func sealedReadAllowed(pass *Pass, info *types.Info, fd *ast.FuncDecl, sel *ast.SelectorExpr) bool {
	allowed := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if allowed {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if !containsNode(n, sel) {
				return true
			}
			if obj := calleeObject(info, n); obj != nil && obj.Pkg() == nil &&
				(obj.Name() == "len" || obj.Name() == "cap") {
				allowed = true
				return false
			}
			if isCRCCall(info, n) {
				allowed = true
				return false
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if unparen(lhs) == sel {
					allowed = true
					return false
				}
			}
		}
		return true
	})
	return allowed
}

// containsNode reports whether root's subtree contains target.
func containsNode(root, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// epochFrameType reports whether t (through pointers) is an
// epoch-carrying frame with generation or block state: a struct with an
// Epoch field alongside Gen or Blocks.
func epochFrameType(t types.Type) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	hasEpoch, hasState := false, false
	for i := 0; i < st.NumFields(); i++ {
		switch st.Field(i).Name() {
		case "Epoch":
			hasEpoch = true
		case "Gen", "Blocks":
			hasState = true
		}
	}
	return hasEpoch && hasState
}

// checkEpochFence enforces fence-before-state per epoch-frame variable.
func checkEpochFence(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	type use struct {
		pos   token.Pos
		sel   *ast.SelectorExpr
		field string
	}
	fences := make(map[types.Object]token.Pos) // earliest v.Epoch comparison
	var stateUses []struct {
		obj types.Object
		use
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			default:
				return true
			}
			for _, op := range []ast.Expr{n.X, n.Y} {
				ast.Inspect(op, func(m ast.Node) bool {
					sel, ok := m.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Epoch" || !epochFrameType(exprType(info, sel.X)) {
						return true
					}
					obj := rootObject(info, sel.X)
					if obj == nil {
						return true
					}
					if p, ok := fences[obj]; !ok || n.Pos() < p {
						fences[obj] = n.Pos()
					}
					return true
				})
			}
		case *ast.SelectorExpr:
			if n.Sel.Name != "Gen" && n.Sel.Name != "Blocks" {
				return true
			}
			if !epochFrameType(exprType(info, n.X)) {
				return true
			}
			if obj := rootObject(info, n.X); obj != nil {
				stateUses = append(stateUses, struct {
					obj types.Object
					use
				}{obj, use{n.Pos(), n, n.Sel.Name}})
			}
		}
		return true
	})

	sort.Slice(stateUses, func(i, j int) bool { return stateUses[i].pos < stateUses[j].pos })
	for _, su := range stateUses {
		fencePos, fenced := fences[su.obj]
		if !fenced {
			continue // pre-fenced by the caller; this function never fences
		}
		if su.pos > fencePos {
			continue
		}
		pass.Reportf(su.pos,
			"%s read before the frame's epoch fence: a deposed leader's %s would reach generation/install logic; fence first",
			describeExpr(su.sel), su.field)
	}
}
