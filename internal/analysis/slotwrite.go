package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// slotWrite implements sdamvet/slotwrite: the slot-ownership contract
// for parallel stages (DESIGN.md §11). Every parallel.Map / MapN /
// MapNWorker thunk must write only slots it owns — positions derived
// from the thunk's own parameters (the item index, the worker index, or
// the item itself) — and leave cross-slot reduction to the serial code
// after the fan-out. That is what makes sweep results bit-identical at
// any -jobs count: slot writes commute, everything else does not.
//
// Inside a thunk literal passed to parallel.Map/MapN/MapNWorker, the
// analyzer flags, for variables captured from the enclosing function:
//
//   - a write no slot owns: assignment or ++/-- to the captured
//     variable itself, or through a selector or pointer without any
//     index link (total += v, shared.field = v, *p = v);
//
//   - a write into a captured slice/array at a position NOT derived
//     from a thunk parameter (out[0] = v, out[k] = v with k captured):
//     two cells then write the same slot;
//
//   - a store into a captured map (m[k] = v): concurrent map writes
//     fault, and even "disjoint" keys share the map's internals;
//
//   - an append to a captured slice, in any position: append moves the
//     backing array under concurrent cells and orders elements by
//     scheduling.
//
// A mutex or an atomic around such a write removes the data race but
// not the dependence on scheduling, so the rule flags it all the same:
// that is the case the race detector cannot see.
//
// "Derived from a thunk parameter" is tracked through thunk-local
// variables: j := i*2 makes j index-derived when i is the index
// parameter, and span-style thunks (func(_ int, s [2]int) with
// for i := s[0]; i < s[1]; i++ { out[i] = … }) are sanctioned because
// the item parameter identifies the cell just as well as its index.
// The parallel package itself is exempt: it owns the results slice.
type slotWrite struct {
	diags []Diagnostic
}

var slotWriteAnalyzer = Analyzer{
	Rule: "slotwrite",
	Doc:  "parallel.Map/MapN/MapNWorker thunk writing captured state outside its index-owned slot (shared variables and fields, non-index-derived positions, map stores, shared appends)",
	Check: func(pkg *Package) []Diagnostic {
		var s slotWrite
		s.check(pkg)
		return s.diags
	},
}

func (s *slotWrite) check(pkg *Package) {
	if strings.HasSuffix(pkg.Path, "internal/parallel") {
		return
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if lit := parallelThunk(pkg, call); lit != nil {
				s.checkThunk(pkg, lit, nil)
				return false // checkThunk walks the nested fan-outs itself
			}
			return true
		})
	}
}

// parallelThunk returns the function literal passed as the thunk of a
// Map, MapN or MapNWorker call, or nil if call is something else.
func parallelThunk(pkg *Package, call *ast.CallExpr) *ast.FuncLit {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/parallel") {
		return nil
	}
	arg := -1
	switch fn.Name() {
	case "Map":
		arg = 1
	case "MapN", "MapNWorker":
		arg = 2
	}
	if arg < 0 || len(call.Args) <= arg {
		return nil
	}
	lit, _ := ast.Unparen(call.Args[arg]).(*ast.FuncLit)
	return lit
}

// checkThunk verifies one thunk against the slot-ownership contract.
// inherited carries the derived set of enclosing parallel thunks, so
// nested fan-outs keep their outer identity sanctioned.
func (s *slotWrite) checkThunk(pkg *Package, lit *ast.FuncLit, inherited map[types.Object]bool) {
	derived := make(map[types.Object]bool)
	for obj := range inherited {
		derived[obj] = true
	}
	addParams := func(fl *ast.FuncLit) {
		if fl.Type.Params == nil {
			return
		}
		for _, field := range fl.Type.Params.List {
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					derived[obj] = true
				}
			}
		}
	}
	addParams(lit)

	// Nested (non-parallel) function literals run inside the thunk, so
	// their bodies obey the same rules; their parameters are bound by
	// whoever calls them, which the analyzer cannot see, so they are
	// optimistically treated as derived (a fn(i) helper pattern must not
	// false-positive). Nested *parallel* thunks get their own checkThunk
	// with the union, below.
	nestedParallel := make(map[*ast.FuncLit]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if inner := parallelThunk(pkg, x); inner != nil {
				nestedParallel[inner] = true
			}
		case *ast.FuncLit:
			if !nestedParallel[x] {
				addParams(x)
			}
		}
		return true
	})

	// Propagate derivedness through thunk-local definitions to a fixed
	// point: j := i + 1 derives j from i; for v := range items[i] derives
	// v. The loop is bounded by the number of locals.
	for changed := true; changed; {
		changed = false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := objOf(pkg, id)
					if obj == nil || derived[obj] || !declaredInside(obj, lit) {
						continue
					}
					rhs := x.Rhs
					if len(x.Lhs) == len(x.Rhs) {
						rhs = x.Rhs[i : i+1]
					}
					for _, r := range rhs {
						if mentionsDerived(pkg, r, derived) {
							derived[obj] = true
							changed = true
							break
						}
					}
				}
			case *ast.RangeStmt:
				if x.X == nil || !mentionsDerived(pkg, x.X, derived) {
					return true
				}
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
						if obj := objOf(pkg, id); obj != nil && !derived[obj] && declaredInside(obj, lit) {
							derived[obj] = true
							changed = true
						}
					}
				}
			}
			return true
		})
	}

	captured := func(id *ast.Ident) types.Object {
		obj := objOf(pkg, id)
		if v, ok := obj.(*types.Var); !ok || v.IsField() {
			return nil
		}
		if declaredInside(obj, lit) {
			return nil
		}
		return obj
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && nestedParallel[inner] {
			s.checkThunk(pkg, inner, derived)
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				return true
			}
			for i, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && len(x.Rhs) == len(x.Lhs) && isSelfAppend(pkg, objOf(pkg, id), x.Rhs[i]) {
					continue // out = append(out, v): checkAppend reports it
				}
				s.checkWrite(pkg, lhs, derived, captured)
			}
		case *ast.IncDecStmt:
			s.checkWrite(pkg, x.X, derived, captured)
		case *ast.CallExpr:
			s.checkAppend(pkg, x, captured)
		}
		return true
	})
}

// checkWrite classifies one lvalue written inside a thunk.
func (s *slotWrite) checkWrite(pkg *Package, lhs ast.Expr, derived map[types.Object]bool, captured func(*ast.Ident) types.Object) {
	root := rootIdent(lhs)
	if root == nil || root.Name == "_" || captured(root) == nil {
		return
	}
	idx, container, hasIdx := rootmostIndex(lhs)
	if !hasIdx {
		s.flag(pkg, lhs.Pos(), "write to %q captured from the enclosing function inside a parallel thunk; no slot owns it, so cells race and the result depends on scheduling — keep per-cell state local, return it, and reduce serially", root.Name)
		return
	}
	if ct := pkg.Info.TypeOf(container); ct != nil {
		if _, isMap := ct.Underlying().(*types.Map); isMap {
			s.flag(pkg, lhs.Pos(), "store into captured map %q inside a parallel thunk; concurrent map writes race even on distinct keys — collect into index-owned slots and merge serially after the fan-out", root.Name)
			return
		}
	}
	if mentionsDerived(pkg, idx, derived) {
		return // out[i] = …, out[s[0]+k] = …: the cell owns that slot
	}
	s.flag(pkg, lhs.Pos(), "write to captured %q at a non-index-derived position inside a parallel thunk; cells do not own that slot, breaking bit-identity across -jobs counts — derive the position from the thunk's index/worker/item parameters", root.Name)
}

// checkAppend flags append calls whose first argument is a captured
// slice: growth moves the backing array under concurrent cells and the
// resulting element order is scheduling-dependent.
func (s *slotWrite) checkAppend(pkg *Package, call *ast.CallExpr, captured func(*ast.Ident) types.Object) {
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" || len(call.Args) == 0 {
		return
	}
	if _, isBuiltin := objOf(pkg, fn).(*types.Builtin); !isBuiltin {
		return
	}
	if root := rootIdent(call.Args[0]); root != nil && captured(root) != nil {
		s.flag(pkg, call.Pos(), "append to captured slice %q inside a parallel thunk; append reallocates under concurrent cells and orders elements by scheduling — preallocate len(items) slots and write out[i]", root.Name)
	}
}

func (s *slotWrite) flag(pkg *Package, pos token.Pos, format string, args ...any) {
	s.diags = append(s.diags, Diagnostic{Pos: pkg.Fset.Position(pos), Rule: "slotwrite",
		Message: fmt.Sprintf(format, args...)})
}

// rootmostIndex returns the index expression applied closest to the
// lvalue's root identifier, with the expression being indexed: for
// out[i].vals[j] it returns (i, out); for tr.losses[b] it returns
// (b, tr.losses). hasIdx is false when the chain holds no index at all.
func rootmostIndex(e ast.Expr) (idx ast.Expr, container ast.Expr, hasIdx bool) {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			idx, container, hasIdx = x.Index, x.X, true
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return idx, container, hasIdx
		}
	}
}

// mentionsDerived reports whether any identifier inside e resolves to a
// member of the derived set.
func mentionsDerived(pkg *Package, e ast.Expr, derived map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := objOf(pkg, id); obj != nil && derived[obj] {
				found = true
			}
		}
		return true
	})
	return found
}

// declaredInside reports whether obj's declaration lies within the
// function literal's span.
func declaredInside(obj types.Object, lit *ast.FuncLit) bool {
	return obj != nil && obj.Pos() != token.NoPos &&
		obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
}
