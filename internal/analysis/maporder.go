package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// mapOrder implements sdamvet/maporder: a `range` over a map whose
// iteration result reaches output, selection, or accumulation without
// an intervening sort. Go randomizes map iteration order, so any such
// loop makes simulation output depend on the run — the exact bug class
// of PR 1's DL-selector modal-VID tie-break.
//
// The rule is intentionally strict. Inside a range over a map, only
// order-insensitive work is allowed:
//
//   - declaring loop-locals (:=)
//   - writes through an index link (m2[k] = v, s[k].f = v): element
//     writes keyed by the loop variable commute across iterations
//   - integer/boolean compound accumulation (n++, n += x, ok = ok && …
//     is not — plain = always flags): int sums commute, float sums and
//     string concatenation do not
//   - collecting elements into a local slice with append, provided a
//     sort.*/slices.* call on that slice follows later in the same
//     function (the collect-then-sort idiom)
//
// Everything else — plain assignment to an outer variable (selection),
// float/string accumulation, calls with visible effects (printing,
// table rows, method mutation), return/break/goto, channel operations,
// go/defer — is flagged.
type mapOrder struct {
	diags []Diagnostic
}

var mapOrderAnalyzer = Analyzer{
	Rule: "maporder",
	Doc:  "range over a map whose iteration result reaches output, selection, or accumulation without an intervening sort",
	Check: func(pkg *Package) []Diagnostic {
		var m mapOrder
		m.check(pkg)
		return m.diags
	},
}

func (m *mapOrder) check(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			m.walkFunc(pkg, fd.Body)
		}
	}
}

// walkFunc scans one function body for map ranges, recursing into
// nested function literals with their own (inner) enclosing body so the
// collect-then-sort lookup stays within the right function.
func (m *mapOrder) walkFunc(pkg *Package, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			m.walkFunc(pkg, x.Body)
			return false
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(x.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					m.checkRange(pkg, x, body)
				}
			}
		}
		return true
	})
}

// rangeCtx carries the state of one map-range body walk.
type rangeCtx struct {
	pkg     *Package
	rs      *ast.RangeStmt
	encl    *ast.BlockStmt
	appends map[types.Object]token.Pos // outer slices collected into
}

func (m *mapOrder) checkRange(pkg *Package, rs *ast.RangeStmt, encl *ast.BlockStmt) {
	ctx := &rangeCtx{pkg: pkg, rs: rs, encl: encl, appends: make(map[types.Object]token.Pos)}
	m.checkStmt(ctx, rs.Body)
	// Collected-but-never-sorted slices, reported in collection order.
	var objs []types.Object
	for obj := range ctx.appends {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	for _, obj := range objs {
		if !sortFollows(pkg, encl, rs, obj) {
			m.flag(pkg, ctx.appends[obj],
				"elements collected from a map range into %q are never sorted before use; sort them (or iterate sorted keys)", obj.Name())
		}
	}
}

func (m *mapOrder) flag(pkg *Package, pos token.Pos, format string, args ...any) {
	m.diags = append(m.diags, Diagnostic{
		Pos:     pkg.Fset.Position(pos),
		Rule:    "maporder",
		Message: fmt.Sprintf(format, args...),
	})
}

func (m *mapOrder) checkStmt(ctx *rangeCtx, s ast.Stmt) {
	switch x := s.(type) {
	case nil, *ast.EmptyStmt, *ast.DeclStmt:
	case *ast.BlockStmt:
		for _, st := range x.List {
			m.checkStmt(ctx, st)
		}
	case *ast.IfStmt:
		m.checkStmt(ctx, x.Init)
		m.checkStmt(ctx, x.Body)
		m.checkStmt(ctx, x.Else)
	case *ast.ForStmt:
		m.checkStmt(ctx, x.Init)
		m.checkStmt(ctx, x.Post)
		m.checkStmt(ctx, x.Body)
	case *ast.RangeStmt:
		// The inner range gets its own checkRange if it iterates a map;
		// here its body is still subject to the outer range's rules.
		m.checkStmt(ctx, x.Body)
	case *ast.SwitchStmt:
		m.checkStmt(ctx, x.Init)
		m.checkStmt(ctx, x.Body)
	case *ast.TypeSwitchStmt:
		m.checkStmt(ctx, x.Init)
		m.checkStmt(ctx, x.Body)
	case *ast.CaseClause:
		for _, st := range x.Body {
			m.checkStmt(ctx, st)
		}
	case *ast.LabeledStmt:
		m.checkStmt(ctx, x.Stmt)
	case *ast.AssignStmt:
		m.checkAssign(ctx, x)
	case *ast.IncDecStmt:
		m.checkWrite(ctx, x.X, token.INC, x.Pos())
	case *ast.ExprStmt:
		m.checkExprStmt(ctx, x)
	case *ast.ReturnStmt:
		m.flag(ctx.pkg, x.Pos(), "return inside range over a map exits on an iteration-order-dependent element; iterate sorted keys")
	case *ast.BranchStmt:
		if x.Tok == token.BREAK || x.Tok == token.GOTO {
			m.flag(ctx.pkg, x.Pos(), "%s inside range over a map stops on an iteration-order-dependent element; iterate sorted keys", x.Tok)
		}
	case *ast.SendStmt:
		m.flag(ctx.pkg, x.Pos(), "channel send inside range over a map publishes elements in iteration order; iterate sorted keys")
	case *ast.DeferStmt:
		m.flag(ctx.pkg, x.Pos(), "defer inside range over a map schedules iteration-order-dependent work; iterate sorted keys")
	case *ast.GoStmt:
		m.flag(ctx.pkg, x.Pos(), "goroutine launch inside range over a map orders work by map iteration; iterate sorted keys")
	default:
		m.flag(ctx.pkg, s.Pos(), "statement inside range over a map may depend on iteration order; iterate sorted keys")
	}
}

func (m *mapOrder) checkAssign(ctx *rangeCtx, as *ast.AssignStmt) {
	if as.Tok == token.DEFINE {
		return // declares loop-locals
	}
	// x = append(x, …): collect-then-sort candidate.
	if as.Tok == token.ASSIGN && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := objOf(ctx.pkg, id); obj != nil && !declaredWithin(obj, ctx.rs) {
				if isSelfAppend(ctx.pkg, obj, as.Rhs[0]) {
					if _, seen := ctx.appends[obj]; !seen {
						ctx.appends[obj] = as.Pos()
					}
					return
				}
			}
		}
	}
	for _, lhs := range as.Lhs {
		m.checkWrite(ctx, lhs, as.Tok, as.Pos())
	}
}

// checkWrite classifies one written lvalue under the outer map range.
func (m *mapOrder) checkWrite(ctx *rangeCtx, lhs ast.Expr, tok token.Token, pos token.Pos) {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	if _, ok := lhs.(*ast.IndexExpr); ok {
		return // m2[k] = v: keyed element write, order-insensitive
	}
	if hasIndexLink(lhs) {
		return // s[i].f = v: still keyed by an element
	}
	root := rootIdent(lhs)
	if root == nil {
		m.flag(ctx.pkg, pos, "iteration-order-dependent write inside range over a map; iterate sorted keys")
		return
	}
	obj := objOf(ctx.pkg, root)
	if obj == nil || declaredWithin(obj, ctx.rs) {
		return // loop-local
	}
	if tok != token.ASSIGN && tok != token.DEFINE {
		// Compound accumulation: integers and booleans commute across
		// iterations, floats/strings/complex do not.
		if t := ctx.pkg.Info.TypeOf(lhs); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok &&
				b.Info()&(types.IsInteger|types.IsBoolean) != 0 {
				return
			}
		}
		m.flag(ctx.pkg, pos, "non-integer accumulation into %q inside range over a map depends on iteration order; iterate sorted keys", root.Name)
		return
	}
	m.flag(ctx.pkg, pos, "iteration-order-dependent assignment to %q inside range over a map (the PR-1 modal-VID bug class); iterate sorted keys", root.Name)
}

func (m *mapOrder) checkExprStmt(ctx *rangeCtx, es *ast.ExprStmt) {
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		if u, isRecv := es.X.(*ast.UnaryExpr); isRecv && u.Op == token.ARROW {
			m.flag(ctx.pkg, es.Pos(), "channel receive inside range over a map; iterate sorted keys")
		}
		return
	}
	if fn, isIdent := call.Fun.(*ast.Ident); isIdent {
		if _, isBuiltin := objOf(ctx.pkg, fn).(*types.Builtin); isBuiltin {
			switch fn.Name {
			case "delete", "len", "cap", "min", "max":
				return
			}
		}
	}
	m.flag(ctx.pkg, es.Pos(), "call with visible effects inside range over a map publishes iteration-order-dependent results; iterate sorted keys")
}

// isSelfAppend reports whether rhs is append(obj, …).
func isSelfAppend(pkg *Package, obj types.Object, rhs ast.Expr) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if _, isBuiltin := objOf(pkg, fn).(*types.Builtin); !isBuiltin {
		return false
	}
	root := rootIdent(call.Args[0])
	return root != nil && objOf(pkg, root) == obj
}

// sortFollows reports whether a sort.*/slices.* call on obj appears
// after the range statement in the enclosing function body.
func sortFollows(pkg *Package, encl *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(encl, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() || !isSortCall(pkg, call) || len(call.Args) == 0 {
			return true
		}
		if root := rootIdent(call.Args[0]); root != nil && objOf(pkg, root) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

var sortFuncs = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true,
	"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	"SortFunc": true, "SortStableFunc": true,
}

func isSortCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !sortFuncs[sel.Sel.Name] {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := objOf(pkg, id).(*types.PkgName)
	if !ok {
		return false
	}
	p := pn.Imported().Path()
	return p == "sort" || p == "slices"
}

// objOf resolves an identifier to its object (use or definition).
func objOf(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}

// declaredWithin reports whether obj's declaration lies inside the
// range statement (loop key/value or body-local).
func declaredWithin(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() != token.NoPos && obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End()
}
