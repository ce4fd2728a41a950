package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// poolPair implements sdamvet/poolpair: every hbm pool Acquire must be
// paired with a Release that is guaranteed on every path out of the
// owning function — including early returns and panics, which only a
// deferred Release covers. A leaked device is not a crash: the pool
// just stops recycling,每 sweep cell silently re-allocates the flat
// bank planes, and the PR-5 zero-alloc warm path quietly degrades back
// to the pre-pool cost.
//
// The analyzer is interprocedural over the whole analyzed tree (one
// shared type universe, like atomicmix):
//
//   - a function that calls hbm.Release on one of its parameters (or a
//     field of one, like releaseMachine's hbm.Release(m.dev)) is a
//     *releaser* of that parameter, transitively;
//   - a function whose returned value carries the result of an Acquire
//     (directly, or inside a returned composite like system.boot's
//     &machine{dev: dev}) is an *acquirer*, transitively — ownership
//     transfers to its caller.
//
// At every call site of hbm.Acquire or an acquirer, the result must
// either be returned onward (another transfer) or reach a releaser.
// Flagged: a discarded result, a result with no release on any path, a
// release that is never deferred (panic-unsafe), and a return statement
// between the Acquire and the deferred Release (the early-return leak —
// the exact shape of a `return res, err` slipped in before the
// `defer releaseMachine(m)`).
//
// The hbm package itself (the pool implementation) is exempt.
type poolPair struct {
	funcs map[*types.Func]*ppFunc
	order []*types.Func
}

// ppFunc is one declared function's retained body plus its computed
// pool-ownership summary.
type ppFunc struct {
	pkg      *Package
	fd       *ast.FuncDecl
	releases map[int]bool // param index (receiver = -1) it releases
	acquirer bool
}

func newPoolPair() *poolPair {
	return &poolPair{funcs: make(map[*types.Func]*ppFunc)}
}

func (pp *poolPair) Rule() string { return "poolpair" }

func (pp *poolPair) Doc() string {
	return "hbm pool Acquire whose Release is not guaranteed on every path (early return, panic, or no release at all)"
}

// Check only collects; the interprocedural summaries and the site
// checks run in Diagnostics once every package has been seen.
func (pp *poolPair) Check(p *Pass) {
	pkg := p.Pkg
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			pp.funcs[obj] = &ppFunc{pkg: pkg, fd: fd, releases: make(map[int]bool)}
			pp.order = append(pp.order, obj)
		}
	}
}

func (pp *poolPair) Diagnostics() []Diagnostic {
	pp.computeReleasers()
	pp.computeAcquirers()
	var diags []Diagnostic
	for _, obj := range pp.order {
		fn := pp.funcs[obj]
		if strings.HasSuffix(fn.pkg.Path, "internal/hbm") {
			continue
		}
		diags = append(diags, pp.checkSites(fn)...)
	}
	return diags
}

// isHBMAcquire / isHBMRelease identify the pool's own entry points.
func isHBMFunc(f *types.Func, name string) bool {
	return f != nil && f.Name() == name && f.Pkg() != nil &&
		strings.HasSuffix(f.Pkg().Path(), "internal/hbm")
}

// calleeFunc resolves a call's target to a declared function, if any.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := pkg.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// releaseArgsOf returns the argument expressions a call hands to
// releasing positions of its callee: hbm.Release's first argument, or
// the matching parameters of a transitive releaser (receiver included).
func (pp *poolPair) releaseArgsOf(pkg *Package, call *ast.CallExpr) []ast.Expr {
	f := calleeFunc(pkg, call)
	if f == nil {
		return nil
	}
	var idxs []int
	if isHBMFunc(f, "Release") {
		idxs = []int{0}
	} else if known := pp.funcs[f]; known != nil {
		for i := range known.releases {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
	}
	var args []ast.Expr
	for _, i := range idxs {
		if i == -1 {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				args = append(args, sel.X)
			}
			continue
		}
		if i < len(call.Args) {
			args = append(args, call.Args[i])
		}
	}
	return args
}

// isAcquireCall reports whether the call returns a pool-owned device:
// hbm.Acquire itself or a transitive acquirer.
func (pp *poolPair) isAcquireCall(pkg *Package, call *ast.CallExpr) bool {
	f := calleeFunc(pkg, call)
	if f == nil {
		return false
	}
	if isHBMFunc(f, "Acquire") {
		return true
	}
	known := pp.funcs[f]
	return known != nil && known.acquirer
}

// paramObjs maps a function's receiver (-1) and parameters (0..n-1) to
// their objects.
func paramObjs(fn *ppFunc) map[types.Object]int {
	out := make(map[types.Object]int)
	if fn.fd.Recv != nil && len(fn.fd.Recv.List) == 1 && len(fn.fd.Recv.List[0].Names) == 1 {
		if obj := fn.pkg.Info.Defs[fn.fd.Recv.List[0].Names[0]]; obj != nil {
			out[obj] = -1
		}
	}
	i := 0
	if fn.fd.Type.Params != nil {
		for _, field := range fn.fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := fn.pkg.Info.Defs[name]; obj != nil {
					out[obj] = i
				}
				i++
			}
		}
	}
	return out
}

// computeReleasers marks, to a fixed point, which parameters each
// function releases.
func (pp *poolPair) computeReleasers() {
	for changed := true; changed; {
		changed = false
		for _, obj := range pp.order {
			fn := pp.funcs[obj]
			params := paramObjs(fn)
			ast.Inspect(fn.fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, arg := range pp.releaseArgsOf(fn.pkg, call) {
					root := rootIdent(ast.Unparen(arg))
					if root == nil {
						continue
					}
					if i, isParam := params[objOf(fn.pkg, root)]; isParam && !fn.releases[i] {
						fn.releases[i] = true
						changed = true
					}
				}
				return true
			})
		}
	}
}

// computeAcquirers marks, to a fixed point, functions whose return
// value carries a freshly acquired device.
func (pp *poolPair) computeAcquirers() {
	for changed := true; changed; {
		changed = false
		for _, obj := range pp.order {
			fn := pp.funcs[obj]
			if fn.acquirer {
				continue
			}
			if pp.returnsAcquired(fn) {
				fn.acquirer = true
				changed = true
			}
		}
	}
}

// returnsAcquired reports whether fn returns the result of an acquire
// call, directly or through a local that carries it into a return
// expression (including a wrapper struct built around it, like
// system.boot's &machine{dev: dev}).
func (pp *poolPair) returnsAcquired(fn *ppFunc) bool {
	returns := returnSpans(fn.fd.Body)
	inReturn := func(pos token.Pos) bool {
		for _, r := range returns {
			if pos >= r[0] && pos <= r[1] {
				return true
			}
		}
		return false
	}
	found := false
	ast.Inspect(fn.fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !pp.isAcquireCall(fn.pkg, call) {
			return true
		}
		if inReturn(call.Pos()) {
			found = true
			return false
		}
		if v := boundVar(fn.pkg, fn.fd.Body, call); v != nil && escapesViaReturn(fn.pkg, fn.fd.Body, v) {
			found = true
		}
		return true
	})
	return found
}

// escapesViaReturn reports whether v (or a wrapper local built around
// it) is carried out of the function by a return statement's value.
// Merely *using* v inside a return — return int(d.Stats().Activates) —
// is not an escape; the device itself has to leave.
func escapesViaReturn(pkg *Package, body *ast.BlockStmt, v types.Object) bool {
	carriers := carrierSet(pkg, body, v)
	for _, ret := range returnStmts(body) {
		for _, res := range ret.Results {
			if carriesObj(pkg, res, carriers) {
				return true
			}
		}
	}
	return false
}

// carrierSet computes, to a fixed point, the locals that carry v: v
// itself, plus anything assigned an expression that carries a known
// carrier (m := &machine{dev: d} makes m carry d).
func carrierSet(pkg *Package, body *ast.BlockStmt, v types.Object) map[types.Object]bool {
	carriers := map[types.Object]bool{v: true}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Lhs {
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := objOf(pkg, id)
				if obj == nil || carriers[obj] {
					continue
				}
				if carriesObj(pkg, as.Rhs[i], carriers) {
					carriers[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return carriers
}

// carriesObj reports whether evaluating e yields a value that holds a
// carrier: the carrier itself, a composite literal embedding it, its
// address, or a field selected off one. Function calls break the chain
// (their results are new values).
func carriesObj(pkg *Package, e ast.Expr, carriers map[types.Object]bool) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return carriers[objOf(pkg, x)]
	case *ast.ParenExpr:
		return carriesObj(pkg, x.X, carriers)
	case *ast.StarExpr:
		return carriesObj(pkg, x.X, carriers)
	case *ast.UnaryExpr:
		return carriesObj(pkg, x.X, carriers)
	case *ast.SelectorExpr:
		return carriesObj(pkg, x.X, carriers)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if carriesObj(pkg, kv.Value, carriers) {
					return true
				}
				continue
			}
			if carriesObj(pkg, elt, carriers) {
				return true
			}
		}
	}
	return false
}

// returnStmts collects the function's own return statements, skipping
// closure bodies.
func returnStmts(body *ast.BlockStmt) []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			out = append(out, r)
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return true
	})
	return out
}

// boundVar returns the local variable an acquire call's result is bound
// to (d := hbm.Acquire(...), m := boot(o, nil)), or nil when the result
// is discarded or stored into a non-identifier lvalue.
func boundVar(pkg *Package, body *ast.BlockStmt, call *ast.CallExpr) types.Object {
	var v types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || v != nil {
			return v == nil
		}
		for i, rhs := range as.Rhs {
			if ast.Unparen(rhs) != call || i >= len(as.Lhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				v = objOf(pkg, id)
			}
		}
		return true
	})
	return v
}

// returnSpans collects the source spans of every return statement in
// the body, for "is this position inside/past a return" checks.
func returnSpans(body *ast.BlockStmt) [][2]token.Pos {
	var spans [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			spans = append(spans, [2]token.Pos{r.Pos(), r.End()})
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure's returns are not this function's exits
		}
		return true
	})
	return spans
}

// checkSites verifies every acquire call site inside one function.
func (pp *poolPair) checkSites(fn *ppFunc) []Diagnostic {
	var diags []Diagnostic
	flag := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{Pos: fn.pkg.Fset.Position(pos), Rule: "poolpair",
			Message: fmt.Sprintf(format, args...)})
	}
	returns := returnSpans(fn.fd.Body)
	inReturn := func(pos token.Pos) bool {
		for _, r := range returns {
			if pos >= r[0] && pos <= r[1] {
				return true
			}
		}
		return false
	}
	ast.Inspect(fn.fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !pp.isAcquireCall(fn.pkg, call) {
			return true
		}
		name := "Acquire"
		if f := calleeFunc(fn.pkg, call); f != nil {
			name = f.Name()
		}
		if inReturn(call.Pos()) {
			return true // ownership transferred to the caller
		}
		v := boundVar(fn.pkg, fn.fd.Body, call)
		if v == nil {
			if storedAway(fn.pkg, fn.fd.Body, call) {
				return true // escapes into a structure; not locally checkable
			}
			flag(call.Pos(), "result of %s is discarded; the pooled device leaks — bind it and defer its Release", name)
			return true
		}
		// A local carried out by a return transfers ownership onward.
		if escapesViaReturn(fn.pkg, fn.fd.Body, v) {
			return true
		}
		deferPos, directPos := pp.releaseSites(fn, v)
		switch {
		case deferPos == token.NoPos && directPos == token.NoPos:
			flag(call.Pos(), "%s result %q is never released on any path; the pooled device leaks — add `defer` with the matching Release", name, v.Name())
		case deferPos == token.NoPos:
			flag(call.Pos(), "%s result %q is released but never via defer, so a panic or early return between Acquire and Release leaks the pooled device; defer the Release immediately after acquiring", name, v.Name())
		default:
			for _, r := range returns {
				if r[0] > call.End() && r[1] < deferPos {
					flag(r[0], "return between %s of %q and its deferred Release leaks the pooled device on this path; register the defer before any early return", name, v.Name())
				}
			}
		}
		return true
	})
	return diags
}

// releaseSites finds the earliest deferred and direct release of v
// inside fn.
func (pp *poolPair) releaseSites(fn *ppFunc, v types.Object) (deferPos, directPos token.Pos) {
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(fn.fd.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && d.Call != nil {
			deferred[d.Call] = true
		}
		return true
	})
	ast.Inspect(fn.fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range pp.releaseArgsOf(fn.pkg, call) {
			root := rootIdent(ast.Unparen(arg))
			if root == nil || objOf(fn.pkg, root) != v {
				continue
			}
			if deferred[call] {
				if deferPos == token.NoPos || call.Pos() < deferPos {
					deferPos = call.Pos()
				}
			} else if directPos == token.NoPos || call.Pos() < directPos {
				directPos = call.Pos()
			}
		}
		return true
	})
	return deferPos, directPos
}

// storedAway reports whether the call's result is assigned to a
// non-identifier lvalue (a field or element), transferring ownership
// into a structure the local analysis cannot follow.
func storedAway(pkg *Package, body *ast.BlockStmt, call *ast.CallExpr) bool {
	stored := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || stored {
			return !stored
		}
		for i, rhs := range as.Rhs {
			if ast.Unparen(rhs) == call && i < len(as.Lhs) {
				if _, isIdent := as.Lhs[i].(*ast.Ident); !isIdent {
					stored = true
				}
			}
		}
		return true
	})
	return stored
}
