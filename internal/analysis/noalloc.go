package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// noAlloc implements sdamvet/noalloc: an annotation checker for the
// repository's zero-allocation hot paths. A function carrying
//
//	//sdam:noalloc
//
// in its doc comment declares the PR-3/PR-5 contract the AllocsPerRun
// tests pin at runtime: the body performs no heap allocation in steady
// state. The analyzer flags the allocating constructs a later edit is
// most likely to introduce:
//
//   - make / new
//   - append (growth reallocates; an append provably within a fixed
//     capacity can carry a lint:ignore with its justification)
//   - function literals (the capture environment allocates)
//   - &CompositeLit and slice/map composite literals
//   - string concatenation (+ / +=) and string<->[]byte/[]rune
//     conversions
//   - interface conversions: a concrete value passed to an
//     interface-typed parameter, assigned to an interface-typed
//     location, or returned as an interface result (boxing allocates)
//
// The check is per-body: callees are not followed (annotate them too if
// they are on the same hot path). The AllocsPerRun tests remain the
// runtime ground truth; the analyzer catches the regression at review
// time instead of at bench time.
//
// Calls into the observability layer (repro/internal/obs) are exempt
// from the boxing checks: its fast-path methods are themselves
// annotated and pinned zero-alloc by the package's AllocsPerRun tests,
// so instrumentation left in hot paths (counter adds, span timers) is
// sanctioned by design — the package's own pins, not each call site,
// are accountable for keeping it free.
type noAlloc struct {
	diags []Diagnostic
}

func newNoAlloc() *noAlloc { return &noAlloc{} }

func (a *noAlloc) Rule() string { return "noalloc" }

func (a *noAlloc) Doc() string {
	return "allocating construct inside a function annotated //sdam:noalloc"
}

func (a *noAlloc) Diagnostics() []Diagnostic { return a.diags }

// noallocDirective is the annotation the analyzer looks for in a
// function's doc comment group.
const noallocDirective = "//sdam:noalloc"

func (a *noAlloc) Check(p *Pass) {
	pkg := p.Pkg
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isNoallocAnnotated(fd) {
				continue
			}
			a.checkFunc(pkg, fd)
		}
	}
}

// isNoallocAnnotated reports whether the function's doc group carries
// the //sdam:noalloc directive.
func isNoallocAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == noallocDirective {
			return true
		}
	}
	return false
}

func (a *noAlloc) flag(pkg *Package, pos token.Pos, fd *ast.FuncDecl, format string, args ...any) {
	a.diags = append(a.diags, Diagnostic{
		Pos:  pkg.Fset.Position(pos),
		Rule: "noalloc",
		Message: fmt.Sprintf("%s in %s, which is annotated //sdam:noalloc; hot paths must not allocate in steady state",
			fmt.Sprintf(format, args...), fd.Name.Name),
	})
}

func (a *noAlloc) checkFunc(pkg *Package, fd *ast.FuncDecl) {
	results := fd.Type.Results
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			a.flag(pkg, x.Pos(), fd, "function literal allocates its capture environment")
			return false // its body is the closure's problem
		case *ast.CallExpr:
			a.checkCall(pkg, fd, x)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, lit := ast.Unparen(x.X).(*ast.CompositeLit); lit {
					a.flag(pkg, x.Pos(), fd, "taking the address of a composite literal allocates")
				}
			}
		case *ast.CompositeLit:
			if t := pkg.Info.TypeOf(x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					a.flag(pkg, x.Pos(), fd, "slice literal allocates its backing array")
				case *types.Map:
					a.flag(pkg, x.Pos(), fd, "map literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(pkg.Info.TypeOf(x)) {
				a.flag(pkg, x.Pos(), fd, "string concatenation allocates the result")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(pkg.Info.TypeOf(x.Lhs[0])) {
				a.flag(pkg, x.Pos(), fd, "string += concatenation allocates the result")
			}
			a.checkAssignBoxing(pkg, fd, x)
		case *ast.ReturnStmt:
			a.checkReturnBoxing(pkg, fd, x, results)
		}
		return true
	})
}

// checkCall handles make/new/append, string conversions, and argument
// boxing for one call expression.
func (a *noAlloc) checkCall(pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr) {
	// Type conversions: string <-> []byte / []rune copy and allocate.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, pkg.Info.TypeOf(call.Args[0])
		if (isStringType(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isStringType(from)) {
			a.flag(pkg, call.Pos(), fd, "string/slice conversion copies and allocates")
		}
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := objOf(pkg, id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				a.flag(pkg, call.Pos(), fd, "make allocates")
			case "new":
				a.flag(pkg, call.Pos(), fd, "new allocates")
			case "append":
				a.flag(pkg, call.Pos(), fd, "append may grow and reallocate; preallocate the capacity (or justify a fixed-cap append with a lint:ignore)")
			}
			return
		}
	}
	a.checkArgBoxing(pkg, fd, call)
}

// obsPkgPath is the observability layer whose fast-path calls are
// sanctioned inside //sdam:noalloc functions (see the type comment).
const obsPkgPath = "repro/internal/obs"

// calleePkgPath resolves the package an explicitly named callee belongs
// to ("" for builtins, locals, and anonymous function values).
func calleePkgPath(pkg *Package, call *ast.CallExpr) string {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return ""
	}
	if obj := objOf(pkg, id); obj != nil && obj.Pkg() != nil {
		return obj.Pkg().Path()
	}
	return ""
}

// checkArgBoxing flags concrete values passed to interface-typed
// parameters: the conversion boxes the value on the heap.
func (a *noAlloc) checkArgBoxing(pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr) {
	if calleePkgPath(pkg, call) == obsPkgPath {
		return
	}
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params.Len() == 0 || call.Ellipsis != token.NoPos {
		return // f(xs...) passes the slice through, no per-arg boxing
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		} else {
			continue
		}
		if boxes(pt, pkg.Info.TypeOf(arg)) && !isConstExpr(pkg, arg) {
			a.flag(pkg, arg.Pos(), fd, "passing a concrete value to an interface-typed parameter boxes it on the heap")
		}
	}
}

// checkAssignBoxing flags assignments of concrete values into
// interface-typed locations.
func (a *noAlloc) checkAssignBoxing(pkg *Package, fd *ast.FuncDecl, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		if boxes(pkg.Info.TypeOf(as.Lhs[i]), pkg.Info.TypeOf(as.Rhs[i])) && !isConstExpr(pkg, as.Rhs[i]) {
			a.flag(pkg, as.Rhs[i].Pos(), fd, "assigning a concrete value to an interface-typed location boxes it on the heap")
		}
	}
}

// checkReturnBoxing flags concrete values returned as interface
// results.
func (a *noAlloc) checkReturnBoxing(pkg *Package, fd *ast.FuncDecl, ret *ast.ReturnStmt, results *ast.FieldList) {
	if results == nil {
		return
	}
	var resTypes []types.Type
	for _, f := range results.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		t := pkg.Info.TypeOf(f.Type)
		for k := 0; k < n; k++ {
			resTypes = append(resTypes, t)
		}
	}
	if len(ret.Results) != len(resTypes) {
		return // naked return or multi-value passthrough
	}
	for i, e := range ret.Results {
		if boxes(resTypes[i], pkg.Info.TypeOf(e)) && !isConstExpr(pkg, e) {
			a.flag(pkg, e.Pos(), fd, "returning a concrete value as an interface result boxes it on the heap")
		}
	}
}

// boxes reports whether storing a value of type from into a location of
// type to converts a concrete value to an interface — the allocation
// the escape analyzer rarely removes. Untyped nil and interface-to-
// interface moves are free.
func boxes(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	if _, iface := to.Underlying().(*types.Interface); !iface {
		return false
	}
	if _, iface := from.Underlying().(*types.Interface); iface {
		return false
	}
	if b, ok := from.Underlying().(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
		return false // untyped nil / constants the compiler folds
	}
	return true
}

// isConstExpr reports whether e is a compile-time constant; converting
// a constant to an interface produces static data, not a heap box.
func isConstExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.Value != nil
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
