package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// cloneSafety implements sdamvet/clonesafety: a workload (or other
// shared pointer) captured by a parallel.Map / parallel.MapN /
// parallel.Do thunk and used in a way that mutates it concurrently.
//
// Workload.Setup records the run's allocations on the workload value,
// so two sweep cells running the same captured workload race on that
// state and — worse — silently share allocation records, skewing
// results without crashing. The sanctioned idiom is w.Clone(): clone
// per cell, inside the thunk. The analyzer flags, inside a thunk
// literal passed to the parallel package:
//
//   - writes through variables captured from the enclosing function
//     (assignment or ++/-- whose target is declared outside the thunk),
//     except element writes keyed by an index (out[i] = …), which are
//     the intended way to collect per-cell results; and
//
//   - captured values of a workload type (implementing
//     workload.Workload) passed as a call argument or used as a method
//     receiver — given to code that may mutate them — unless the call
//     is the Clone() itself.
//
// The parallel package's own internals are exempt: it is the one place
// allowed to coordinate shared state (it owns the WaitGroup and the
// results slice).
type cloneSafety struct {
	diags []Diagnostic
}

func newCloneSafety() *cloneSafety { return &cloneSafety{} }

func (c *cloneSafety) Rule() string { return "clonesafety" }

func (c *cloneSafety) Doc() string {
	return "shared state captured and mutated inside a parallel.Map/MapN/Do thunk without cloning"
}

func (c *cloneSafety) Diagnostics() []Diagnostic { return c.diags }

func (c *cloneSafety) Check(p *Pass) {
	pkg := p.Pkg
	if strings.HasSuffix(pkg.Path, "internal/parallel") {
		return
	}
	wl := workloadInterface(pkg)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, th := range parallelThunks(pkg, call) {
				if lit, ok := ast.Unparen(th).(*ast.FuncLit); ok {
					c.checkThunk(pkg, lit, wl)
				}
			}
			return true
		})
	}
}

// parallelThunks returns the function-valued arguments of a call into
// the parallel package, or nil if call is something else.
func parallelThunks(pkg *Package, call *ast.CallExpr) []ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	var fn *types.Func
	switch o := pkg.Info.Uses[sel.Sel].(type) {
	case *types.Func:
		fn = o
	default:
		return nil
	}
	if fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/parallel") {
		return nil
	}
	switch fn.Name() {
	case "Map":
		if len(call.Args) >= 2 {
			return call.Args[1:2]
		}
	case "MapN":
		if len(call.Args) >= 3 {
			return call.Args[2:3]
		}
	case "Do":
		return call.Args
	}
	return nil
}

// checkThunk inspects one thunk literal for unsafe uses of captured
// state.
func (c *cloneSafety) checkThunk(pkg *Package, lit *ast.FuncLit, wl *types.Interface) {
	captured := func(id *ast.Ident) *types.Var {
		obj, _ := pkg.Info.Uses[id].(*types.Var)
		if obj == nil || obj.IsField() || obj.Pkg() == nil {
			return nil
		}
		// Declared outside the thunk's span (and not package-level
		// constants/config, which writes below still catch) => captured.
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return nil
		}
		return obj
	}
	flagWrite := func(target ast.Expr) {
		if hasIndexLink(target) {
			return // out[i] = … — per-cell element write, the intended idiom
		}
		root := rootIdent(target)
		if root == nil {
			return
		}
		if obj := captured(root); obj != nil {
			c.diags = append(c.diags, Diagnostic{
				Pos:  pkg.Fset.Position(target.Pos()),
				Rule: "clonesafety",
				Message: fmt.Sprintf("write to %q captured from the enclosing function inside a parallel thunk; cells race on it — keep per-cell state local (or clone via w.Clone())",
					root.Name),
			})
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range s.Lhs {
				flagWrite(lhs)
			}
		case *ast.IncDecStmt:
			flagWrite(s.X)
		case *ast.CallExpr:
			c.checkCall(pkg, s, wl, captured)
		}
		return true
	})
}

// checkCall flags captured workload-typed values handed to a call
// inside the thunk — as an argument or as the method receiver — since
// the callee may run Setup on them; the Clone() call itself is the
// sanctioned exception.
func (c *cloneSafety) checkCall(pkg *Package, call *ast.CallExpr, wl *types.Interface, captured func(*ast.Ident) *types.Var) {
	if wl == nil || isCloneCall(call) {
		return
	}
	flagUse := func(e ast.Expr) {
		root := rootIdent(ast.Unparen(e))
		if root == nil {
			return
		}
		obj := captured(root)
		if obj == nil {
			return
		}
		tv, ok := pkg.Info.Types[e]
		if !ok || !(types.Implements(tv.Type, wl) || types.Implements(types.NewPointer(tv.Type), wl)) {
			return
		}
		c.diags = append(c.diags, Diagnostic{
			Pos:  pkg.Fset.Position(e.Pos()),
			Rule: "clonesafety",
			Message: fmt.Sprintf("workload %q captured from the enclosing function is used by a call inside a parallel thunk; Setup mutates workloads, so concurrent cells must each use their own copy — clone via w.Clone() inside the thunk first",
				root.Name),
		})
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		flagUse(sel.X) // method receiver: w.Setup(env)
	}
	for _, arg := range call.Args {
		flagUse(arg)
	}
}

// isCloneCall reports whether call is itself the sanctioned cloning
// operation: a method named Clone.
func isCloneCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Clone"
}

// workloadInterface resolves workload.Workload from the analyzed
// package's imports, or nil if the package does not import workload
// (then there is nothing workload-typed to misuse).
func workloadInterface(pkg *Package) *types.Interface {
	for _, imp := range pkg.Types.Imports() {
		if !strings.HasSuffix(imp.Path(), "internal/workload") {
			continue
		}
		if obj, ok := imp.Scope().Lookup("Workload").(*types.TypeName); ok {
			iface, _ := obj.Type().Underlying().(*types.Interface)
			return iface
		}
		return nil
	}
	return nil
}
