package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// tapeMut implements sdamvet/tapemut: the read-only sharing contract
// for reference tapes. tape.Tape and tape.Sealed hold the flat
// recorded columns (off/slot/write-bitset/stray + stream starts) that
// every sweep cell replays concurrently through the tape cache — one
// writer anywhere and the bit-identity guarantee (and the race
// detector) goes with it. Once Record returns, a tape is immutable;
// only internal/tape itself may store through one.
//
// The analyzer flags, outside internal/tape, any assignment whose
// lvalue reaches through a Tape or Sealed value: *t = tape.Tape{}
// whole-value overwrites, stores into fields or columns reached via a
// tape (the columns are unexported, so a same-module offender would be
// in a future tape helper or a reflect-free unsafe trick routed through
// an embedded value), and taking a tape's address only to assign
// through it. Reads are unrestricted — sharing them is the point.
type tapeMut struct {
	diags []Diagnostic
}

func newTapeMut() *tapeMut { return &tapeMut{} }

func (t *tapeMut) Rule() string { return "tapemut" }

func (t *tapeMut) Doc() string {
	return "store through a tape.Tape/tape.Sealed value outside internal/tape; sealed tapes are shared read-only across sweep cells"
}

func (t *tapeMut) Diagnostics() []Diagnostic { return t.diags }

func (t *tapeMut) Check(p *Pass) {
	pkg := p.Pkg
	if strings.HasSuffix(pkg.Path, "internal/tape") {
		return
	}
	tapeTypes := tapeNamedTypes(pkg)
	if len(tapeTypes) == 0 {
		return
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range x.Lhs {
					t.checkLvalue(pkg, lhs, tapeTypes)
				}
			case *ast.IncDecStmt:
				t.checkLvalue(pkg, x.X, tapeTypes)
			}
			return true
		})
	}
}

func (t *tapeMut) checkLvalue(pkg *Package, lhs ast.Expr, tapeTypes []types.Type) {
	name, hit := tapeInChain(pkg, lhs, tapeTypes)
	if !hit {
		return
	}
	t.diags = append(t.diags, Diagnostic{
		Pos:     pkg.Fset.Position(lhs.Pos()),
		Rule:    "tapemut",
		Message: fmt.Sprintf("store through %s outside internal/tape; sealed tapes are shared read-only across sweep cells — record a new tape instead of mutating one", name),
	})
}

// tapeInChain reports whether the store actually reaches INTO a tape:
// the lvalue is itself a tape value (t = tape.Tape{}, tapes[i] = ...,
// s.tp = ...), or the chain dereferences/selects/indexes through a tape
// or tape pointer (*t = ..., t.col[i] = ...). Rebinding a plain *Tape
// pointer variable (p = other) stores the pointer, not the tape, and is
// deliberately not flagged.
func tapeInChain(pkg *Package, e ast.Expr, tapeTypes []types.Type) (string, bool) {
	if name, ok := isTapeType(pkg.Info.TypeOf(e), tapeTypes, false); ok {
		return name, true
	}
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if name, ok := isTapeType(pkg.Info.TypeOf(x.X), tapeTypes, true); ok {
				return name, true
			}
			e = x.X
		case *ast.IndexExpr:
			if name, ok := isTapeType(pkg.Info.TypeOf(x.X), tapeTypes, true); ok {
				return name, true
			}
			e = x.X
		case *ast.SliceExpr:
			if name, ok := isTapeType(pkg.Info.TypeOf(x.X), tapeTypes, true); ok {
				return name, true
			}
			e = x.X
		case *ast.StarExpr:
			if name, ok := isTapeType(pkg.Info.TypeOf(x.X), tapeTypes, true); ok {
				return name, true
			}
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return "", false
		}
	}
}

// isTapeType reports whether typ is one of the tape named types —
// optionally accepting a pointer to one, for positions where the chain
// derefs — and returns the qualified name for the message.
func isTapeType(typ types.Type, tapeTypes []types.Type, allowPointer bool) (string, bool) {
	if typ == nil {
		return "", false
	}
	if p, ok := typ.Underlying().(*types.Pointer); ok {
		if !allowPointer {
			return "", false
		}
		typ = p.Elem()
	}
	for _, tt := range tapeTypes {
		if types.Identical(typ, tt) {
			if named, ok := tt.(*types.Named); ok {
				return "tape." + named.Obj().Name(), true
			}
			return typ.String(), true
		}
	}
	return "", false
}

// tapeNamedTypes resolves tape.Tape and tape.Sealed from the analyzed
// package's imports; a package that does not import tape has nothing
// tape-typed to mutate.
func tapeNamedTypes(pkg *Package) []types.Type {
	var out []types.Type
	for _, imp := range pkg.Types.Imports() {
		if !strings.HasSuffix(imp.Path(), "internal/tape") {
			continue
		}
		for _, name := range []string{"Tape", "Sealed"} {
			if obj, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
				out = append(out, obj.Type())
			}
		}
		break
	}
	return out
}
