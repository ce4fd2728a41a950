// Package analysis is sdamvet's static-analysis engine: a stdlib-only
// (go/ast + go/parser + go/types, no go/packages) suite of analyzers
// targeting the determinism and concurrency bug classes this repository
// has actually shipped — map-iteration-order nondeterminism reaching
// results (the PR-1 DL-selector modal-VID bug), unseeded or wall-clock
// randomness inside deterministic simulation paths, and parallel.Map
// thunks that write state no cell owns.
//
// The engine type-checks every package it analyzes, resolving
// module-local imports recursively from source (see Loader), so the
// analyzers see real types.Info rather than syntax heuristics.
// Diagnostics carry a stable rule ID and cannot be suppressed: a rule's
// sanctioned exceptions live in the rule itself (seededrand skips
// internal/wallclock, slotwrite skips internal/parallel).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Rule    string // short rule ID, e.g. "maporder"
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: sdamvet/%s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one rule. Check inspects one type-checked package and
// returns its findings; it keeps no state between calls, so one
// Analyzer serves any number of packages and runs.
type Analyzer struct {
	Rule  string // short rule ID, e.g. "maporder"
	Doc   string
	Check func(pkg *Package) []Diagnostic
}

// Suite returns the full rule suite, in reporting order.
func Suite() []Analyzer {
	return []Analyzer{
		mapOrderAnalyzer,
		seededRandAnalyzer,
		slotWriteAnalyzer,
		noAllocAnalyzer,
		pkgDocAnalyzer,
	}
}

// Run checks every loaded package with every analyzer and returns the
// diagnostics sorted by position then rule.
func Run(analyzers []Analyzer, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, p := range pkgs {
		for _, a := range analyzers {
			diags = append(diags, a.Check(p)...)
		}
	}
	sortDiagnostics(diags)
	return dedupDiagnostics(diags)
}

// dedupDiagnostics drops exact duplicates from a sorted slice, so an
// analyzer that reaches one finding along two paths reports it once.
func dedupDiagnostics(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// sortDiagnostics orders findings by file, line, column, rule — the
// stable output order the driver prints and the tests assert on.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// rootIdent unwraps selector/index/slice/star/paren chains to the
// identifier at the base of an lvalue or value expression:
// a.b[i].c -> a. It returns nil for expressions with no identifier root
// (calls, literals, ...).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// hasIndexLink reports whether the lvalue chain of e passes through an
// index expression (m[k] = v, s[i].f = v): element writes keyed by the
// loop variable are order-insensitive, unlike writes to a fixed
// location.
func hasIndexLink(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr, *ast.IndexListExpr:
			return true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}
