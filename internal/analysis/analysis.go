// Package analysis is sdamvet's static-analysis engine: a stdlib-only
// (go/ast + go/parser + go/types, no go/packages) suite of analyzers
// targeting the determinism and concurrency bug classes this repository
// has actually shipped — map-iteration-order nondeterminism reaching
// results (the PR-1 DL-selector modal-VID bug), unseeded or wall-clock
// randomness inside deterministic simulation paths, struct fields
// accessed both atomically and plainly (the cmt.Table.Reads race), and
// shared workloads mutated inside parallel.Map thunks without going
// through workload.Cloner.
//
// The engine type-checks every package it analyzes, resolving
// module-local imports recursively from source (see Loader), so the
// analyzers see real types.Info rather than syntax heuristics.
// Diagnostics carry a stable rule ID and can be suppressed with a
// trailing or preceding comment:
//
//	//lint:ignore sdamvet/<rule> reason
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
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

// Analyzer is one rule. Check is called once per analyzed package (in a
// deterministic package order); Diagnostics is called once after every
// package has been checked, so analyzers that need cross-package state
// (atomicmix) can aggregate before reporting.
type Analyzer interface {
	Rule() string
	Doc() string
	Check(p *Pass)
	Diagnostics() []Diagnostic
}

// NewAnalyzers returns fresh instances of the full suite, in reporting
// order. Instances are stateful and must not be reused across runs.
func NewAnalyzers() []Analyzer {
	return []Analyzer{
		newMapOrder(),
		newSeededRand(),
		newAtomicMix(),
		newCloneSafety(),
		newSlotWrite(),
		newNoAlloc(),
		newTapeMut(),
		newPkgDoc(),
	}
}

// UnusedIgnoreRule is the pseudo-rule under which the suite reports
// stale //lint:ignore comments — suppressions that no active analyzer's
// diagnostic matched, which after a refactor silently stop documenting
// anything true.
const UnusedIgnoreRule = "unusedignore"

// Run checks every loaded package with every analyzer and returns the
// surviving (non-suppressed) diagnostics sorted by position then rule.
// Suppressions that matched nothing are reported under UnusedIgnoreRule,
// but only for rules present in the active analyzer set: an ignore for a
// rule that was filtered out this run (-rules, or a single-analyzer
// fixture pass) is not stale, just out of scope.
func Run(analyzers []Analyzer, pkgs []*Package) []Diagnostic {
	for _, p := range pkgs {
		pass := &Pass{Pkg: p}
		for _, a := range analyzers {
			a.Check(pass)
		}
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		diags = append(diags, a.Diagnostics()...)
	}
	sup := collectSuppressions(pkgs)
	diags = filterSuppressed(diags, sup)
	active := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		active[a.Rule()] = true
	}
	diags = append(diags, unusedSuppressions(sup, active)...)
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

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Pkg *Package
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

// supEntry is one rule named by one //lint:ignore comment, with the
// comment's position (for stale-suppression reporting) and whether any
// diagnostic actually matched it this run.
type supEntry struct {
	rule string
	pos  token.Position
	used bool
}

// suppressions maps file -> comment line -> the entries registered
// there. Entries are pointers so filterSuppressed can mark usage in
// place and unusedSuppressions can audit what remains.
type suppressions map[string]map[int][]*supEntry

// collectSuppressions scans a package's comments for
// "//lint:ignore sdamvet/<rule>[,sdamvet/<rule>...] reason" markers. A
// marker suppresses matching diagnostics on its own line and on the
// line directly below (so it can trail the offending statement or sit
// on its own line above it).
func collectSuppressions(pkgs []*Package) suppressions {
	sup := make(suppressions)
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rules, ok := parseIgnore(c.Text)
					if !ok {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					if sup[pos.Filename] == nil {
						sup[pos.Filename] = make(map[int][]*supEntry)
					}
					for _, r := range rules {
						sup[pos.Filename][pos.Line] = append(sup[pos.Filename][pos.Line],
							&supEntry{rule: r, pos: pos})
					}
				}
			}
		}
	}
	return sup
}

// unusedSuppressions reports every collected ignore marker no
// diagnostic matched, restricted to rules in the active set. The map
// ranges make collection order nondeterministic, so the result is
// sorted before returning.
func unusedSuppressions(sup suppressions, active map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, lines := range sup {
		for _, entries := range lines {
			for _, e := range entries {
				if e.used || !active[e.rule] {
					continue
				}
				diags = append(diags, Diagnostic{
					Pos:     e.pos,
					Rule:    UnusedIgnoreRule,
					Message: fmt.Sprintf("lint:ignore sdamvet/%s suppresses nothing; the finding it once justified is gone — delete the stale comment", e.rule),
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return diags
}

// parseIgnore extracts the rule IDs from one comment, if it is an
// ignore marker.
func parseIgnore(text string) ([]string, bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "lint:ignore") {
		return nil, false
	}
	fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
	if len(fields) == 0 {
		return nil, false
	}
	var rules []string
	for _, r := range strings.Split(fields[0], ",") {
		r = strings.TrimPrefix(r, "sdamvet/")
		if r != "" {
			rules = append(rules, r)
		}
	}
	return rules, len(rules) > 0
}

func filterSuppressed(diags []Diagnostic, sup suppressions) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		lines := sup[d.Pos.Filename]
		if markUsed(lines[d.Pos.Line], d.Rule) || markUsed(lines[d.Pos.Line-1], d.Rule) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// markUsed flags every entry matching rule as used and reports whether
// any matched.
func markUsed(entries []*supEntry, rule string) bool {
	matched := false
	for _, e := range entries {
		if e.rule == rule {
			e.used = true
			matched = true
		}
	}
	return matched
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
