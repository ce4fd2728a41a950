package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestAnalyzersOnFixtures runs each analyzer over its fixture package
// under testdata/src/<rule>/ and checks the findings against the
// `// want "substr"` comments: every want line must get at least one
// diagnostic containing the substring, and every diagnostic must land
// on a want line it matches. Suppressed violations carry a lint:ignore
// marker instead of a want and must stay silent — which exercises the
// suppression path end to end through Run.
func TestAnalyzersOnFixtures(t *testing.T) {
	for _, a := range Suite() {
		t.Run(a.Rule, func(t *testing.T) {
			runFixture(t, a, filepath.Join("testdata", "src", a.Rule))
		})
	}
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// TestUnusedSuppressionAudit runs the FULL suite over the unusedignore
// fixture: a lint:ignore that suppresses nothing must be reported under
// the unusedignore pseudo-rule, a working marker and a marker for a
// rule outside the active set must stay silent. This is the dedicated
// harness for the audit, since runFixture rejects any rule other than
// its analyzer's own.
func TestUnusedSuppressionAudit(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "unusedignore"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	wants := collectWants(pkg)
	diags := Run(Suite(), []*Package{pkg})
	matched := make(map[string]bool)
	for _, d := range diags {
		if d.Rule != UnusedIgnoreRule {
			t.Errorf("unexpected rule %q on the unusedignore fixture: %s", d.Rule, d)
			continue
		}
		ok := false
		for _, w := range wants[d.Pos.Line] {
			if strings.Contains(d.Message, w) {
				matched[wantKey(d.Pos.Line, w)] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for line, subs := range wants {
		for _, w := range subs {
			if !matched[wantKey(line, w)] {
				t.Errorf("unusedignore fixture line %d: expected a diagnostic containing %q, got none", line, w)
			}
		}
	}
}

// TestRepoCleanUnderFullSuite pins the acceptance bar the CI lint step
// enforces: the full suite over the whole module (what
// `go run ./cmd/sdamvet ./...` runs) reports nothing — zero false
// positives from the new rules and zero stale suppressions.
func TestRepoCleanUnderFullSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	l, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}
	for _, d := range Run(Suite(), pkgs) {
		t.Errorf("repo not clean: %s", d)
	}
}

func runFixture(t *testing.T, a Analyzer, dir string) {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	wants := collectWants(pkg)
	diags := Run([]Analyzer{a}, []*Package{pkg})

	matched := make(map[string]bool) // want key -> seen
	for _, d := range diags {
		if d.Rule != a.Rule {
			t.Errorf("unexpected rule %q from analyzer %q", d.Rule, a.Rule)
			continue
		}
		ok := false
		for _, w := range wants[d.Pos.Line] {
			if strings.Contains(d.Message, w) {
				matched[wantKey(d.Pos.Line, w)] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for line, subs := range wants {
		for _, w := range subs {
			if !matched[wantKey(line, w)] {
				t.Errorf("%s:%d: expected a %s diagnostic containing %q, got none",
					dir, line, a.Rule, w)
			}
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("diagnostic: %s", d)
		}
	}
}

func wantKey(line int, sub string) string { return fmt.Sprintf("%d:%s", line, sub) }

// collectWants maps fixture line numbers to their expected message
// substrings.
func collectWants(pkg *Package) map[int][]string {
	wants := make(map[int][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				wants[line] = append(wants[line], m[1])
			}
		}
	}
	return wants
}

// TestSuppressionPlacement pins the two sanctioned marker positions:
// same line and line above.
func TestSuppressionPlacement(t *testing.T) {
	diags := []Diagnostic{
		{Pos: pos("f.go", 10), Rule: "maporder"},
		{Pos: pos("f.go", 20), Rule: "maporder"},
		{Pos: pos("f.go", 30), Rule: "maporder"},
		{Pos: pos("f.go", 30), Rule: "seededrand"},
	}
	sup := suppressions{"f.go": {
		10: {{rule: "maporder"}},   // same line
		19: {{rule: "maporder"}},   // line above
		30: {{rule: "seededrand"}}, // different rule: maporder at 30 survives
	}}
	out := filterSuppressed(diags, sup)
	if len(out) != 1 || out[0].Rule != "maporder" || out[0].Pos.Line != 30 {
		t.Fatalf("suppression filtering: got %v, want only maporder at line 30", out)
	}
	for file, lines := range sup {
		for line, entries := range lines {
			for _, e := range entries {
				if !e.used {
					t.Errorf("%s:%d: matched suppression for %s not marked used", file, line, e.rule)
				}
			}
		}
	}
}

func pos(file string, line int) (p token.Position) {
	p.Filename = file
	p.Line = line
	return p
}

// TestParseIgnore pins the marker grammar.
func TestParseIgnore(t *testing.T) {
	cases := []struct {
		in    string
		rules []string
	}{
		{"//lint:ignore sdamvet/maporder reason", []string{"maporder"}},
		{"// lint:ignore sdamvet/maporder,sdamvet/seededrand why", []string{"maporder", "seededrand"}},
		{"// just a comment", nil},
		{"//lint:ignore", nil},
	}
	for _, c := range cases {
		got, ok := parseIgnore(c.in)
		if ok != (c.rules != nil) || strings.Join(got, ",") != strings.Join(c.rules, ",") {
			t.Errorf("parseIgnore(%q) = %v, %v; want %v", c.in, got, ok, c.rules)
		}
	}
}

// TestExpandPatterns checks the go-tool-style pattern semantics the
// driver relies on: testdata is skipped, non-recursive patterns resolve
// to one directory.
func TestExpandPatterns(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := l.ExpandPatterns([]string{"./internal/analysis/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("ExpandPatterns descended into testdata: %s", d)
		}
	}
	if len(dirs) != 1 {
		t.Errorf("expected exactly the analysis package itself, got %v", dirs)
	}
}

// Ensure fixture files actually parse as part of the build sanity: the
// loader must see every fixture file (guards against a typo silently
// emptying a fixture).
func TestFixturesNonEmpty(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Suite() {
		pkg, err := l.LoadDir(filepath.Join("testdata", "src", a.Rule))
		if err != nil {
			t.Fatalf("fixture for %s: %v", a.Rule, err)
		}
		decls := 0
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if _, ok := d.(*ast.FuncDecl); ok {
					decls++
				}
			}
		}
		if decls == 0 {
			t.Errorf("fixture for %s has no function declarations", a.Rule)
		}
	}
}
