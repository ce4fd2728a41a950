package analysis

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestAnalyzersOnFixtures runs each analyzer over its fixture packages
// under testdata/src/<rule>/ (the directory and every package below it)
// and checks the findings against the `// want "substr"` comments:
// every want line must get at least one diagnostic containing the
// substring, and every diagnostic must land on a want line it matches.
// seededrand's fixture nests a package under internal/wallclock, whose
// host-clock reads carry no want and so must stay silent.
func TestAnalyzersOnFixtures(t *testing.T) {
	for _, a := range Suite() {
		t.Run(a.Rule, func(t *testing.T) {
			runFixture(t, a, filepath.Join("testdata", "src", a.Rule))
		})
	}
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// TestRepoCleanUnderFullSuite pins the acceptance bar the CI lint step
// enforces: the full suite over the whole module (what
// `go run ./cmd/sdamvet ./...` runs) reports nothing — zero false
// positives from any rule.
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
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPatterns([]string{abs + "/..."})
	if err != nil {
		t.Fatalf("LoadPatterns(%s): %v", dir, err)
	}
	wants := collectWants(pkgs)
	diags := Run([]Analyzer{a}, pkgs)

	matched := make(map[string]bool) // want key -> seen
	for _, d := range diags {
		if d.Rule != a.Rule {
			t.Errorf("unexpected rule %q from analyzer %q", d.Rule, a.Rule)
			continue
		}
		at := lineKey(d.Pos.Filename, d.Pos.Line)
		ok := false
		for _, w := range wants[at] {
			if strings.Contains(d.Message, w) {
				matched[at+":"+w] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for at, subs := range wants {
		for _, w := range subs {
			if !matched[at+":"+w] {
				t.Errorf("%s: expected a %s diagnostic containing %q, got none", at, a.Rule, w)
			}
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("diagnostic: %s", d)
		}
	}
}

func lineKey(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

// collectWants maps fixture file:line positions to their expected
// message substrings.
func collectWants(pkgs []*Package) map[string][]string {
	wants := make(map[string][]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					p := pkg.Fset.Position(c.Pos())
					at := lineKey(p.Filename, p.Line)
					wants[at] = append(wants[at], m[1])
				}
			}
		}
	}
	return wants
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
