package analysis

import (
	"go/ast"
	"strings"
)

// pkgDocAnalyzer implements sdamvet/pkgdoc: every package must carry a
// package-level doc comment ("// Package <name> ..." on a library,
// "// Command <name> ..." on a main package) so `go doc` gives a usable
// overview. The repository documents each of its internal packages this
// way (docs/ARCHITECTURE.md is generated against that expectation); the
// rule keeps a newly added package from shipping undocumented.
//
// The rule is deliberately lightweight: any doc comment group attached
// to a package clause satisfies it — wording is for review, not the
// linter — and one documented file carries the whole package (the Go
// convention: a single doc.go or the package's principal file).
var pkgDocAnalyzer = Analyzer{
	Rule:  "pkgdoc",
	Doc:   "package has no package-level doc comment",
	Check: checkPkgDoc,
}

func checkPkgDoc(pkg *Package) []Diagnostic {
	if len(pkg.Files) == 0 {
		return nil
	}
	var name string
	for _, f := range pkg.Files {
		name = f.Name.Name
		if hasPackageDoc(f) {
			return nil
		}
	}
	// Report at the package clause of the first file (Files is in
	// filename order), the conventional place to add the comment.
	first := pkg.Files[0]
	return []Diagnostic{{
		Pos:  pkg.Fset.Position(first.Name.Pos()),
		Rule: "pkgdoc",
		Message: "package " + name + " has no package-level doc comment; document it in one file (// Package " +
			name + " ...) so go doc gives an overview",
	}}
}

// hasPackageDoc reports whether the file's package clause carries a
// non-empty doc comment. Build-constraint-only groups (//go:build) do
// not count: the parser attaches them as Doc when nothing else
// intervenes, but they document the build, not the package.
func hasPackageDoc(f *ast.File) bool {
	if f.Doc == nil {
		return false
	}
	for _, c := range f.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if strings.HasPrefix(c.Text, "/*") {
			text = strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(c.Text, "/*"), "*/"))
		}
		if text == "" || strings.HasPrefix(text, "go:build") || strings.HasPrefix(text, "+build") {
			continue
		}
		return true
	}
	return false
}
