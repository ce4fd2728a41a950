package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	Path  string // import path ("repro/internal/cmt")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files only, in filename order
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages without go/packages: imports
// inside the module resolve recursively from source through the loader
// itself, everything else (the standard library) resolves through the
// go/importer source importer. One Loader shares a single FileSet and a
// single type universe, so each module package is type-checked once,
// however many analyzed packages import it.
type Loader struct {
	ModulePath string
	ModuleDir  string
	Fset       *token.FileSet

	std  types.ImporterFrom
	pkgs map[string]*Package // by import path
	errs []error
}

// NewLoader creates a loader rooted at the module containing dir: the
// nearest parent directory with a go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := modulePath(string(data))
	if mod == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	l := &Loader{ModulePath: mod, ModuleDir: root, Fset: fset, pkgs: make(map[string]*Package)}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// modulePath extracts the module path from go.mod content.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleDir, 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths load
// (recursively) from source via the loader, all others delegate to the
// standard-library source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if local, ok := l.dirFor(path); ok {
		p, err := l.LoadDir(local)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// dirFor maps a module-local import path to its directory.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.ModulePath {
		return l.ModuleDir, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), true
	}
	return "", false
}

// pathFor maps a directory to its import path. Directories outside the
// module (analyzer test fixtures) get a synthetic rooted path so they
// can still be cached and cross-referenced.
func (l *Loader) pathFor(dir string) string {
	if rel, err := filepath.Rel(l.ModuleDir, dir); err == nil && !strings.HasPrefix(rel, "..") {
		if rel == "." {
			return l.ModulePath
		}
		return l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return "fixture/" + filepath.ToSlash(dir)
}

// LoadDir parses and type-checks the package in dir (non-test files
// only), returning the cached result on repeat loads.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := l.pathFor(abs)
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil // cycle guard

	names, err := goSources(abs)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", abs)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: abs, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// goSources lists the non-test Go files of dir in sorted order,
// honoring build constraints (//go:build lines and GOOS/GOARCH file
// suffixes) for the host platform exactly like the go tool — otherwise
// a package with per-architecture variants of one declaration would
// type-check as a redeclaration.
func goSources(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ExpandPatterns resolves go-tool style package patterns ("./...",
// "./internal/...", "./cmd/sdamvet") relative to the module root into
// the sorted list of package directories, skipping testdata, vendor,
// and hidden directories exactly like the go tool does.
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) error {
		names, err := goSources(dir)
		if err != nil {
			return err
		}
		if len(names) == 0 || seen[dir] {
			return nil
		}
		seen[dir] = true
		dirs = append(dirs, dir)
		return nil
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(l.ModuleDir, filepath.FromSlash(pat))
		}
		st, err := os.Stat(root)
		if err != nil {
			return nil, fmt.Errorf("analysis: pattern %q: %w", pat, err)
		}
		if !st.IsDir() {
			return nil, fmt.Errorf("analysis: pattern %q is not a directory", pat)
		}
		if !recursive {
			if err := add(root); err != nil {
				return nil, err
			}
			continue
		}
		err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor" || name == "node_modules") {
				return filepath.SkipDir
			}
			return add(p)
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// LoadPatterns expands patterns and loads every matched package.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	dirs, err := l.ExpandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
