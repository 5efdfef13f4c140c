package lint

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

// Package is one loaded, parsed and type-checked package.
type Package struct {
	Path  string // import path, e.g. "merlin/internal/campaign"
	Dir   string
	Name  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads module packages from source: it parses every non-test
// .go file, type-checks in dependency order with go/types, resolves
// intra-module imports itself and delegates the standard library to the
// source importer (importer.ForCompiler "source"), so the whole pass
// needs nothing beyond the Go distribution — no export data, no
// third-party loaders.
type Loader struct {
	Fset       *token.FileSet
	ModuleDir  string
	ModulePath string
	// ExtraRoots maps additional import-path prefixes to directories
	// (the fixture harness mounts testdata trees as "merlinvet.test/").
	ExtraRoots map[string]string

	std      types.ImporterFrom
	pkgs     map[string]*Package
	building map[string]bool
}

// NewLoader creates a loader rooted at the module directory, reading
// the module path from go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %s is not a module root: %w", moduleDir, err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", moduleDir)
	}
	// The source importer type-checks the standard library from GOROOT
	// source; with cgo disabled it takes the pure-Go fallback files
	// (netgo etc.), which is exactly what a static pass wants.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	return &Loader{
		Fset:       fset,
		ModuleDir:  moduleDir,
		ModulePath: modPath,
		std:        std,
		pkgs:       make(map[string]*Package),
		building:   make(map[string]bool),
	}, nil
}

// dirFor resolves an import path this loader owns to a directory, or ""
// when the path belongs to the standard library.
func (l *Loader) dirFor(path string) string {
	if path == l.ModulePath {
		return l.ModuleDir
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest))
	}
	for prefix, root := range l.ExtraRoots {
		if path == prefix {
			return root
		}
		if rest, ok := strings.CutPrefix(path, prefix+"/"); ok {
			return filepath.Join(root, filepath.FromSlash(rest))
		}
	}
	return ""
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module and fixture paths
// are loaded by this loader, everything else goes to the source
// importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if d := l.dirFor(path); d != "" {
		pkg, err := l.load(path, d)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// Load loads (or returns the cached) package at the given import path.
func (l *Loader) Load(path string) (*Package, error) {
	d := l.dirFor(path)
	if d == "" {
		return nil, fmt.Errorf("lint: %s is not a module package", path)
	}
	return l.load(path, d)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.building[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.building[path] = true
	defer delete(l.building, path)

	names, err := goSourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go source files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", filepath.Join(dir, name), err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-check %s: %v", path, typeErrs[0])
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Name:  tpkg.Name(),
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadAll loads every package in the module, in sorted import-path
// order. Directories named testdata (fixture trees holding deliberate
// violations), hidden directories and non-Go directories are skipped,
// matching the go tool's notion of the module's package set.
func (l *Loader) LoadAll() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := filepath.Base(p)
		if p != l.ModuleDir && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		names, err := goSourceFiles(p)
		if err != nil {
			return err
		}
		if len(names) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleDir, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.ModulePath)
		} else {
			paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(paths, func(i, j int) bool { return pathLess(paths[i], paths[j]) })
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// ModuleRoot walks up from dir to the directory holding go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// goSourceFiles lists the non-test Go files of dir in sorted order.
// Test files are out of scope by design: every invariant merlinvet
// enforces is about production and simulation paths, and clocks and
// unseeded randomness are fair game under test.
func goSourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
