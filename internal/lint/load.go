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
	"slices"
	"sort"
	"strings"
)

// Package bundles everything needed to analyze one package.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	loader *Loader
}

// Loader typechecks packages of a single Go module from source, resolving
// module-internal imports by directory and standard-library imports through
// the compiler's source importer. It exists so neurdb-lint can run over the
// module (`neurdb-lint ./...`) and so analyzer tests can load fixture modules
// — without golang.org/x/tools/go/packages, which this module deliberately
// does not depend on.
type Loader struct {
	// Root is the module root directory (the one containing go.mod).
	Root string
	// Module is the module path from go.mod (e.g. "neurdb").
	Module string

	fset   *token.FileSet
	stdlib types.Importer
	cache  map[string]*Package
	// loading guards against import cycles.
	loading map[string]bool
	// reach is the module-wide reference index, built on first use.
	reach *reachIndex
}

// NewLoader returns a loader for the module rooted at dir, reading the
// module path from its go.mod.
func NewLoader(dir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: loader: %w", err)
	}
	mod := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			mod = strings.TrimSpace(rest)
			break
		}
	}
	if mod == "" {
		return nil, fmt.Errorf("lint: loader: no module directive in %s/go.mod", dir)
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:    dir,
		Module:  mod,
		fset:    fset,
		stdlib:  importer.ForCompiler(fset, "source", nil),
		cache:   make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.Module {
		return l.Root
	}
	rel := strings.TrimPrefix(path, l.Module+"/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

// goFiles lists the .go files of dir that match the current build context
// (so files behind build tags like `invariants` are filtered the same way
// `go build` filters them): the _test.go files when tests is set, the
// others otherwise.
func (l *Loader) goFiles(dir string, tests bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests {
			continue
		}
		match, err := ctx.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if match {
			files = append(files, filepath.Join(dir, name))
		}
	}
	sort.Strings(files)
	return files, nil
}

// parseFiles parses the named files with comments (analyzers read
// directives and `// want` annotations from them).
func (l *Loader) parseFiles(names []string) ([]*ast.File, error) {
	var asts []*ast.File
	for _, name := range names {
		af, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, af)
	}
	return asts, nil
}

// check typechecks files as the package at path, resolving imports through
// imp.
func (l *Loader) check(path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	return &Package{Fset: l.fset, Files: files, Pkg: tpkg, Info: info, loader: l}, nil
}

// Import implements types.Importer: stdlib paths go to the source importer,
// module-internal paths are loaded recursively.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return l.stdlib.Import(path)
}

// Load parses and typechecks the non-test files of the package at the given
// module-internal import path, memoized.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	names, err := l.goFiles(dir, false)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: %s: no Go files in %s", path, dir)
	}
	files, err := l.parseFiles(names)
	if err != nil {
		return nil, err
	}
	p, err := l.check(path, files, l)
	if err != nil {
		return nil, err
	}
	l.cache[path] = p
	return p, nil
}

// LoadTests typechecks the test variants of the package at path, as `go
// test` builds them: the package together with its in-package _test.go
// files, and the external "path_test" package, which imports that variant
// as path and every package that depends on path rebuilt against it. Each
// returned Package's Files are only its _test.go files — the production
// files are typechecked alongside but analyzed through Load's package. A
// package without test files has no variants.
func (l *Loader) LoadTests(path string) ([]*Package, error) {
	pkg, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	names, err := l.goFiles(l.dirFor(path), true)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	files, err := l.parseFiles(names)
	if err != nil {
		return nil, err
	}
	var internal, external []*ast.File
	for _, f := range files {
		if strings.HasSuffix(f.Name.Name, "_test") {
			external = append(external, f)
		} else {
			internal = append(internal, f)
		}
	}
	var out []*Package
	variant := pkg
	if len(internal) > 0 {
		all := append(append([]*ast.File(nil), pkg.Files...), internal...)
		if variant, err = l.check(path, all, l); err != nil {
			return nil, err
		}
		variant.Files = internal
		out = append(out, variant)
	}
	if len(external) > 0 {
		imp := l
		if variant != pkg {
			imp = l.withVariant(path, variant)
		}
		x, err := l.check(path+"_test", external, imp)
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

// withVariant returns a loader on which path resolves to its test variant.
// A package that imports path, directly or not, is typechecked afresh
// against the variant, as `go test` rebuilds it; every other package this
// loader has already checked is shared, so the variant and the packages
// rebuilt on it agree on the types they have in common.
func (l *Loader) withVariant(path string, variant *Package) *Loader {
	v := &Loader{
		Root:    l.Root,
		Module:  l.Module,
		fset:    l.fset,
		stdlib:  l.stdlib,
		cache:   map[string]*Package{path: variant},
		loading: make(map[string]bool),
	}
	dependent := map[*types.Package]bool{l.cache[path].Pkg: true}
	var dependsOnPath func(p *types.Package) bool
	dependsOnPath = func(p *types.Package) bool {
		d, ok := dependent[p]
		if !ok {
			d = slices.ContainsFunc(p.Imports(), dependsOnPath)
			dependent[p] = d
		}
		return d
	}
	for p, pkg := range l.cache {
		if !dependsOnPath(pkg.Pkg) {
			v.cache[p] = pkg
		}
	}
	return v
}

// Walk returns the import paths of every package under the module root, in
// lexical order, skipping testdata, hidden directories, and directories with
// no buildable non-test Go files.
func (l *Loader) Walk() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := l.goFiles(path, false)
		if err != nil || len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.Root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.Module)
		} else {
			paths = append(paths, l.Module+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
