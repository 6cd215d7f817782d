package lint_test

import (
	"go/build"
	"os"
	"path/filepath"
	"testing"

	"neurdb/internal/lint"
)

// writeModule materializes a throwaway module under t.TempDir so loader
// behavior can be probed without touching the real tree or the fixture
// module. files maps module-relative paths to contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoaderBuildTagFiltering: the loader must filter files through the
// build context exactly like `go build` — a file behind `//go:build
// invariants` is invisible by default and visible when the tag is set.
// The invariants tag is the one that matters in this repo: runtime
// assertions live behind it, and the loader picking up the wrong half (or
// both halves, a redeclaration error) would make lint runs diverge from the
// build.
func TestLoaderBuildTagFiltering(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":  "module tagmod\n\ngo 1.22\n",
		"base.go": "package tagmod\n\nfunc Arm() bool { return armed }\n",
		"inv_on.go": "//go:build invariants\n\npackage tagmod\n\n" +
			"const armed = true\nconst invariantsBuild = true\n",
		"inv_off.go": "//go:build !invariants\n\npackage tagmod\n\n" +
			"const armed = false\n",
	})

	load := func(t *testing.T) *lint.Package {
		t.Helper()
		l, err := lint.NewLoader(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := l.Load("tagmod")
		if err != nil {
			t.Fatal(err)
		}
		return pkg
	}

	t.Run("default excludes tagged file", func(t *testing.T) {
		pkg := load(t)
		if pkg.Pkg.Scope().Lookup("invariantsBuild") != nil {
			t.Error("file behind //go:build invariants was loaded without the tag")
		}
		if pkg.Pkg.Scope().Lookup("armed") == nil {
			t.Error("the !invariants counterpart file was not loaded")
		}
	})

	t.Run("tag set includes tagged file", func(t *testing.T) {
		saved := build.Default.BuildTags
		build.Default.BuildTags = append(append([]string(nil), saved...), "invariants")
		defer func() { build.Default.BuildTags = saved }()

		pkg := load(t)
		if pkg.Pkg.Scope().Lookup("invariantsBuild") == nil {
			t.Error("file behind //go:build invariants was not loaded with the tag set")
		}
	})
}

// TestLoaderTestFileExclusion: _test.go files are never part of the
// package Load builds — LoadTests typechecks them separately, for the
// analyzers that opt in — so a broken test file must not break loading the
// production package.
func TestLoaderTestFileExclusion(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":      "module exmod\n\ngo 1.22\n",
		"lib.go":      "package exmod\n\nfunc Lib() int { return 1 }\n",
		"lib_test.go": "package exmod\n\nconst fromTestFile = undefinedEverywhere\n",
	})
	l, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load("exmod")
	if err != nil {
		t.Fatalf("loading alongside a broken _test.go failed: %v", err)
	}
	if pkg.Pkg.Scope().Lookup("fromTestFile") != nil {
		t.Error("_test.go contents leaked into the loaded package")
	}
	if len(pkg.Files) != 1 {
		t.Errorf("got %d files, want 1 (lib.go only)", len(pkg.Files))
	}
}

// TestLoaderWalkSkips: Walk must not descend into testdata, hidden, or
// underscore directories — those hold fixture modules and editor litter
// that do not belong to the module under analysis.
func TestLoaderWalkSkips(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":                  "module walkmod\n\ngo 1.22\n",
		"root.go":                 "package walkmod\n",
		"sub/sub.go":              "package sub\n",
		"testdata/fix/fix.go":     "package fix\n",
		"sub/testdata/f/f.go":     "package f\n",
		".hidden/h.go":            "package h\n",
		"_scratch/s.go":           "package s\n",
		"empty/README.md":         "no go files here\n",
		"onlytest/only_test.go":   "package onlytest\n",
		"tagged/invariant_off.go": "//go:build neverset\n\npackage tagged\n",
	})
	l, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.Walk()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"walkmod", "walkmod/sub"}
	if len(paths) != len(want) {
		t.Fatalf("Walk() = %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("Walk() = %v, want %v", paths, want)
		}
	}
}

// TestLoadTestsRebuildsDependentsOnVariant: over testdata/variantmod, where
// x has an in-package test file, y imports x and x's external test package
// imports y. As go test does, LoadTests must typecheck y against x's test
// variant, or y.New's x.T is another type than the x.T the external test
// package sees.
func TestLoadTestsRebuildsDependentsOnVariant(t *testing.T) {
	l, err := lint.NewLoader("testdata/variantmod")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadTests("variantmod/x")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 || pkgs[0].Pkg.Path() != "variantmod/x" || pkgs[1].Pkg.Path() != "variantmod/x_test" {
		t.Fatalf("got %d variants, want the in-package and the external test package", len(pkgs))
	}
	// The production packages stay as they were: y still sees production x.
	y, err := l.Load("variantmod/y")
	if err != nil {
		t.Fatal(err)
	}
	x, err := l.Load("variantmod/x")
	if err != nil {
		t.Fatal(err)
	}
	if got := y.Pkg.Imports()[0]; got != x.Pkg {
		t.Fatalf("production y imports %p, want production x %p", got, x.Pkg)
	}
}

// FuzzLoadPackage: the loader must be panic-free on malformed Go source —
// it runs over whatever a contributor's working tree contains, and a parse
// or typecheck problem must surface as an error, never a crash. Errors are
// expected and ignored; only panics fail. testSrc, when non-empty, becomes
// a _test.go file loaded through LoadTests.
func FuzzLoadPackage(f *testing.F) {
	f.Add("package p\n\nfunc F() int { return 1 }\n", "")
	f.Add("package p\n\nfunc broken( {\n", "")
	f.Add("package p\n\nvar x = undefinedName\n", "")
	f.Add("pack age p\n", "")
	f.Add("", "")
	f.Add("//go:build invariants\n\npackage p\n", "")
	f.Add("package p\n\nimport \"no/such/pkg\"\n\nvar _ = pkg.X\n", "")
	f.Add("package p\n\ntype T struct { T }\n", "")
	f.Add("package p\n\x00\xff\xfe\n", "")
	f.Add("package p\n//lint:ignore\n//lint:closedenum\nfunc F() {}\n", "")
	f.Add("package p\n\nfunc F() int { return 1 }\n", "package p\n\nvar _ = F()\n")
	f.Add("package p\n\nfunc F() int { return 1 }\n", "package p_test\n\nimport \"fuzzmod\"\n\nvar _ = p.F()\n")
	f.Fuzz(func(t *testing.T, src, testSrc string) {
		dir := t.TempDir()
		files := map[string]string{"go.mod": "module fuzzmod\n\ngo 1.22\n", "fuzzed.go": src}
		if testSrc != "" {
			files["fuzzed_test.go"] = testSrc
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, err := lint.NewLoader(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Parse/typecheck errors are the expected outcome for most inputs;
		// the property under test is the absence of panics.
		_, _ = l.Load("fuzzmod")
		_, _ = l.LoadTests("fuzzmod")
	})
}
