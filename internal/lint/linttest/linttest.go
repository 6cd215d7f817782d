// Package linttest runs neurdb-lint analyzers over fixture modules and
// checks their diagnostics against `// want analyzer:"regexp"` expectations
// embedded in the fixture source — the same discipline as
// golang.org/x/tools/go/analysis/analysistest, scoped to this module's
// stdlib-only framework.
package linttest

import (
	"regexp"
	"strings"
	"testing"

	"neurdb/internal/lint"
)

// wantRe matches one expectation inside a want comment:
// analyzerName:"regexp" with \" escapes allowed inside the pattern.
var wantRe = regexp.MustCompile(`([a-z]+):"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads pkgPath and its test variants from the fixture module at
// moduleDir, runs the analyzer over them as the neurdb-lint driver does, and
// reports a test error for every diagnostic without a matching expectation
// and every expectation without a matching diagnostic.
func Run(t *testing.T, moduleDir string, a *lint.Analyzer, pkgPath string) {
	t.Helper()
	loader, err := lint.NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(pkgPath)
	if err != nil {
		t.Fatal(err)
	}
	tests, err := loader.LoadTests(pkgPath)
	if err != nil {
		t.Fatal(err)
	}
	var diags []lint.Diagnostic
	var wants []*expectation
	for _, p := range append([]*lint.Package{pkg}, tests...) {
		d, err := lint.Run(p, []*lint.Analyzer{a})
		if err != nil {
			t.Fatal(err)
		}
		diags = append(diags, d...)
		wants = append(wants, collect(t, a.Name, p)...)
	}

	fset := loader.Fset()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.file == pos.Filename && w.line == pos.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// collect gathers the analyzer's want expectations from the package's
// comments.
func collect(t *testing.T, analyzer string, pkg *lint.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				rest, ok := strings.CutPrefix(strings.TrimSpace(text), "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
					if m[1] != analyzer {
						continue
					}
					re, err := regexp.Compile(m[2])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, m[2], err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return wants
}
