// Package lint implements neurdb-lint: a suite of syntactic, package-local
// analyzers for the engine invariants that neither an API shape nor a
// -tags=invariants runtime assertion can hold (docs/ARCHITECTURE.md
// "Enforced invariants").
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis — an
// Analyzer owns a Run function over a typed, parsed package — but is built
// on the standard library alone so the module stays dependency-free. The
// cmd/neurdb-lint binary loads the module from source (Loader) and runs the
// suite over every package (Run).
//
// Each analyzer guards one invariant and is pinned to the package(s) whose
// layer owns that invariant; outside its packages it reports nothing, so
// running the whole suite over the whole tree is always safe.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	// Doc is a one-line description shown by `neurdb-lint -h`.
	Doc string
	// Packages pins the analyzer to import paths. An entry matches the
	// package with exactly that path; a trailing "/..." matches the
	// subtree. Empty means every package.
	Packages []string
	// IncludeTests extends the analysis to _test.go files. Most invariants
	// are production-code contracts, but some (error-comparison hygiene)
	// matter exactly as much in tests.
	IncludeTests bool
	Run          func(*Pass) error
}

// AppliesTo reports whether the analyzer runs on the given import path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if sub, ok := strings.CutSuffix(p, "/..."); ok {
			if pkgPath == sub || strings.HasPrefix(pkgPath, sub+"/") {
				return true
			}
		} else if pkgPath == p {
			return true
		}
	}
	return false
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one package's parsed and typechecked representation through
// an analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	loader      *Loader
	diagnostics []Diagnostic
}

// Reportf records a diagnostic.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run runs every analyzer that applies to the loaded package and returns
// their diagnostics in position order. An external test package (path
// "p_test") counts as p for pinning. Analyzers without IncludeTests see only
// the package's non-test files — none at all in a test variant from
// LoadTests.
func Run(p *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	path := strings.TrimSuffix(p.Pkg.Path(), "_test")
	var prod []*ast.File
	for _, f := range p.Files {
		if !strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			prod = append(prod, f)
		}
	}
	var out []Diagnostic
	for _, a := range analyzers {
		files := p.Files
		if !a.IncludeTests {
			files = prod
		}
		if !a.AppliesTo(path) || len(files) == 0 {
			continue
		}
		pass := &Pass{Analyzer: a, Fset: p.Fset, Files: files, Pkg: p.Pkg, TypesInfo: p.Info, loader: p.loader}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", p.Pkg.Path(), a.Name, err)
		}
		out = append(out, pass.diagnostics...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// All returns the full neurdb-lint analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{
		CommitGate,
		BatchAlias,
		DetOrder,
		IOErr,
		AtomicMix,
		ErrCmp,
		Exhaustive,
	}
}
