package sqlparse

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
)

// FuzzParse feeds arbitrary text to the three entry points that see SQL from
// outside the process — Parse, ParamCount over what it returns, SplitScript
// and Parse over its pieces. Each must return a value or an error; none may
// panic. The seed corpus is every string literal of parser_test.go (its
// statements, plus a few fragments), read from the source so it follows that
// file.
func FuzzParse(f *testing.F) {
	file, err := parser.ParseFile(token.NewFileSet(), "parser_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				f.Add(s)
			}
		}
		return true
	})
	f.Fuzz(func(t *testing.T, src string) {
		if stmt, err := Parse(src); err == nil {
			if stmt == nil {
				t.Fatalf("Parse(%q) returned neither a statement nor an error", src)
			}
			ParamCount(stmt)
		}
		pieces, err := SplitScript(src)
		if err != nil {
			return
		}
		for _, piece := range pieces {
			if stmt, err := Parse(piece); err == nil {
				ParamCount(stmt)
			}
		}
	})
}
