package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Exhaustive enforces closed-set switch coverage. A type opts in with a
// `//lint:closedenum` directive on its declaration; its member set is every
// package-level constant of the type, or for an interface every implementing
// named type declared alongside it. The analyzer flags any switch without a
// default clause that fails to cover every member, wherever in the module
// the switch lives: the directive is read from the defining package's
// source, which the loader already parsed when it resolved the import.
//
// This is what keeps a new wire opcode, plan-node kind, or rel value tag
// from silently falling through a dispatch switch three packages away: the
// build stays green, the lint run does not.
var Exhaustive = &Analyzer{
	Name:     "exhaustive",
	Doc:      "flag default-less switches over //lint:closedenum types that miss members",
	Packages: []string{"neurdb", "neurdb/..."},
	Run:      runExhaustive,
}

// closedEnum is the member set of one marked type.
type closedEnum struct {
	// Members is sorted; const names for value enums, implementing type
	// names for interfaces.
	Members   []string
	Interface bool
}

const closedEnumDirective = "lint:closedenum"

// closedEnumDecls returns the names of types in files marked with
// //lint:closedenum.
func closedEnumDecls(files []*ast.File) map[string]bool {
	marked := make(map[string]bool)
	hasDirective := func(groups ...*ast.CommentGroup) bool {
		for _, g := range groups {
			if g == nil {
				continue
			}
			for _, c := range g.List {
				if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), closedEnumDirective) {
					return true
				}
			}
		}
		return false
	}
	for _, f := range files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if hasDirective(gd.Doc, ts.Doc, ts.Comment) {
					marked[ts.Name.Name] = true
				}
			}
		}
	}
	return marked
}

// enumMembers computes the closed set of a marked type from its package:
// constants of the type, or named types implementing the interface (by
// value or pointer). The blank identifier never counts.
func enumMembers(obj *types.TypeName) closedEnum {
	var enum closedEnum
	scope := obj.Pkg().Scope()
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return enum
	}
	if iface, ok := named.Underlying().(*types.Interface); ok {
		enum.Interface = true
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || tn == obj || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if _, isIface := t.Underlying().(*types.Interface); isIface {
				continue
			}
			if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
				enum.Members = append(enum.Members, tn.Name())
			}
		}
	} else {
		for _, n := range scope.Names() {
			c, ok := scope.Lookup(n).(*types.Const)
			if !ok || c.Name() == "_" {
				continue
			}
			if types.Identical(c.Type(), named) {
				enum.Members = append(enum.Members, c.Name())
			}
		}
	}
	sort.Strings(enum.Members)
	return enum
}

func runExhaustive(pass *Pass) error {
	info := pass.TypesInfo

	// marked memoizes each defining package's //lint:closedenum set, read
	// from the source the loader parsed (stdlib packages have none).
	marked := make(map[string]map[string]bool)
	// enumOf resolves a type to its closed member set, local or imported.
	enumOf := func(t types.Type) (string, closedEnum, bool) {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return "", closedEnum{}, false
		}
		obj := named.Obj()
		path := obj.Pkg().Path()
		names, seen := marked[path]
		if !seen {
			if src := pass.loader.cache[path]; src != nil {
				names = closedEnumDecls(src.Files)
			}
			marked[path] = names
		}
		if !names[obj.Name()] {
			return "", closedEnum{}, false
		}
		enum := enumMembers(obj)
		if len(enum.Members) == 0 {
			return "", closedEnum{}, false
		}
		qual := obj.Name()
		if obj.Pkg() != pass.Pkg {
			qual = obj.Pkg().Name() + "." + qual
		}
		return qual, enum, true
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			switch n := node.(type) {
			case *ast.SwitchStmt:
				if n.Tag == nil {
					return true
				}
				t := info.TypeOf(n.Tag)
				if t == nil {
					return true
				}
				name, enum, ok := enumOf(t)
				if !ok || enum.Interface {
					return true
				}
				covered := make(map[string]bool)
				for _, c := range n.Body.List {
					cc := c.(*ast.CaseClause)
					if cc.List == nil {
						return true // default clause: open by design
					}
					for _, e := range cc.List {
						if cn := constName(info, e); cn != "" {
							covered[cn] = true
						}
					}
				}
				reportMissing(pass, n.Pos(), name, enum.Members, covered)
			case *ast.TypeSwitchStmt:
				x := typeSwitchSubject(n)
				if x == nil {
					return true
				}
				t := info.TypeOf(x)
				if t == nil {
					return true
				}
				name, enum, ok := enumOf(t)
				if !ok || !enum.Interface {
					return true
				}
				covered := make(map[string]bool)
				for _, c := range n.Body.List {
					cc := c.(*ast.CaseClause)
					if cc.List == nil {
						return true // default clause: open by design
					}
					for _, e := range cc.List {
						ct := info.TypeOf(e)
						if ct == nil {
							continue
						}
						if p, ok := ct.(*types.Pointer); ok {
							ct = p.Elem()
						}
						if named, ok := ct.(*types.Named); ok {
							covered[named.Obj().Name()] = true
						}
					}
				}
				reportMissing(pass, n.Pos(), name, enum.Members, covered)
			}
			return true
		})
	}
	return nil
}

// constName resolves a case expression to the constant it names.
func constName(info *types.Info, e ast.Expr) string {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	if c, ok := info.Uses[id].(*types.Const); ok {
		return c.Name()
	}
	return ""
}

// reportMissing flags a default-less switch that fails to cover the closed
// set.
func reportMissing(pass *Pass, pos token.Pos, name string, members []string, covered map[string]bool) {
	var missing []string
	for _, m := range members {
		if !covered[m] {
			missing = append(missing, m)
		}
	}
	if len(missing) > 0 {
		pass.Reportf(pos, "switch over closed enum %s misses %s; cover every member or add a default", name, strings.Join(missing, ", "))
	}
}
