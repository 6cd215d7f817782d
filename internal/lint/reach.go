package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"strings"
)

// Reach keeps the server's packages down to what a request reaches. Its
// subjects are the exported package-level identifiers, exported methods and
// exported struct fields of the internal packages neurdb-server links (CI's
// link-boundary production group). A subject is reached when live code
// references it. The roots of live code are the non-test files of the public
// API (the root package and client), cmd/neurdb-server, cmd/neurdb-cli,
// cmd/neurdb-crashtest and examples/...; within the subject packages a
// declaration is live once something live references it. Figure code
// (internal/bench, cmd/neurdb-bench), the lint tools, _test.go files and the
// benchmark module are not users.
//
// A method whose name belongs to an interface its receiver type or pointer
// implements is reached through that interface, so it is exempt. Every field
// of a struct named Config, Options or ...Config, the public API's included,
// is a knob: live code must write it (composite-literal key, assignment or
// &field), unless its type is an interface, which makes it a seam for test
// fakes. A symbol whose doc comment holds `//neurdb:reserved direction N` is
// exempt and keeps what it references live; a reservation without a
// direction number, or on a symbol that is reached anyway, is a finding.
var Reach = &Analyzer{
	Name:     "reach",
	Doc:      "flag exported symbols of server-linked packages that no request path reaches, and knobs nothing sets",
	Packages: []string{"neurdb", "neurdb/client", "neurdb/internal/..."},
	Run:      runReach,
}

var reservedRe = regexp.MustCompile(`^//neurdb:reserved(\s+direction\s+\d+\b)?`)

// reachIndex is the module-wide half of reach, built once per loader.
type reachIndex struct {
	subjects map[string]bool
	live     map[types.Object]bool
	written  map[types.Object]bool
	// ifaces holds every named interface the users see, by method name.
	ifaces map[string][]*types.Interface
}

// declRefs is what one declaration references and writes.
type declRefs struct{ uses, writes []types.Object }

func (l *Loader) reachIndex() (*reachIndex, error) {
	if l.reach != nil {
		return l.reach, nil
	}
	idx := &reachIndex{map[string]bool{}, map[types.Object]bool{}, map[types.Object]bool{}, map[string][]*types.Interface{}}
	paths, err := l.Walk()
	if err != nil {
		return nil, err
	}
	if !slices.Contains(paths, l.Module+"/cmd/neurdb-server") {
		l.reach = idx // no server, no subjects
		return idx, nil
	}
	srv, err := l.Load(l.Module + "/cmd/neurdb-server")
	if err != nil {
		return nil, err
	}
	seen := map[*types.Package]bool{}
	var closure func(p *types.Package, visit func(*types.Package))
	closure = func(p *types.Package, visit func(*types.Package)) {
		if !seen[p] {
			seen[p] = true
			visit(p)
			for _, imp := range p.Imports() {
				closure(imp, visit)
			}
		}
	}
	closure(srv.Pkg, func(p *types.Package) {
		if strings.HasPrefix(p.Path(), l.Module+"/internal/") {
			idx.subjects[p.Path()] = true
		}
	})

	// Index every user declaration under its owners; the nil owner is live.
	clear(seen)
	idx.addIface(types.Universe.Lookup("error").Type())
	graph := map[types.Object]*declRefs{}
	queue := []types.Object{nil}
	for _, path := range paths {
		if !idx.subjects[path] && !l.publicUser(path) {
			continue
		}
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		closure(pkg.Pkg, func(p *types.Package) {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
					idx.addIface(tn.Type())
				}
			}
		})
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				forEachDecl(d, pkg.Info, func(owners []types.Object, node ast.Node, doc *ast.CommentGroup) {
					if !idx.subjects[path] {
						owners = []types.Object{nil}
					} else if _, numbered := reservation(doc); numbered {
						queue = append(queue, owners...)
					}
					refs := collectRefs(node, pkg.Info)
					for _, o := range owners {
						if graph[o] == nil {
							graph[o] = &declRefs{}
						}
						graph[o].uses = append(graph[o].uses, refs.uses...)
						graph[o].writes = append(graph[o].writes, refs.writes...)
					}
				})
			}
		}
	}

	// Propagate: what a live or reserved declaration references is live, and
	// so is every method a live type's interfaces reach, promoted ones too.
	expanded := map[types.Object]bool{}
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		if expanded[o] {
			continue
		}
		expanded[o] = true
		var r declRefs
		if graph[o] != nil {
			r = *graph[o]
		}
		if tn, ok := o.(*types.TypeName); ok && !types.IsInterface(tn.Type()) {
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := range ms.Len() {
				if m := ms.At(i).Obj(); idx.viaInterface(tn.Type(), m.Name()) {
					r.uses = append(r.uses, origin(m))
				}
			}
		}
		for _, w := range r.writes {
			idx.written[w] = true
		}
		for _, u := range r.uses {
			if !idx.live[u] {
				idx.live[u] = true
				queue = append(queue, u)
			}
		}
	}
	l.reach = idx
	return idx, nil
}

// publicUser reports whether path is a live non-subject package: the public
// API, a shipped command other than the bench harness, or an example.
func (l *Loader) publicUser(path string) bool {
	rel, ok := strings.CutPrefix(path, l.Module+"/")
	return path == l.Module || ok && (rel == "client" || rel == "cmd/neurdb-server" ||
		rel == "cmd/neurdb-cli" || rel == "cmd/neurdb-crashtest" || strings.HasPrefix(rel, "examples/"))
}

func (idx *reachIndex) addIface(t types.Type) {
	named, isNamed := t.(*types.Named)
	iface, ok := t.Underlying().(*types.Interface)
	if !ok || !iface.IsMethodSet() || isNamed && named.TypeParams().Len() > 0 {
		return
	}
	for i := range iface.NumMethods() {
		name := iface.Method(i).Name()
		idx.ifaces[name] = append(idx.ifaces[name], iface)
	}
}

// viaInterface reports whether method name belongs to an interface that t
// or *t implements.
func (idx *reachIndex) viaInterface(t types.Type, name string) bool {
	for _, iface := range idx.ifaces[name] {
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// forEachDecl calls fn for each declaration in d with the objects it
// declares, its node and its doc comment. An init or main function has the
// nil owner (always live); a blank var has none, so what it references stays
// unreached.
func forEachDecl(d ast.Decl, info *types.Info, fn func(owners []types.Object, node ast.Node, doc *ast.CommentGroup)) {
	switch d := d.(type) {
	case *ast.FuncDecl:
		owner := info.Defs[d.Name]
		if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main") {
			owner = nil
		}
		fn([]types.Object{owner}, d, d.Doc)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			var owners []types.Object
			var doc *ast.CommentGroup
			switch s := spec.(type) {
			case *ast.TypeSpec:
				owners, doc = []types.Object{info.Defs[s.Name]}, s.Doc
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.Name != "_" {
						owners = append(owners, info.Defs[n])
					}
				}
				doc = s.Doc
			default:
				continue
			}
			if d.Lparen == 0 {
				doc = d.Doc
			}
			fn(owners, spec, doc)
		}
	}
}

// collectRefs lists the objects node references and the fields it writes.
func collectRefs(node ast.Node, info *types.Info) declRefs {
	var r declRefs
	write := func(id *ast.Ident) {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			r.writes = append(r.writes, v.Origin())
		}
	}
	field := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			write(sel.Sel)
		}
	}
	// A method's receiver does not reach its type: calling the method takes
	// a value of the type first.
	var recv ast.Node
	if fd, ok := node.(*ast.FuncDecl); ok && fd.Recv != nil {
		recv = fd.Recv
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if n == recv {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil {
				r.uses = append(r.uses, origin(obj))
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				field(lhs)
			}
		case *ast.IncDecStmt:
			field(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				field(n.X)
			}
		case *ast.CompositeLit:
			st, ok := info.TypeOf(n).Underlying().(*types.Struct)
			for i, elt := range n.Elts {
				if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
					if id, isIdent := kv.Key.(*ast.Ident); isIdent {
						write(id)
					}
				} else if ok {
					r.writes = append(r.writes, st.Field(i).Origin())
				}
			}
		}
		return true
	})
	return r
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// reservation reports whether doc holds a //neurdb:reserved comment and
// whether that names a direction.
func reservation(doc *ast.CommentGroup) (reserved, numbered bool) {
	if doc != nil {
		for _, c := range doc.List {
			if m := reservedRe.FindStringSubmatch(c.Text); m != nil {
				return true, m[1] != ""
			}
		}
	}
	return false, false
}

func runReach(pass *Pass) error {
	idx, err := pass.loader.reachIndex()
	if err != nil {
		return err
	}
	subject := idx.subjects[pass.Pkg.Path()]
	if !subject && !pass.loader.publicUser(pass.Pkg.Path()) {
		return nil
	}
	// check reports obj under name unless it is reached or reserved.
	check := func(obj types.Object, name string, reached, knob bool, doc *ast.CommentGroup) {
		if reserved, numbered := reservation(doc); reserved {
			switch {
			case !numbered:
				pass.Reportf(obj.Pos(), "reservation of %s names no direction: write //neurdb:reserved direction N", name)
			case reached:
				pass.Reportf(obj.Pos(), "%s is reserved, but a request path reaches it: drop the reservation", name)
			}
		} else if !reached && knob {
			pass.Reportf(obj.Pos(), "knob %s is set by no request path: delete it, or reserve it with //neurdb:reserved direction N", name)
		} else if !reached {
			pass.Reportf(obj.Pos(), "%s is reached by no request path: delete it, move it to its only user, or reserve it with //neurdb:reserved direction N", name)
		}
	}
	pkg := pass.Pkg.Name() + "."
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			forEachDecl(d, pass.TypesInfo, func(owners []types.Object, node ast.Node, doc *ast.CommentGroup) {
				for _, obj := range owners {
					if obj == nil || !obj.Exported() {
						continue
					}
					fn, isFunc := obj.(*types.Func)
					switch {
					case isFunc && fn.Signature().Recv() != nil:
						t, star := fn.Signature().Recv().Type(), ""
						if p, ok := t.(*types.Pointer); ok {
							t, star = p.Elem(), "*"
						}
						if tn := t.(*types.Named).Obj(); subject && tn.Exported() {
							check(fn, "("+star+pkg+tn.Name()+")."+fn.Name(), idx.live[fn] || idx.viaInterface(t, fn.Name()), false, doc)
						}
					case subject:
						check(obj, pkg+obj.Name(), idx.live[obj], false, doc)
					}
					if ts, ok := node.(*ast.TypeSpec); ok {
						_, reserved := reservation(doc)
						checkFields(pass, idx, subject && !reserved, ts, check)
					}
				}
			})
		}
	}
	return nil
}

// checkFields checks the fields of an exported struct: a knob struct's by
// the knob rule, another's exported fields by the reach rule when subject
// (a reserved struct keeps its fields).
func checkFields(pass *Pass, idx *reachIndex, subject bool, ts *ast.TypeSpec, check func(types.Object, string, bool, bool, *ast.CommentGroup)) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	knobs := ts.Name.Name == "Options" || strings.HasSuffix(ts.Name.Name, "Config")
	for _, fld := range st.Fields.List {
		for _, n := range fld.Names {
			v := pass.TypesInfo.Defs[n].(*types.Var)
			name := pass.Pkg.Name() + "." + ts.Name.Name + "." + n.Name
			switch {
			case knobs && !types.IsInterface(v.Type()):
				check(v, name, idx.written[v], true, fld.Doc)
			case subject && !knobs && v.Exported():
				check(v, name, idx.live[v], false, fld.Doc)
			}
		}
	}
}
