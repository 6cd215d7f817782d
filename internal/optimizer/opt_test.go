package optimizer

import (
	"math/rand"
	"strings"
	"testing"

	"neurdb/internal/catalog"
	"neurdb/internal/index"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/sqlparse"
	"neurdb/internal/stats"
	"neurdb/internal/storage"
)

// buildCat creates two joined tables with data, stats, their key indexes
// and an FK index.
func buildCat(t *testing.T) (*catalog.Catalog, *catalog.Table, *catalog.Table) {
	t.Helper()
	cat := catalog.New(storage.NewBufferPool(256))
	users, err := cat.Create("users", rel.NewSchema(
		rel.Column{Name: "id", Typ: rel.TypeInt, Unique: true},
		rel.Column{Name: "rep", Typ: rel.TypeInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	posts, err := cat.Create("posts", rel.NewSchema(
		rel.Column{Name: "id", Typ: rel.TypeInt, Unique: true},
		rel.Column{Name: "owner", Typ: rel.TypeInt},
		rel.Column{Name: "score", Typ: rel.TypeInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	var uRows, pRows []rel.Row
	ownerIdx := index.NewBTree()
	for i := 0; i < 1000; i++ {
		row := rel.Row{rel.Int(int64(i)), rel.Int(int64(r.Intn(5000)))}
		uRows = append(uRows, row)
	}
	uIDs, _ := users.Heap.InsertBatch(uRows, 1, nil, nil)
	users.IndexOn(0).BT.InsertRows(uRows, 0, uIDs)
	for i := 0; i < 3000; i++ {
		row := rel.Row{rel.Int(int64(i)), rel.Int(int64(r.Intn(1000))), rel.Int(int64(r.Intn(100)))}
		pRows = append(pRows, row)
	}
	pIDs, _ := posts.Heap.InsertBatch(pRows, 1, nil, nil)
	posts.IndexOn(0).BT.InsertRows(pRows, 0, pIDs)
	ownerIdx.InsertRows(pRows, 1, pIDs)
	posts.AddIndex(&catalog.Index{Name: "posts_owner", Col: 1, BT: ownerIdx}, nil)
	users.Stats.NewBuilder(0).Add(uRows).Finish()
	posts.Stats.NewBuilder(0).Add(pRows).Finish()
	return cat, users, posts
}

func bindSQL(t *testing.T, cat *catalog.Catalog, sql string) *Query {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Bind(stmt.(*sqlparse.Select), cat)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestBindClassifiesPredicates(t *testing.T) {
	cat, _, _ := buildCat(t)
	q := bindSQL(t, cat, `SELECT u.id FROM users u, posts p
		WHERE u.id = p.owner AND u.rep > 100 AND p.score < 50 AND u.id + p.score > 10`)
	if len(q.Joins) != 1 {
		t.Fatalf("joins = %d", len(q.Joins))
	}
	if len(q.Local[0]) != 1 || len(q.Local[1]) != 1 {
		t.Fatalf("local preds: %d/%d", len(q.Local[0]), len(q.Local[1]))
	}
	if len(q.Residual) != 1 {
		t.Fatalf("residual preds = %d", len(q.Residual))
	}
	// Local predicates are rebased to the table's own schema.
	refs := map[int]bool{}
	rel.ReferencedCols(q.Local[1][0], refs)
	if !refs[2] {
		t.Fatalf("posts-local pred not rebased: %v", refs)
	}
}

func TestPlanChoosesHashJoinAndRespectsHints(t *testing.T) {
	cat, _, _ := buildCat(t)
	q := bindSQL(t, cat, `SELECT u.id FROM users u, posts p WHERE u.id = p.owner`)

	def, err := New().Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	defStr := strings.ToLower(plan.Explain(def))
	if !strings.Contains(defStr, "join") {
		t.Fatalf("no join in plan:\n%s", defStr)
	}

	noHash := &Optimizer{Hints: HintSet{NoHashJoin: true, NoIndexJoin: true}}
	p2, err := noHash.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.Explain(p2), "HashJoin") || strings.Contains(plan.Explain(p2), "IndexJoin") {
		t.Fatalf("hints not respected:\n%s", plan.Explain(p2))
	}
}

func TestStaleStatsChangePlans(t *testing.T) {
	cat, users, posts := buildCat(t)
	q := bindSQL(t, cat, `SELECT u.id FROM users u, posts p WHERE u.id = p.owner AND p.score > 90`)
	stale := map[int]*stats.TableStats{
		users.ID: users.Stats.Snapshot(),
		posts.ID: posts.Stats.Snapshot(),
	}
	staleView := func(t *catalog.Table) *stats.TableStats {
		if s, ok := stale[t.ID]; ok {
			return s
		}
		return t.Stats
	}
	// Drift: posts grows 10x with only high scores.
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 30000; i++ {
		row := rel.Row{rel.Int(int64(10000 + i)), rel.Int(int64(r.Intn(1000))), rel.Int(95)}
		posts.Stats.NoteInsertBatch([]rel.Row{row})
	}
	liveOpt := &Optimizer{Stats: LiveStats}
	staleOpt := &Optimizer{Stats: staleView}
	livePlan, err := liveOpt.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	stalePlan, err := staleOpt.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	liveRows, _ := livePlan.Estimates()
	staleRows, _ := stalePlan.Estimates()
	if liveRows <= staleRows {
		t.Fatalf("live estimate (%v) should exceed stale (%v) after drift", liveRows, staleRows)
	}
}

func TestEnumerateCandidatesDiversity(t *testing.T) {
	cat, _, _ := buildCat(t)
	q := bindSQL(t, cat, `SELECT COUNT(*) FROM users u, posts p WHERE u.id = p.owner AND p.score > 50`)
	cands, err := EnumerateCandidates(q, nil, []float64{0.1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 {
		t.Fatalf("candidates = %d", len(cands))
	}
	names := map[string]bool{}
	for _, c := range cands {
		names[c.Hint] = true
	}
	if !names["default"] {
		t.Fatal("default hint missing")
	}
}

func TestSingleTableQueryBinding(t *testing.T) {
	cat, users, _ := buildCat(t)
	_ = cat
	q := SingleTableQuery(users)
	stmt, _ := sqlparse.Parse("SELECT id FROM users WHERE rep > 10 AND id IN (1,2)")
	where := stmt.(*sqlparse.Select).Where
	bound, err := q.bindExpr(where)
	if err != nil {
		t.Fatal(err)
	}
	row := rel.Row{rel.Int(1), rel.Int(50)}
	if !bound.Eval(row).AsBool() {
		t.Fatal("bound predicate wrong")
	}
	row2 := rel.Row{rel.Int(3), rel.Int(50)}
	if bound.Eval(row2).AsBool() {
		t.Fatal("IN list not applied")
	}
}

func TestSelOfEstimates(t *testing.T) {
	cat, users, _ := buildCat(t)
	_ = cat
	ts := users.Stats
	colRep := &rel.ColRef{Idx: 1}
	gt := &rel.BinOp{Kind: rel.OpGt, L: colRep, R: &rel.Const{Val: rel.Int(2500)}}
	sel := selOf(ts, gt)
	if sel <= 0 || sel >= 1 {
		t.Fatalf("selectivity = %v", sel)
	}
	// NOT inverts.
	notSel := selOf(ts, &rel.Not{E: gt})
	if notSel <= 0 || notSel >= 1 || notSel+sel < 0.9 || notSel+sel > 1.1 {
		t.Fatalf("NOT selectivity inconsistent: %v + %v", sel, notSel)
	}
	// AND multiplies, OR adds.
	and := &rel.BinOp{Kind: rel.OpAnd, L: gt, R: gt}
	if selOf(ts, and) >= sel {
		t.Fatal("AND should shrink selectivity")
	}
	or := &rel.BinOp{Kind: rel.OpOr, L: gt, R: gt}
	if selOf(ts, or) < sel {
		t.Fatal("OR should not shrink selectivity")
	}
	// Reversed comparison (const op col).
	rev := &rel.BinOp{Kind: rel.OpLt, L: &rel.Const{Val: rel.Int(2500)}, R: colRep}
	if s := selOf(ts, rev); s <= 0 || s >= 1 {
		t.Fatalf("reversed selectivity = %v", s)
	}
}

func TestBindRejectsBadQueries(t *testing.T) {
	cat, _, _ := buildCat(t)
	bad := []string{
		"SELECT id FROM users u, posts p",                       // ambiguous id
		"SELECT q.id FROM users u",                              // unknown alias
		"SELECT u.id FROM users u WHERE u.rep > 1 ORDER BY xxx", // unknown order col
	}
	for _, sql := range bad {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if _, err := Bind(stmt.(*sqlparse.Select), cat); err == nil {
			t.Errorf("Bind(%q) should fail", sql)
		}
	}
}
