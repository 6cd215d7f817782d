package sqlparse

import (
	"strings"
	"testing"

	"neurdb/internal/rel"
)

func mustParse(t *testing.T, src string) Stmt {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func TestLexerBasics(t *testing.T) {
	toks, err := Tokenize("SELECT a, b2 FROM t WHERE x <= 3.5 AND name = 'it''s' -- comment\n;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
		texts = append(texts, tk.Text)
	}
	want := []string{"SELECT", "a", ",", "b2", "FROM", "t", "WHERE", "x", "<=", "3.5", "AND", "name", "=", "it's", ";", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens: %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[9] != TokNumber || kinds[13] != TokString {
		t.Fatal("token kinds wrong")
	}
}

func TestLexerBlockCommentAndScientific(t *testing.T) {
	toks, err := Tokenize("/* hi */ 1e-3 2E+4 5e2")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "1e-3" || toks[1].Text != "2E+4" || toks[2].Text != "5e2" {
		t.Fatalf("scientific tokens: %v %v %v", toks[0].Text, toks[1].Text, toks[2].Text)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := Tokenize("'unterminated"); err == nil {
		t.Fatal("unterminated string should error")
	}
	if _, err := Tokenize("a @ b"); err == nil {
		t.Fatal("bad character should error")
	}
}

func TestParseCreateTable(t *testing.T) {
	s := mustParse(t, `CREATE TABLE users (
		id BIGINT PRIMARY KEY,
		name TEXT NOT NULL,
		score DOUBLE,
		active BOOLEAN UNIQUE
	)`)
	ct := s.(*CreateTable)
	if ct.Name != "users" || len(ct.Cols) != 4 {
		t.Fatalf("bad create: %+v", ct)
	}
	if !ct.Cols[0].Unique || !ct.Cols[0].NotNull || ct.Cols[0].Typ != rel.TypeInt {
		t.Fatal("primary key flags wrong")
	}
	if !ct.Cols[1].NotNull || ct.Cols[1].Typ != rel.TypeText {
		t.Fatal("not null flags wrong")
	}
	if !ct.Cols[3].Unique || ct.Cols[3].Typ != rel.TypeBool {
		t.Fatal("unique flag wrong")
	}
}

func TestParseCreateIndex(t *testing.T) {
	for _, sql := range []string{
		"CREATE INDEX idx_u ON users (id)",
		"CREATE INDEX idx_u ON users (id) USING BTREE",
		"CREATE INDEX idx_u ON users (id) USING btree",
	} {
		ci := mustParse(t, sql).(*CreateIndex)
		if ci.Name != "idx_u" || ci.Table != "users" || ci.Col != "id" {
			t.Fatalf("%s: bad index: %+v", sql, ci)
		}
	}
	// Every index is a B-tree: any other method is refused, not ignored.
	for _, sql := range []string{
		"CREATE INDEX h ON users (id) USING HASH",
		"CREATE INDEX h ON users (id) USING hash",
		"CREATE INDEX g ON users (id) USING gin",
	} {
		_, err := Parse(sql)
		if err == nil || !strings.Contains(err.Error(), "indexes are B-trees") {
			t.Fatalf("%s: err %v, want the B-tree-only refusal", sql, err)
		}
	}
}

func TestParseDrop(t *testing.T) {
	d := mustParse(t, "DROP TABLE IF EXISTS t").(*DropTable)
	if d.Name != "t" || !d.IfExists {
		t.Fatal("drop wrong")
	}
}

func TestParseInsert(t *testing.T) {
	s := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
	ins := s.(*Insert)
	if ins.Table != "t" || len(ins.Cols) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("bad insert: %+v", ins)
	}
	if lit := ins.Rows[1][0].(*Lit); lit.Val.AsInt() != 2 {
		t.Fatal("row literal wrong")
	}
	// Positional insert with negative and null values.
	s2 := mustParse(t, "INSERT INTO t VALUES (-3, NULL, 2.5, true)")
	row := s2.(*Insert).Rows[0]
	if row[0].(*Lit).Val.AsInt() != -3 || !row[1].(*Lit).Val.IsNull() || row[3].(*Lit).Val.AsBool() != true {
		t.Fatal("positional values wrong")
	}
}

func TestParseSelectBasic(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a = 1 ORDER BY b DESC LIMIT 10")
	sel := s.(*Select)
	if !sel.Items[0].Star || sel.From[0].Name != "t" || sel.Limit != 10 {
		t.Fatalf("bad select: %+v", sel)
	}
	if !sel.OrderBy[0].Desc {
		t.Fatal("desc missing")
	}
	w := sel.Where.(*Binary)
	if w.Op != "=" || w.L.(*ColName).Name != "a" {
		t.Fatal("where wrong")
	}
}

func TestParseSelectJoins(t *testing.T) {
	s := mustParse(t, `SELECT u.id, p.score FROM users u JOIN posts p ON u.id = p.owner WHERE p.score > 5`)
	sel := s.(*Select)
	if len(sel.From) != 1 || sel.From[0].Alias != "u" || len(sel.Joins) != 1 {
		t.Fatalf("bad join parse: %+v", sel)
	}
	on := sel.Joins[0].On.(*Binary)
	if on.L.(*ColName).Table != "u" || on.R.(*ColName).Table != "p" {
		t.Fatal("join condition qualifiers wrong")
	}
	// Comma joins.
	s2 := mustParse(t, "SELECT a.x FROM a, b, c WHERE a.id = b.id AND b.id = c.id")
	if len(s2.(*Select).From) != 3 {
		t.Fatal("comma join count wrong")
	}
}

func TestParseSelectAggregates(t *testing.T) {
	s := mustParse(t, "SELECT k, COUNT(*), SUM(v) AS total, AVG(v) FROM t GROUP BY k")
	sel := s.(*Select)
	if len(sel.Items) != 4 || len(sel.GroupBy) != 1 {
		t.Fatalf("agg parse: %+v", sel)
	}
	cnt := sel.Items[1].E.(*FuncCall)
	if cnt.Name != "COUNT" || !cnt.Star {
		t.Fatal("count(*) wrong")
	}
	sum := sel.Items[2].E.(*FuncCall)
	if sum.Name != "SUM" || sel.Items[2].Alias != "total" {
		t.Fatal("sum alias wrong")
	}
}

func TestParseUpdateDelete(t *testing.T) {
	s := mustParse(t, "UPDATE t SET a = a + 1, b = 'x' WHERE id = 5")
	up := s.(*Update)
	if up.Table != "t" || len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("update wrong: %+v", up)
	}
	if up.Cols[0] != "a" || up.Cols[1] != "b" {
		t.Fatal("set order lost")
	}
	if _, err := Parse("UPDATE t SET a=1, a=2"); err == nil {
		t.Fatal("duplicate SET should fail")
	}
	d := mustParse(t, "DELETE FROM t WHERE a IN (1, 2, 3)").(*Delete)
	in := d.Where.(*InList)
	if len(in.Vals) != 3 {
		t.Fatal("in list wrong")
	}
}

// TestSplitScriptPiecesParse: Parse takes one statement, so a script's
// statements each parse on their own while the whole script does not.
func TestSplitScriptPiecesParse(t *testing.T) {
	pieces := []string{
		"CREATE TABLE t (a INT)",
		"INSERT INTO t VALUES ('semi; colon')",
		"EXPLAIN SELECT * FROM t",
	}
	for _, text := range pieces {
		if _, err := Parse(text); err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
	}
	// EXPLAIN records where its inner statement starts within its text.
	ex := mustParse(t, pieces[2]).(*Explain)
	if got := pieces[2][ex.InnerPos:]; got != "SELECT * FROM t" {
		t.Fatalf("inner statement text = %q", got)
	}
	if _, err := Parse(strings.Join(pieces, ";\n") + ";"); err == nil {
		t.Fatal("Parse of a three-statement script should fail")
	}
	if _, err := Parse("SELECT * FROM t SELECT"); err == nil {
		t.Fatal("missing semicolon should fail")
	}
}

func TestParseTxnStmts(t *testing.T) {
	for src, kind := range map[string]string{
		"BEGIN":             "BEGIN",
		"BEGIN TRANSACTION": "BEGIN",
		"COMMIT":            "COMMIT",
		"ROLLBACK":          "ROLLBACK",
		"ABORT":             "ROLLBACK",
	} {
		if got := mustParse(t, src).(*TxnStmt).Kind; got != kind {
			t.Fatalf("%s -> %s, want %s", src, got, kind)
		}
	}
}

func TestParseAnalyzeExplainSet(t *testing.T) {
	if a := mustParse(t, "ANALYZE").(*Analyze); a.Table != "" {
		t.Fatal("analyze all wrong")
	}
	if a := mustParse(t, "ANALYZE users").(*Analyze); a.Table != "users" {
		t.Fatal("analyze table wrong")
	}
	e := mustParse(t, "EXPLAIN SELECT * FROM t").(*Explain)
	if _, ok := e.Inner.(*Select); !ok {
		t.Fatal("explain inner wrong")
	}
	// EXPLAIN records where its inner statement starts, for every planned
	// kind it wraps.
	for _, inner := range []string{"SELECT * FROM t", "INSERT INTO t VALUES (1)", "UPDATE t SET a = 1",
		"DELETE FROM t WHERE a = 1", "PREDICT VALUE OF a FROM t TRAIN ON *"} {
		text := "\n\t\tEXPLAIN " + inner + ";\n\t"
		e := mustParse(t, text).(*Explain)
		if got := strings.TrimSpace(text[e.InnerPos:]); got != inner+";" {
			t.Fatalf("inner statement text = %q, want %q", got, inner+";")
		}
	}
	st := mustParse(t, "SET optimizer = 'learned'").(*SetStmt)
	if st.Key != "optimizer" || st.Value != "learned" {
		t.Fatal("set wrong")
	}
}

func TestParsePredictRegression(t *testing.T) {
	// Listing 1 from the paper.
	s := mustParse(t, `PREDICT VALUE OF score
		FROM review
		WHERE brand_name = 'Special Goods'
		TRAIN ON *
		WITH brand_name <> 'Special Goods'`)
	pr := s.(*Predict)
	if pr.Kind != PredictValue || pr.Target != "score" || pr.Table != "review" {
		t.Fatalf("predict wrong: %+v", pr)
	}
	if !pr.TrainAll || pr.Where == nil || pr.With == nil {
		t.Fatal("clauses missing")
	}
}

func TestParsePredictClassification(t *testing.T) {
	// Listing 2 from the paper.
	s := mustParse(t, `PREDICT CLASS OF outcome
		FROM diabetes
		TRAIN ON pregnancies, glucose, blood_pressure
		VALUES (6, 148, 72), (1, 85, 66)`)
	pr := s.(*Predict)
	if pr.Kind != PredictClass || pr.Target != "outcome" {
		t.Fatalf("predict wrong: %+v", pr)
	}
	if len(pr.TrainCols) != 3 || pr.TrainCols[2] != "blood_pressure" {
		t.Fatal("train cols wrong")
	}
	if len(pr.Values) != 2 || len(pr.Values[0]) != 3 {
		t.Fatal("values wrong")
	}
	if pr.Kind.String() != "CLASS" || PredictValue.String() != "VALUE" {
		t.Fatal("kind strings wrong")
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a + 2 * 3 = 7 AND NOT b OR c")
	sel := s.(*Select)
	or := sel.Where.(*Binary)
	if or.Op != "OR" {
		t.Fatal("OR should be outermost")
	}
	and := or.L.(*Binary)
	if and.Op != "AND" {
		t.Fatal("AND should bind tighter than OR")
	}
	eq := and.L.(*Binary)
	if eq.Op != "=" {
		t.Fatal("comparison nesting wrong")
	}
	plus := eq.L.(*Binary)
	if plus.Op != "+" {
		t.Fatal("additive nesting wrong")
	}
	if plus.R.(*Binary).Op != "*" {
		t.Fatal("* should bind tighter than +")
	}
	if _, ok := and.R.(*Unary); !ok {
		t.Fatal("NOT parse wrong")
	}
}

func TestParseBetweenAndIsNull(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b IS NOT NULL AND c IS NULL")
	sel := s.(*Select)
	conj := sel.Where.(*Binary)
	if conj.Op != "AND" {
		t.Fatal("top AND missing")
	}
	src := exprString(sel.Where)
	if !strings.Contains(src, ">=") || !strings.Contains(src, "<=") {
		t.Fatalf("between not desugared: %s", src)
	}
}

// exprString is a minimal expression printer for assertions.
func exprString(e Expr) string {
	switch t := e.(type) {
	case *ColName:
		return t.String()
	case *Lit:
		return t.Val.String()
	case *Binary:
		return "(" + exprString(t.L) + " " + t.Op + " " + exprString(t.R) + ")"
	case *Unary:
		return t.Op + " " + exprString(t.E)
	case *IsNull:
		if t.Negate {
			return exprString(t.E) + " IS NOT NULL"
		}
		return exprString(t.E) + " IS NULL"
	case *InList:
		return exprString(t.E) + " IN (...)"
	case *FuncCall:
		return t.Name + "(...)"
	}
	return "?"
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FOO BAR",
		"CREATE VIEW v",
		"CREATE TABLE t (a BADTYPE)",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"INSERT INTO t",
		"INSERT t VALUES (1)",
		"PREDICT SCORE OF x FROM t TRAIN ON *",
		"PREDICT VALUE OF x FROM t",       // missing TRAIN ON
		"PREDICT VALUE OF x FROM t TRAIN", // missing ON
		"UPDATE t SET",
		"DELETE t",
		"SELECT a FROM t LIMIT x",
		"SELECT * FROM t; garbage",
		"SELECT a b c FROM t",
		"SET x",
		"SELECT (a FROM t",
		"SELECT a FROM t WHERE a IN ()",
		"SELECT a FROM t INNER t2",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseTableOneAliasStyles(t *testing.T) {
	s := mustParse(t, "SELECT x.a FROM tab AS x WHERE x.a > 0")
	if s.(*Select).From[0].Alias != "x" {
		t.Fatal("AS alias wrong")
	}
	s2 := mustParse(t, "SELECT a FROM tab x")
	ref := s2.(*Select).From[0]
	if ref.RefName() != "x" || ref.Name != "tab" {
		t.Fatal("bare alias wrong")
	}
	s3 := mustParse(t, "SELECT a FROM tab")
	if s3.(*Select).From[0].RefName() != "tab" {
		t.Fatal("refname fallback wrong")
	}
}
