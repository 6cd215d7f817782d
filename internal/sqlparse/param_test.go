package sqlparse

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseQuestionMarkParams(t *testing.T) {
	stmt, err := Parse(`SELECT a FROM t WHERE b = ? AND c > ?`)
	if err != nil {
		t.Fatal(err)
	}
	if got := ParamCount(stmt); got != 2 {
		t.Fatalf("ParamCount = %d, want 2", got)
	}
	sel := stmt.(*Select)
	// '?' placeholders number left to right.
	and := sel.Where.(*Binary)
	if p := and.L.(*Binary).R.(*Param); p.Idx != 0 {
		t.Fatalf("first ? got ordinal %d", p.Idx)
	}
	if p := and.R.(*Binary).R.(*Param); p.Idx != 1 {
		t.Fatalf("second ? got ordinal %d", p.Idx)
	}
}

func TestParseDollarParams(t *testing.T) {
	stmt, err := Parse(`UPDATE t SET v = $2 WHERE id = $1`)
	if err != nil {
		t.Fatal(err)
	}
	if got := ParamCount(stmt); got != 2 {
		t.Fatalf("ParamCount = %d, want 2", got)
	}
	up := stmt.(*Update)
	if p := up.Set["v"].(*Param); p.Idx != 1 {
		t.Fatalf("$2 got ordinal %d", p.Idx)
	}
	if p := up.Where.(*Binary).R.(*Param); p.Idx != 0 {
		t.Fatalf("$1 got ordinal %d", p.Idx)
	}
}

func TestParamCountCoversStatementKinds(t *testing.T) {
	cases := map[string]int{
		`INSERT INTO t VALUES (?, ?, ?)`:                              3,
		`INSERT INTO t (a, b) VALUES (?, 1), (2, ?)`:                  2,
		`DELETE FROM t WHERE id = ?`:                                  1,
		`SELECT a + ? FROM t GROUP BY a ORDER BY a LIMIT 3`:           1,
		`SELECT a FROM t`:                                             0,
		`PREDICT VALUE OF y FROM t WHERE x = ? TRAIN ON a WITH a > ?`: 2,
		`EXPLAIN SELECT a FROM t WHERE a = ?`:                         1,
	}
	for sql, want := range cases {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		if got := ParamCount(stmt); got != want {
			t.Errorf("ParamCount(%q) = %d, want %d", sql, got, want)
		}
	}
}

func TestBadDollarParam(t *testing.T) {
	if _, err := Parse(`SELECT a FROM t WHERE b = $`); err == nil {
		t.Fatal("expected error for '$' without number")
	}
	if _, err := Parse(`SELECT a FROM t WHERE b = $0`); err == nil {
		t.Fatal("expected error for $0 (ordinals are 1-based)")
	}
}

func TestMixedPlaceholderStylesRejected(t *testing.T) {
	// '?' ordinals are implicit and '$n' ordinals explicit; mixing them
	// would silently alias parameters, so both orders must error.
	for _, sql := range []string{
		`UPDATE t SET v = $1 WHERE id = ?`,
		`UPDATE t SET v = ? WHERE id = $2`,
	} {
		if _, err := Parse(sql); err == nil || !strings.Contains(err.Error(), "mix") {
			t.Fatalf("Parse(%q) err = %v, want mixed-placeholder error", sql, err)
		}
	}
	// Style state is per statement: a script's pieces may differ.
	texts, err := SplitScript(`SELECT a FROM t WHERE a = ?; SELECT b FROM t WHERE b = $1`)
	if err != nil || len(texts) != 2 {
		t.Fatalf("per-statement styles in a script: %v (%d stmts)", err, len(texts))
	}
	for _, text := range texts {
		stmt, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		// '?' numbering also restarts per statement.
		if p := stmt.(*Select).Where.(*Binary).R.(*Param); p.Idx != 0 {
			t.Fatalf("%q parameter ordinal = %d", text, p.Idx)
		}
	}
}

func TestSplitScript(t *testing.T) {
	src := `CREATE TABLE t (a INT); -- trailing comment
INSERT INTO t VALUES (1), (2);
SELECT 'semi; colon' FROM t;
SELECT a FROM t`
	stmts, err := SplitScript(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 4 {
		t.Fatalf("SplitScript produced %d statements, want 4: %#v", len(stmts), stmts)
	}
	if !strings.Contains(stmts[2], "semi; colon") {
		t.Fatalf("semicolon inside string literal split the statement: %q", stmts[2])
	}
	// Every piece must parse on its own.
	for _, s := range stmts {
		if _, err := Parse(s); err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
	}
	// Empty input and bare semicolons produce nothing.
	for _, empty := range []string{"", " ;; ", "-- just a comment"} {
		got, err := SplitScript(empty)
		if err != nil || len(got) != 0 {
			t.Fatalf("SplitScript(%q) = %v, %v", empty, got, err)
		}
	}
}

func TestWalkExprsVisitsInsertTuples(t *testing.T) {
	stmt, err := Parse(`INSERT INTO t VALUES (1 + ?, 'x')`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	WalkExprs(stmt, func(e Expr) {
		kinds = append(kinds, reflect.TypeOf(e).String())
	})
	want := []string{"*sqlparse.Binary", "*sqlparse.Lit", "*sqlparse.Param", "*sqlparse.Lit"}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("WalkExprs visited %v, want %v", kinds, want)
	}
}
