package sqlparser

import (
	"strings"
	"testing"
	"testing/quick"

	"myriad/internal/value"
)

// roundTrips asserts Parse -> Format is a fixpoint after one iteration:
// format(parse(sql)) == format(parse(format(parse(sql)))).
func roundTrips(t *testing.T, sql string) string {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	once := FormatStatement(stmt, nil)
	stmt2, err := Parse(once)
	if err != nil {
		t.Fatalf("reparse %q: %v", once, err)
	}
	twice := FormatStatement(stmt2, nil)
	if once != twice {
		t.Errorf("printer not a fixpoint:\n once: %s\ntwice: %s", once, twice)
	}
	return once
}

func TestParseSelectForms(t *testing.T) {
	for _, sql := range []string{
		`SELECT 1`,
		`SELECT 1 + 2 * 3`,
		`SELECT * FROM t`,
		`SELECT t.* FROM t`,
		`SELECT a, b AS bee FROM t`,
		`SELECT DISTINCT a FROM t`,
		`SELECT a FROM t WHERE x = 1 AND y <> 2 OR NOT z`,
		`SELECT a FROM t WHERE s LIKE 'a%' AND n IN (1, 2, 3)`,
		`SELECT a FROM t WHERE n NOT IN (1) AND m BETWEEN 1 AND 10`,
		`SELECT a FROM t WHERE x IS NULL AND y IS NOT NULL`,
		`SELECT a FROM t1, t2 WHERE t1.x = t2.y`,
		`SELECT a FROM t1 JOIN t2 ON t1.x = t2.y`,
		`SELECT a FROM t1 LEFT JOIN t2 ON t1.x = t2.y`,
		`SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1`,
		`SELECT COUNT(DISTINCT a) FROM t`,
		`SELECT a FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 5`,
		`SELECT a FROM t UNION SELECT b FROM u`,
		`SELECT a FROM t UNION ALL SELECT b FROM u`,
		`SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t`,
		`SELECT UPPER(name) || '!' FROM t`,
		`SELECT -a, -(a + b) FROM t`,
		`SELECT a FROM t WHERE (a + 1) * 2 > 10`,
	} {
		roundTrips(t, sql)
	}
}

func TestParseDMLDDLForms(t *testing.T) {
	for _, sql := range []string{
		`INSERT INTO t VALUES (1, 'x')`,
		`INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`,
		`UPDATE t SET a = a + 1 WHERE id = 3`,
		`UPDATE t SET a = 1, b = 'z'`,
		`DELETE FROM t`,
		`DELETE FROM t WHERE a < 5`,
		`CREATE TABLE t (id INTEGER NOT NULL, name TEXT, PRIMARY KEY (id))`,
		`DROP TABLE t`,
		`CREATE INDEX idx ON t (name)`,
		`CREATE ORDERED INDEX idx ON t (name)`,
	} {
		roundTrips(t, sql)
	}
}

func TestParseCreateIndexKinds(t *testing.T) {
	for _, c := range []struct {
		sql     string
		ordered bool
	}{
		{`CREATE INDEX idx ON t (name)`, false},
		{`CREATE UNIQUE INDEX idx ON t (name)`, false},
		{`CREATE ORDERED INDEX idx ON t (name)`, true},
		{`CREATE UNIQUE ORDERED INDEX idx ON t (name)`, true},
	} {
		stmt, err := Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		ci, ok := stmt.(*CreateIndex)
		if !ok {
			t.Fatalf("%s: got %T", c.sql, stmt)
		}
		if ci.Ordered != c.ordered {
			t.Fatalf("%s: Ordered = %v", c.sql, ci.Ordered)
		}
	}
	// ORDERED is contextual: a table may still be named "ordered".
	if _, err := Parse(`CREATE TABLE ordered (id INTEGER)`); err != nil {
		t.Fatalf("table named ordered: %v", err)
	}
}

func TestParsePrecedence(t *testing.T) {
	cases := []struct{ sql, want string }{
		{`SELECT 1 + 2 * 3`, `SELECT 1 + 2 * 3`},
		{`SELECT (1 + 2) * 3`, `SELECT (1 + 2) * 3`},
		{`SELECT 1 - 2 - 3`, `SELECT 1 - 2 - 3`},
		{`SELECT 1 - (2 - 3)`, `SELECT 1 - (2 - 3)`},
		{`SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3`,
			`SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3`},
		{`SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3`,
			`SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3`},
		{`SELECT a FROM t WHERE NOT a = 1`, `SELECT a FROM t WHERE NOT a = 1`},
	}
	for _, c := range cases {
		got := roundTrips(t, c.sql)
		if got != c.want {
			t.Errorf("%s =>\n got %s\nwant %s", c.sql, got, c.want)
		}
	}
}

func TestParsePrecedenceSemantics(t *testing.T) {
	// 1 - 2 - 3 must parse left-associative: (1-2)-3.
	stmt, err := Parse(`SELECT 1 - 2 - 3`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*Select)
	top := sel.Items[0].Expr.(*BinaryExpr)
	if top.Op != "-" {
		t.Fatalf("top op %q", top.Op)
	}
	if _, ok := top.L.(*BinaryExpr); !ok {
		t.Error("subtraction not left-associative")
	}
	if lit, ok := top.R.(*Literal); !ok || lit.Val.RawInt() != 3 {
		t.Error("right operand should be literal 3")
	}
}

func TestParseLiterals(t *testing.T) {
	stmt, err := Parse(`SELECT 42, -7, 2.5, 1e3, 'it''s', NULL, TRUE, FALSE`)
	if err != nil {
		t.Fatal(err)
	}
	items := stmt.(*Select).Items
	wants := []value.Value{
		value.NewInt(42), value.NewInt(-7), value.NewFloat(2.5), value.NewFloat(1000),
		value.NewText("it's"), value.Null(), value.NewBool(true), value.NewBool(false),
	}
	for i, w := range wants {
		lit, ok := items[i].Expr.(*Literal)
		if !ok {
			t.Fatalf("item %d not a literal: %T", i, items[i].Expr)
		}
		if !value.Identical(lit.Val, w) && !(lit.Val.IsNull() && w.IsNull()) {
			t.Errorf("item %d = %v, want %v", i, lit.Val, w)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, sql := range []string{
		``,
		`SELEC 1`,
		`SELECT`,
		`SELECT a FROM`,
		`SELECT a FROM t WHERE`,
		`SELECT a FROM t GROUP`,
		`SELECT a b c`,
		`INSERT INTO`,
		`INSERT INTO t VALUES`,
		`INSERT INTO t VALUES (1`,
		`UPDATE t`,
		`DELETE t`,
		`CREATE TABLE t ()`,
		`CREATE TABLE t (a BLOB)`,
		`SELECT 'unterminated`,
		`SELECT "unterminated`,
		`SELECT 1 2`,
		`SELECT a FROM t LIMIT x`,
		`SELECT CASE END`,
		`SELECT * FROM t; SELECT 1`, // Parse is single-statement
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		}
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE TABLE t (a INTEGER);
		-- a comment
		INSERT INTO t VALUES (1);
		/* block
		   comment */
		SELECT a FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements, want 3", len(stmts))
	}
}

func TestParseExpr(t *testing.T) {
	e, err := ParseExpr(`a > 1 AND b LIKE 'x%'`)
	if err != nil {
		t.Fatal(err)
	}
	if FormatExpr(e, nil) != `a > 1 AND b LIKE 'x%'` {
		t.Errorf("got %s", FormatExpr(e, nil))
	}
	if _, err := ParseExpr(`a >`); err == nil {
		t.Error("bad expr accepted")
	}
	if _, err := ParseExpr(`a b`); err == nil {
		t.Error("trailing token accepted")
	}
}

func TestFetchFirstForm(t *testing.T) {
	// Oracle-like row limiting parses into the canonical LimitClause.
	stmt, err := Parse(`SELECT a FROM t OFFSET 5 ROWS FETCH FIRST 10 ROWS ONLY`)
	if err != nil {
		t.Fatal(err)
	}
	lim := stmt.(*Select).Limit
	if lim == nil || lim.Count != 10 || lim.Offset != 5 {
		t.Fatalf("limit = %+v", lim)
	}
	stmt, err = Parse(`SELECT a FROM t FETCH FIRST 3 ROWS ONLY`)
	if err != nil {
		t.Fatal(err)
	}
	lim = stmt.(*Select).Limit
	if lim == nil || lim.Count != 3 || lim.Offset != 0 {
		t.Fatalf("limit = %+v", lim)
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	stmt, err := Parse(`SELECT "Weird Name" FROM "TABLE"`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*Select)
	cr := sel.Items[0].Expr.(*ColumnRef)
	if cr.Column != "Weird Name" {
		t.Errorf("quoted ident = %q", cr.Column)
	}
	if sel.From[0].Name != "TABLE" {
		t.Errorf("quoted table = %q", sel.From[0].Name)
	}
}

func TestHelpers(t *testing.T) {
	e, _ := ParseExpr(`a = 1 AND b = 2 AND c = 3`)
	conj := SplitConjuncts(e)
	if len(conj) != 3 {
		t.Fatalf("SplitConjuncts: %d", len(conj))
	}
	re := JoinConjuncts(conj)
	if FormatExpr(re, nil) != `a = 1 AND b = 2 AND c = 3` {
		t.Errorf("JoinConjuncts: %s", FormatExpr(re, nil))
	}
	if JoinConjuncts(nil) != nil {
		t.Error("JoinConjuncts(nil) should be nil")
	}

	cols := ColumnsIn(e)
	if len(cols) != 3 {
		t.Errorf("ColumnsIn: %d", len(cols))
	}

	agg, _ := ParseExpr(`SUM(x) + 1`)
	if !HasAggregate(agg) {
		t.Error("HasAggregate(SUM(x)+1) = false")
	}
	plain, _ := ParseExpr(`UPPER(x)`)
	if HasAggregate(plain) {
		t.Error("HasAggregate(UPPER(x)) = true")
	}
}

func TestRewriteExpr(t *testing.T) {
	e, _ := ParseExpr(`a + b * 2`)
	out := RewriteExpr(e, func(x Expr) Expr {
		if cr, ok := x.(*ColumnRef); ok {
			return &ColumnRef{Table: "t", Column: cr.Column}
		}
		return x
	})
	if FormatExpr(out, nil) != `t.a + t.b * 2` {
		t.Errorf("rewrite: %s", FormatExpr(out, nil))
	}
	// The original is untouched.
	if FormatExpr(e, nil) != `a + b * 2` {
		t.Errorf("original mutated: %s", FormatExpr(e, nil))
	}
}

func TestWalkExprStop(t *testing.T) {
	e, _ := ParseExpr(`f(a, g(b, c))`)
	var seen int
	WalkExpr(e, func(x Expr) bool {
		seen++
		_, isFunc := x.(*FuncExpr)
		return !isFunc || seen == 1 // stop descending into g
	})
	if seen != 4 { // f, a, g (stop) — plus initial f counts once
		t.Logf("visited %d nodes", seen)
	}
}

func TestParseStringPropertyRoundTrip(t *testing.T) {
	// Any string literal survives quoting/parsing, including quotes.
	f := func(s string) bool {
		// The lexer works on bytes; skip strings with NUL to keep the
		// comparison meaningful.
		if strings.ContainsRune(s, 0) {
			return true
		}
		lit := &Literal{Val: value.NewText(s)}
		sql := "SELECT " + FormatExpr(lit, nil)
		stmt, err := Parse(sql)
		if err != nil {
			return false
		}
		got, ok := stmt.(*Select).Items[0].Expr.(*Literal)
		return ok && got.Val.S == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseIntPropertyRoundTrip(t *testing.T) {
	f := func(n int64) bool {
		lit := &Literal{Val: value.NewInt(n)}
		sql := "SELECT " + FormatExpr(lit, nil)
		stmt, err := Parse(sql)
		if err != nil {
			return false
		}
		got, ok := stmt.(*Select).Items[0].Expr.(*Literal)
		if !ok {
			return false
		}
		i, iok := got.Val.Int()
		return iok && i == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeywordLookup(t *testing.T) {
	for w := range keywords {
		if len(w) > maxKeyword {
			t.Errorf("keyword %s is longer than maxKeyword", w)
		}
		if kw, ok := keyword(strings.ToLower(w)); !ok || kw != w {
			t.Errorf("keyword(%q) = %q, %v", strings.ToLower(w), kw, ok)
		}
	}
	for _, w := range []string{"selects", "sel", "ordered", "", "distinctly"} {
		if _, ok := keyword(w); ok {
			t.Errorf("keyword(%q) matched", w)
		}
	}
}
