package sqlparser

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"myriad/internal/value"
)

func TestShapeKeysAndArgs(t *testing.T) {
	cases := []struct {
		sql  string
		key  string
		args []value.Value
	}{
		{`SELECT id, name FROM PARTS WHERE id = 42`, `SELECT id, name FROM PARTS WHERE id = ?`,
			[]value.Value{value.NewInt(42)}},
		{`SELECT a FROM t WHERE s = 'it''s' AND f > 2.5 AND e < 1e3`, `SELECT a FROM t WHERE s = ? AND f > ? AND e < ?`,
			[]value.Value{value.NewText("it's"), value.NewFloat(2.5), value.NewFloat(1000)}},
		// Too big for int64: a float slot, as parsePrimary reads it.
		{`SELECT 9223372036854775808`, `SELECT ?`, []value.Value{value.NewFloat(9223372036854775808)}},
		// Row counts are grammar, not expressions.
		{`SELECT a FROM t ORDER BY a LIMIT 10 OFFSET 5`, `SELECT a FROM t ORDER BY a LIMIT 10 OFFSET 5`, nil},
		{`SELECT a FROM t OFFSET 5 ROWS FETCH FIRST 10 ROWS ONLY`, `SELECT a FROM t OFFSET 5 ROWS FETCH FIRST 10 ROWS ONLY`, nil},
		{`SELECT a FROM t WHERE b = 7 LIMIT 3`, `SELECT a FROM t WHERE b = ? LIMIT 3`, []value.Value{value.NewInt(7)}},
		// Keywords stay; the sign stays and Bind folds it.
		{`SELECT TRUE, FALSE, NULL, -5`, `SELECT TRUE, FALSE, NULL, -?`, []value.Value{value.NewInt(5)}},
		// Comments and spacing are kept as written.
		{"SELECT /* 'x' */ 1 -- 2\n", "SELECT /* 'x' */ ? -- 2\n", []value.Value{value.NewInt(1)}},
		{`SELECT a FROM t WHERE k IN (1,'a')`, `SELECT a FROM t WHERE k IN (?,?)`,
			[]value.Value{value.NewInt(1), value.NewText("a")}},
	}
	for _, tc := range cases {
		key, args, err := Shape(tc.sql)
		if err != nil {
			t.Fatalf("Shape(%q): %v", tc.sql, err)
		}
		if key != tc.key {
			t.Errorf("Shape(%q) key = %q, want %q", tc.sql, key, tc.key)
		}
		if len(args) != len(tc.args) {
			t.Fatalf("Shape(%q) args = %v, want %v", tc.sql, args, tc.args)
		}
		for i := range args {
			if args[i].K != tc.args[i].K || args[i].String() != tc.args[i].String() {
				t.Errorf("Shape(%q) arg %d = %v (%v), want %v (%v)", tc.sql, i, args[i], args[i].K, tc.args[i], tc.args[i].K)
			}
		}
		assertShapeBinds(t, tc.sql)
	}
}

func TestShapeSameKeyForDifferentLiterals(t *testing.T) {
	k1, _, err1 := Shape(`SELECT id FROM PARTS WHERE id = 1`)
	k2, _, err2 := Shape(`SELECT id FROM PARTS WHERE id = 31337`)
	if err1 != nil || err2 != nil || k1 != k2 {
		t.Fatalf("keys differ: %q (%v) vs %q (%v)", k1, err1, k2, err2)
	}
}

func TestShapeRejectsUnboundSlot(t *testing.T) {
	_, _, err := Shape(`SELECT a FROM t WHERE b = ?`)
	var perr *Error
	if !errors.As(err, &perr) || perr.Pos != 26 {
		t.Fatalf("Shape with a ? in the text: err = %v, want a parse error at offset 26", err)
	}
	// The template parses, prints its slot, and refuses to run short.
	tmpl, err := Parse(`SELECT a FROM t WHERE b = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if got := tmpl.String(); got != `SELECT a FROM t WHERE b = ?` {
		t.Fatalf("template prints %q", got)
	}
	if _, err := Bind(tmpl, nil); err == nil {
		t.Fatal("Bind with a missing argument succeeded")
	}
}

func TestBindLeavesTemplateAlone(t *testing.T) {
	key, args, err := Shape(`SELECT a FROM t WHERE b = -3 AND c IN ('x', 'y') ORDER BY a LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := Parse(key)
	if err != nil {
		t.Fatal(err)
	}
	before := tmpl.String()
	bound, err := Bind(tmpl, args)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bound.String(), `SELECT a FROM t WHERE b = -3 AND c IN ('x', 'y') ORDER BY a LIMIT 2`; got != want {
		t.Fatalf("bound = %q, want %q", got, want)
	}
	// Mutating the bound copy must not reach the template.
	bsel := bound.(*Select)
	bsel.Where.(*BinaryExpr).L.(*BinaryExpr).R.(*Literal).Val = value.NewInt(99)
	bsel.Limit.Count = 7
	if tmpl.String() != before {
		t.Fatalf("template changed: %q, was %q", tmpl.String(), before)
	}
	// A unary minus over a non-slot operand is not folded.
	neg := &Select{Items: []SelectItem{{Expr: &UnaryExpr{Op: "-", E: &Literal{Val: value.NewInt(1)}}}}}
	out, err := Bind(neg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, still := out.(*Select).Items[0].Expr.(*UnaryExpr); !still {
		t.Fatalf("Bind folded a unary minus it did not bind: %s", out)
	}
}

// assertShapeBinds checks the shaper's contract on one statement:
// Bind(Parse(key), args) prints exactly as Parse(sql) does.
func assertShapeBinds(t *testing.T, sql string) {
	t.Helper()
	want, err := Parse(sql)
	if err != nil {
		return
	}
	key, args, err := Shape(sql)
	if err != nil {
		var perr *Error
		if errors.As(err, &perr) && perr.Pos < len(sql) && sql[perr.Pos] == '?' {
			return // a ? in the text has no value to bind
		}
		t.Fatalf("Shape(%q) failed where Parse succeeds: %v", sql, err)
	}
	tmpl, err := Parse(key)
	if err != nil {
		t.Fatalf("key of %q does not parse\n key: %q\n err: %v", sql, key, err)
	}
	bound, err := Bind(tmpl, args)
	if err != nil {
		t.Fatalf("Bind(Parse(%q)): %v", key, err)
	}
	if got, exp := FormatStatement(bound, nil), FormatStatement(want, nil); got != exp {
		t.Fatalf("bound template differs from the parse\ninput: %q\n  key: %q\n  got: %q\n want: %q", sql, key, got, exp)
	}
}

// shapeSeeds adds FuzzParse's stored corpus, the benchmark's query
// shapes and a sample of the generated-query corpus to parseSeeds.
func shapeSeeds(t testing.TB) []string {
	seeds := append([]string(nil), parseSeeds...)
	files, _ := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", "*"))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if quoted, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				seeds = append(seeds, s)
			}
		}
	}
	return append(seeds,
		// bench/gen.go's read workloads.
		`SELECT id, name, price FROM PARTS WHERE id = 1234`,
		`SELECT id, name, weight, price, category FROM PARTS WHERE weight >= 250 AND weight < 350`,
		`SELECT c.region, COUNT(*), SUM(o.amount) FROM CUSTOMERS c JOIN ORDERS o ON c.cid = o.cust WHERE c.tier = 'gold' AND o.amount > 320 GROUP BY c.region ORDER BY c.region`,
		`SELECT id, name, price FROM PARTS WHERE weight >= 12 AND weight < 345 ORDER BY price`,
		`UPDATE ACCT SET bal = bal - 7 WHERE id = 3`,
		// A sample of internal/testfed's generated corpus.
		`SELECT note, dept, pay, id FROM E WHERE NOT id IN (93, 146, 72) ORDER BY note, pay, dept, id DESC LIMIT 39`,
		`SELECT l.id, l.dept, r.pay AS rpay FROM X l JOIN X r ON l.dept = r.dept AND l.id < 41 WHERE (l.id IN (163, 116, 180) OR l.pay NOT BETWEEN 47 AND 86) LIMIT 1`,
		`SELECT dept, MAX(pay) AS hi, SUM(pay) AS s FROM U WHERE dept <> 'back\slash' GROUP BY dept ORDER BY dept`,
		`SELECT note, pay + id AS total FROM X WHERE (pay IS NULL OR note = '-- no') LIMIT 29`,
		`SELECT id, dept FROM E UNION SELECT id, dept FROM X ORDER BY dept, id LIMIT 3 OFFSET 13`,
		`SELECT note, COUNT(*) AS n, COUNT(pay) AS np, SUM(pay) AS s, MAX(pay) AS hi, MIN(id) AS lo FROM U WHERE ((pay <= 29 OR dept = 'O''Brien') AND pay <= 79) GROUP BY note ORDER BY note LIMIT 24`,
		`SELECT note, COUNT(*) AS n FROM X WHERE NOT ((id BETWEEN 97 AND 122 AND dept = '') OR pay + id > 90) GROUP BY note LIMIT 23`,
		`SELECT l.id, l.dept, r.pay AS rpay FROM E l JOIN U r ON l.id = r.id WHERE (r.dept LIKE 's%' OR r.dept = 'r&d') ORDER BY l.dept DESC, rpay DESC, l.id LIMIT 19 OFFSET 12`,
		`SELECT id, dept FROM X WHERE (pay > 13 AND id IN (180, 164, 85)) UNION ALL SELECT id, dept FROM X WHERE NOT ((pay <= 54 AND note = '-- no') AND id < 29)`,
		`SELECT DISTINCT note FROM X WHERE ((pay > 80 AND dept <> 'a--b') AND id BETWEEN 199 AND 200) ORDER BY note`,
		`SELECT l.id, l.dept, r.pay AS rpay FROM E l JOIN U r ON l.dept = r.dept AND l.id < 41 WHERE NOT ((r.dept IN ('r&d', '/*x*/') AND r.pay > 61) AND l.pay > 15) LIMIT 27`,
	)
}

func TestShapeBindSeeds(t *testing.T) {
	for _, sql := range shapeSeeds(t) {
		assertShapeBinds(t, sql)
	}
}

// FuzzShapeBind checks the shaper against the parser on arbitrary
// input: for anything Parse accepts, the bound template of its shape
// prints byte-identically to the parse itself.
func FuzzShapeBind(f *testing.F) {
	for _, s := range shapeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		assertShapeBinds(t, sql)
	})
}
