package localdb

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/sqlparser"
	"myriad/internal/value"
)

// TestIntegerKeysAbove2p53 pins that hash-join keys and IN-lists keep
// INTEGERs exact: 9007199254740993 and 9007199254740992 are distinct
// INTEGERs that share one float64.
func TestIntegerKeysAbove2p53(t *testing.T) {
	db := New("big")
	db.MustExec(`CREATE TABLE a (k INTEGER)`)
	db.MustExec(`CREATE TABLE b (k INTEGER)`)
	db.MustExec(`CREATE TABLE c (k FLOAT)`)
	db.MustExec(`INSERT INTO a VALUES (9007199254740993), (1)`)
	db.MustExec(`INSERT INTO b VALUES (9007199254740992), (1)`)
	db.MustExec(`INSERT INTO c VALUES (9007199254740992.0), (1.0)`)
	for _, tc := range []struct {
		sql  string
		want []string
	}{
		{`SELECT a.k FROM a JOIN b ON a.k = b.k`, []string{"1"}},
		{`SELECT k FROM a WHERE k = 9007199254740992`, nil},
		{`SELECT k FROM a WHERE k IN (9007199254740992, 1, 2, 3, 4, 5, 6, 7)`, []string{"1"}},
		{`SELECT k FROM a WHERE k IN (9007199254740992, 2)`, nil},
		{`SELECT k FROM a WHERE k IN (9007199254740993, 2, 3, 4, 5, 6, 7, 8)`, []string{"9007199254740993"}},
		// An integral FLOAT still joins and matches its INTEGER.
		{`SELECT b.k FROM b JOIN c ON b.k = c.k`, []string{"9007199254740992", "1"}},
		{`SELECT k FROM c WHERE k IN (9007199254740992, 2, 3, 4, 5, 6, 7, 8)`, []string{"9.007199254740992e+15"}},
	} {
		rs, err := db.Query(context.Background(), tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		var got []string
		for _, r := range rs.Rows {
			got = append(got, r[0].Text())
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%s: got %v, want %v", tc.sql, got, tc.want)
		}
	}
}

// TestTextOperandOfAndOr: a TEXT operand of AND or OR is an error, the
// same one a TEXT WHERE clause or NOT raises; CASE still reads a TEXT
// condition as not selecting its arm.
func TestTextOperandOfAndOr(t *testing.T) {
	db := New("txt")
	db.MustExec(`CREATE TABLE a (k INTEGER, n TEXT)`)
	db.MustExec(`INSERT INTO a VALUES (2, 'x'), (3, 'y')`)
	ctx := context.Background()
	for _, where := range []string{`n AND k > 1`, `k > 1 AND n`, `k < 1 OR n`, `n OR k > 1`, `n`, `NOT n`} {
		_, err := db.Query(ctx, `SELECT k FROM a WHERE `+where)
		if err == nil || !strings.Contains(err.Error(), "predicate evaluated to TEXT") {
			t.Errorf("WHERE %s: err %v, want predicate evaluated to TEXT", where, err)
		}
	}
	// The right operand is not evaluated once the left decides.
	for _, where := range []string{`k < 1 AND n`, `k > 1 OR n`} {
		if _, err := db.Query(ctx, `SELECT k FROM a WHERE `+where); err != nil {
			t.Errorf("WHERE %s: %v", where, err)
		}
	}
	rs, err := db.Query(ctx, `SELECT CASE WHEN n THEN 'arm' ELSE 'else' END FROM a`)
	if err != nil || rs.Rows[0][0].Text() != "else" {
		t.Fatalf("CASE WHEN n: %v %v", rs, err)
	}
}

// TestPredicateCompilerMatchesReference draws random condition trees
// and checks the compiled predicate, both as a WHERE filter and as a
// projected value, against refTruth, a tree walk over value.Compare and
// Value.Bool.
func TestPredicateCompilerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	db := New("prop")
	db.MustExec(`CREATE TABLE p (id INTEGER, i INTEGER, f FLOAT, s TEXT, b BOOLEAN)`)
	for id := 0; id < 48; id++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO p VALUES (%d, %s, %s, %s, %s)`, id,
			pick(rng, genInts), pick(rng, genFloats), pick(rng, genTexts), pick(rng, []string{"TRUE", "FALSE", "NULL"})))
	}
	ctx := context.Background()
	all, err := db.Query(ctx, `SELECT * FROM p`)
	if err != nil {
		t.Fatal(err)
	}
	cols := all.Columns
	g := &predGen{rng: rng}
	for trial := 0; trial < 3000; trial++ {
		cond := g.pred(3)
		stmt, err := sqlparser.Parse(`SELECT id FROM p WHERE ` + cond)
		if err != nil {
			t.Fatalf("parse %s: %v", cond, err)
		}
		expr := stmt.(*sqlparser.Select).Where

		// As a WHERE filter: the ids where the reference is TRUE, or the
		// first row's error in scan order.
		var wantIDs []string
		var wantErr error
		for _, row := range all.Rows {
			tr, err := refTruth(expr, row, cols)
			if err != nil {
				wantErr = err
				break
			}
			if tr == True {
				wantIDs = append(wantIDs, row[0].Text())
			}
		}
		rs, err := db.Query(ctx, `SELECT id FROM p WHERE `+cond)
		if !sameErr(err, wantErr) {
			t.Fatalf("WHERE %s: err %v, want %v", cond, err, wantErr)
		}
		if err == nil {
			var got []string
			for _, r := range rs.Rows {
				got = append(got, r[0].Text())
			}
			if strings.Join(got, ",") != strings.Join(wantIDs, ",") {
				t.Fatalf("WHERE %s: ids %v, want %v", cond, got, wantIDs)
			}
		}

		// As a projected value: BOOLEAN or NULL per row. A bare value
		// projects as itself, so only operator trees are checked here.
		if !isPredicate(expr) {
			continue
		}
		var wantVals []string
		wantErr = nil
		for _, row := range all.Rows {
			tr, err := refTruth(expr, row, cols)
			if err != nil {
				wantErr = err
				break
			}
			wantVals = append(wantVals, truthValue(tr).Text())
		}
		rs, err = db.Query(ctx, `SELECT `+cond+` FROM p`)
		if !sameErr(err, wantErr) {
			t.Fatalf("SELECT %s: err %v, want %v", cond, err, wantErr)
		}
		if err == nil {
			var got []string
			for _, r := range rs.Rows {
				got = append(got, r[0].Text())
			}
			if strings.Join(got, ",") != strings.Join(wantVals, ",") {
				t.Fatalf("SELECT %s: %v, want %v", cond, got, wantVals)
			}
		}
	}
}

func sameErr(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return strings.Contains(got.Error(), want.Error())
}

var (
	genInts   = []string{"NULL", "0", "1", "7", "-3", "9007199254740992", "9007199254740993", "-9007199254740993", "9007199254740991"}
	genFloats = []string{"NULL", "0.0", "1.0", "7.5", "-3.25", "9007199254740992.0", "-9007199254740992.0", "1e300"}
	genTexts  = []string{"NULL", "''", "'a'", "'abc'", "'7'", "'9007199254740993'", "'1.0'", "'b%'"}
)

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

// predGen draws condition trees as SQL text.
type predGen struct{ rng *rand.Rand }

func (g *predGen) pred(depth int) string {
	r := g.rng.Intn(10)
	if depth == 0 {
		r = 3 + g.rng.Intn(7)
	}
	switch r {
	case 0:
		return "(" + g.pred(depth-1) + " AND " + g.pred(depth-1) + ")"
	case 1:
		return "(" + g.pred(depth-1) + " OR " + g.pred(depth-1) + ")"
	case 2:
		return "NOT (" + g.pred(depth-1) + ")"
	case 3, 4:
		return g.operand() + " " + pick(g.rng, []string{"=", "<>", "<", "<=", ">", ">="}) + " " + g.operand()
	case 5:
		return g.operand() + pick(g.rng, []string{" IS NULL", " IS NOT NULL"})
	case 6:
		n := 1 + g.rng.Intn(3)
		if g.rng.Intn(2) == 0 {
			n = 8 + g.rng.Intn(5)
		}
		items := make([]string, n)
		kinds := g.rng.Intn(4) // 0 INTEGER, 1 numeric, 2 TEXT, 3 anything
		for i := range items {
			switch kinds {
			case 0:
				items[i] = pick(g.rng, genInts[1:])
			case 1:
				items[i] = pick(g.rng, append(genInts[1:], genFloats[1:]...))
			case 2:
				items[i] = pick(g.rng, genTexts[1:])
			default:
				items[i] = g.literal()
			}
		}
		return g.operand() + pick(g.rng, []string{" IN (", " NOT IN ("}) + strings.Join(items, ", ") + ")"
	case 7:
		return g.operand() + pick(g.rng, []string{" BETWEEN ", " NOT BETWEEN "}) + g.operand() + " AND " + g.operand()
	case 8:
		return g.operand() + " LIKE " + pick(g.rng, []string{"'a%'", "'%'", "'_'", "s", "'7'"})
	default:
		// A bare value as a condition: numbers and BOOLEANs read as
		// truth values, TEXT is an error.
		return pick(g.rng, []string{"i", "f", "b", "s", "TRUE", "NULL", "(i > 0) = b"})
	}
}

// operand is a column, a literal, a column-free expression the compiler
// folds, or column arithmetic.
func (g *predGen) operand() string {
	switch g.rng.Intn(8) {
	case 0, 1, 2:
		return pick(g.rng, []string{"i", "f", "s", "b", "id"})
	case 3, 4:
		return g.literal()
	case 5:
		return pick(g.rng, []string{"2 + 5", "-3", "-(9007199254740992)", "1 / 0", "'a' || 'bc'", "9007199254740992 + 1", "UPPER('abc')"})
	case 6:
		return pick(g.rng, []string{"i + 1", "f * 2", "-i", "s || 'x'"})
	default:
		return pick(g.rng, []string{"i", "f"})
	}
}

func (g *predGen) literal() string {
	switch g.rng.Intn(4) {
	case 0:
		return pick(g.rng, genInts)
	case 1:
		return pick(g.rng, genFloats)
	case 2:
		return pick(g.rng, genTexts)
	default:
		return pick(g.rng, []string{"TRUE", "FALSE", "NULL"})
	}
}

// refTruth is the reference semantics of a condition, written without
// the compiler: a direct walk of the tree.
func refTruth(e sqlparser.Expr, row schema.Row, cols []string) (Truth, error) {
	truth := func(e sqlparser.Expr) (Truth, error) { return refTruth(e, row, cols) }
	val := func(e sqlparser.Expr) (value.Value, error) { return refValue(e, row, cols) }
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			stop := False // AND stops on FALSE, OR on TRUE
			if x.Op == "OR" {
				stop = True
			}
			a, err := truth(x.L)
			if err != nil || a == stop {
				return a, err
			}
			b, err := truth(x.R)
			if err != nil || b == stop {
				return b, err
			}
			if a == Unknown || b == Unknown {
				return Unknown, nil
			}
			return a, nil
		case "LIKE":
			l, err := val(x.L)
			if err != nil {
				return Unknown, err
			}
			r, err := val(x.R)
			if err != nil {
				return Unknown, err
			}
			return valueTruth(value.Like(l, r))
		case "=", "<>", "<", "<=", ">", ">=":
			l, err := val(x.L)
			if err != nil {
				return Unknown, err
			}
			r, err := val(x.R)
			if err != nil {
				return Unknown, err
			}
			c, ok := value.Compare(l, r)
			if !ok {
				return Unknown, nil
			}
			return boolTruth(map[string]bool{
				"=": c == 0, "<>": c != 0, "<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0,
			}[x.Op]), nil
		}
	case *sqlparser.UnaryExpr:
		if x.Op == "NOT" {
			a, err := truth(x.E)
			if err != nil || a == Unknown {
				return Unknown, err
			}
			return boolTruth(a == False), nil
		}
	case *sqlparser.IsNullExpr:
		v, err := val(x.E)
		if err != nil {
			return Unknown, err
		}
		return boolTruth(v.IsNull() != x.Not), nil
	case *sqlparser.InExpr:
		v, err := val(x.E)
		if err != nil {
			return Unknown, err
		}
		items := make([]value.Value, len(x.List))
		for i, it := range x.List {
			if items[i], err = val(it); err != nil {
				return Unknown, err
			}
		}
		if v.IsNull() {
			return Unknown, nil
		}
		sawNull := false
		for _, it := range items {
			if c, ok := value.Compare(v, it); ok && c == 0 {
				return boolTruth(!x.Not), nil
			}
			sawNull = sawNull || it.IsNull()
		}
		if sawNull {
			return Unknown, nil
		}
		return boolTruth(x.Not), nil
	case *sqlparser.BetweenExpr:
		v, err := val(x.E)
		if err != nil {
			return Unknown, err
		}
		lo, err := val(x.Lo)
		if err != nil {
			return Unknown, err
		}
		hi, err := val(x.Hi)
		if err != nil {
			return Unknown, err
		}
		c1, ok1 := value.Compare(v, lo)
		c2, ok2 := value.Compare(v, hi)
		if !ok1 || !ok2 {
			return Unknown, nil
		}
		return boolTruth((c1 >= 0 && c2 <= 0) != x.Not), nil
	}
	return valueTruth(val(e))
}

func valueTruth(v value.Value, err error) (Truth, error) {
	if err != nil || v.IsNull() {
		return Unknown, err
	}
	b, ok := v.Bool()
	if !ok {
		return Unknown, fmt.Errorf("localdb: predicate evaluated to %s", v.K)
	}
	return boolTruth(b), nil
}

// refValue evaluates the value expressions predGen draws.
func refValue(e sqlparser.Expr, row schema.Row, cols []string) (value.Value, error) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return x.Val, nil
	case *sqlparser.ColumnRef:
		for i, c := range cols {
			if strings.EqualFold(c, x.Column) {
				return row[i], nil
			}
		}
		return value.Null(), fmt.Errorf("no column %s", x.Column)
	case *sqlparser.BinaryExpr:
		if isPredicate(x) {
			t, err := refTruth(x, row, cols)
			return truthValue(t), err
		}
		l, err := refValue(x.L, row, cols)
		if err != nil {
			return l, err
		}
		r, err := refValue(x.R, row, cols)
		if err != nil {
			return r, err
		}
		return value.Arith(x.Op, l, r)
	case *sqlparser.UnaryExpr:
		v, err := refValue(x.E, row, cols)
		if err != nil {
			return v, err
		}
		return value.Neg(v)
	case *sqlparser.FuncExpr:
		v, err := refValue(x.Args[0], row, cols)
		return value.NewText(strings.ToUpper(v.Text())), err
	}
	return value.Null(), fmt.Errorf("refValue: unexpected %T", e)
}
