package localdb

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/value"
)

// kindsDB holds t(id, f, s, b, n) with n rows: every kind, NULLs, -0.0,
// NaN, infinities and TEXT holding the row key's separator.
func kindsDB(t testing.TB, n int) *DB {
	t.Helper()
	db := New("kinds")
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, f FLOAT, s TEXT, b BOOLEAN, n INTEGER)`)
	fs := []value.Value{value.NewFloat(math.Copysign(0, -1)), value.NewFloat(math.NaN()), value.NewFloat(1.5),
		value.NewFloat(math.Inf(1)), value.Null()}
	ss := []value.Value{value.NewText("a\x1f\x04b"), value.NewText(""), value.NewText("plain"), value.Null()}
	bs := []value.Value{value.NewBool(true), value.NewBool(false), value.Null()}
	rows := make([]schema.Row, n)
	for i := range rows {
		nv := value.Null()
		if i%4 != 0 {
			nv = value.NewInt(int64(i * 7))
		}
		rows[i] = schema.Row{value.NewInt(int64(i)), fs[i%len(fs)], ss[i%len(ss)], bs[i%len(bs)], nv}
	}
	if err := db.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// encodeRows is the row path's bytes: value.AppendRow of each row.
func encodeRows(rows []schema.Row) []byte {
	var b []byte
	for _, r := range rows {
		b = value.AppendRow(b, r)
	}
	return b
}

// appendAll drains rows through AppendRows, max rows a call, checking
// that no call exceeds max.
func appendAll(t testing.TB, ctx context.Context, rows *Rows, max int) ([]byte, int, error) {
	t.Helper()
	var b []byte
	total := 0
	for {
		var n int
		var err error
		b, n, err = rows.AppendRows(ctx, b, max)
		if n > max {
			t.Fatalf("AppendRows handed out %d rows for max %d", n, max)
		}
		total += n
		if err != nil || n == 0 {
			return b, total, err
		}
	}
}

// plainScan reports whether sql's stream encodes on the plain-scan path.
func plainScan(t testing.TB, db *DB, sql string) bool {
	t.Helper()
	rows, err := db.QueryStream(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	p, ok := rows.it.(*projIter)
	return ok && p.src != nil
}

// TestScanBatchMatchesRowPath: AppendRows yields exactly the bytes of
// value.AppendRow over db.Query's rows, whatever the batch size it is
// asked for, on the plain-scan path (heap scan, WHERE, bare columns —
// star, repeated and reordered) and on the row path every other shape
// keeps. A plain scan's rows, which Next also reads off the scan
// batches, equal the same query's under ORDER BY id: a sort or an index
// walk over the row-at-a-time filter, in the same order, since the rows
// were loaded in id order.
func TestScanBatchMatchesRowPath(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		sql   string
		plain bool
	}{
		{`SELECT * FROM t`, true},
		{`SELECT s, id, s, f FROM t`, true},
		{`SELECT t.b, n FROM t WHERE id >= 0`, true},
		{`SELECT id FROM t WHERE id < 0`, true},
		{`SELECT f, s FROM t WHERE n > 100 AND id % 3 <> 1`, true},
		{`SELECT id, s FROM t WHERE s = 'plain' OR b IS NULL`, true},
		{`SELECT id + 1 FROM t`, false},
		{`SELECT DISTINCT b FROM t`, false},
		{`SELECT id FROM t LIMIT 300`, false},
		{`SELECT id, f FROM t ORDER BY id DESC`, false},
		{`SELECT b, COUNT(*) FROM t GROUP BY b`, false},
		{`SELECT id FROM t WHERE id = 7`, false},
		{`SELECT x.id, y.s FROM t x, t y WHERE x.id = y.id`, false},
	}
	for _, n := range []int{0, 1, 255, 256, 257, 513} {
		db := kindsDB(t, n)
		for _, tc := range cases {
			sql := tc.sql
			if got := plainScan(t, db, sql); got != tc.plain {
				t.Fatalf("%s: plain-scan path %v, want %v", sql, got, tc.plain)
			}
			rs, err := db.Query(ctx, sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			want := encodeRows(rs.Rows)
			if tc.plain {
				if got := rowPath(t, db, sql); string(got) != string(want) {
					t.Fatalf("%d rows, %s: Next's rows differ from the row path's", n, sql)
				}
			}
			for _, max := range []int{1, 7, scanBatchSize, 1000} {
				rows, err := db.QueryStream(ctx, sql)
				if err != nil {
					t.Fatal(err)
				}
				got, count, err := appendAll(t, ctx, rows, max)
				rows.Close()
				if err != nil {
					t.Fatalf("%d rows, %s, max %d: %v", n, sql, max, err)
				}
				if count != len(rs.Rows) || string(got) != string(want) {
					t.Fatalf("%d rows, %s, max %d: %d rows, %d bytes; row path %d rows, %d bytes",
						n, sql, max, count, len(got), len(rs.Rows), len(want))
				}
			}
		}
	}
}

// rowPath is the bytes of sql's rows under ORDER BY id, which no plain
// scan serves: the row-at-a-time filter, in heap order for rows loaded
// in id order.
func rowPath(t testing.TB, db *DB, sql string) []byte {
	t.Helper()
	ordered := sql + " ORDER BY id"
	if plainScan(t, db, ordered) {
		t.Fatalf("%s: on the plain-scan path", ordered)
	}
	rs, err := db.Query(context.Background(), ordered)
	if err != nil {
		t.Fatalf("%s: %v", ordered, err)
	}
	return encodeRows(rs.Rows)
}

// TestScanBatchPredicateError: a WHERE that fails on one row partway
// into the scan fails AppendRows with the row path's error, after
// exactly the rows that qualified before it — none of which a call
// asked for max rows is told about alongside the error.
func TestScanBatchPredicateError(t *testing.T) {
	ctx := context.Background()
	db := kindsDB(t, 600)
	for _, bad := range []int{0, 255, 256, 300, 599} {
		sql := fmt.Sprintf(`SELECT id, s FROM t WHERE 10 / (id - %d) <> 99`, bad)
		if !plainScan(t, db, sql) {
			t.Fatalf("%s: not on the plain-scan path", sql)
		}
		_, rowErr := db.Query(ctx, sql)
		if rowErr == nil {
			t.Fatalf("%s: row path succeeded", sql)
		}
		// The row path's rows before the failure.
		before, err := db.Query(ctx, fmt.Sprintf(`SELECT id, s FROM t WHERE id < %d`, bad))
		if err != nil {
			t.Fatal(err)
		}
		for _, max := range []int{1, 100, scanBatchSize} {
			rows, err := db.QueryStream(ctx, sql)
			if err != nil {
				t.Fatal(err)
			}
			got, count, err := appendAll(t, ctx, rows, max)
			if err == nil || err.Error() != rowErr.Error() {
				t.Fatalf("%s, max %d: error %v, want %v", sql, max, err, rowErr)
			}
			if count != bad || string(got) != string(encodeRows(before.Rows)) {
				t.Fatalf("%s, max %d: %d rows before the error, want %d", sql, max, count, bad)
			}
			if _, n, again := rows.AppendRows(ctx, nil, max); n != 0 || again != err {
				t.Fatalf("%s: after the error AppendRows gave %d rows, %v", sql, n, again)
			}
			rows.Close()
		}
	}
}

// FuzzScanBatch: random rows under a random range or equality WHERE
// and a random bare-column projection; the plain-scan path's bytes,
// asked for a random number of rows a call, and its rows as Next reads
// them equal value.AppendRow of the row path's result.
func FuzzScanBatch(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0, 4, 9, 200, 17, 5})
	f.Add([]byte{0})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	cols := []string{"id", "f", "s", "b", "n"}
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzBytes{data: data}
		db := New("fuzz")
		db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, f FLOAT, s TEXT, b BOOLEAN, n INTEGER)`)
		texts := []string{"", "a", "a\x1fb", "\x1e", "zz", "\xff"}
		floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -2, math.Inf(1)}
		// Constants the WHERE compares with: SQL literals.
		litTexts := []string{"", "a", "a b", "zz"}
		litFloats := []string{"0", "-0.0", "1.5", "-2", "1e300"}
		rows := make([]schema.Row, int(r.next())*3)
		for i := range rows {
			row := schema.Row{value.NewInt(int64(i)), value.Null(), value.Null(), value.Null(), value.Null()}
			if k := r.next(); k%5 != 0 {
				row[1] = value.NewFloat(floats[int(k)%len(floats)])
			}
			if k := r.next(); k%5 != 0 {
				row[2] = value.NewText(texts[int(k)%len(texts)])
			}
			if k := r.next(); k%3 != 0 {
				row[3] = value.NewBool(k%3 == 1)
			}
			if k := r.next(); k%4 != 0 {
				row[4] = value.NewInt(int64(k) - 128)
			}
			rows[i] = row
		}
		if err := db.Load("t", rows); err != nil {
			t.Fatal(err)
		}
		items := make([]string, 1+int(r.next())%6)
		for i := range items {
			items[i] = cols[int(r.next())%len(cols)]
		}
		sql := "SELECT " + strings.Join(items, ", ") + " FROM t"
		switch k := r.next() % 4; {
		case k == 1:
			// Not id = c: that is a primary-key probe, not a scan.
			sql += fmt.Sprintf(" WHERE id %s %d", ops[1+int(r.next())%(len(ops)-1)], int(r.next())*2)
		case k == 2:
			sql += fmt.Sprintf(" WHERE n %s %d AND f >= %s", ops[int(r.next())%len(ops)], int(r.next())-128, litFloats[int(r.next())%len(litFloats)])
		case k == 3:
			sql += fmt.Sprintf(" WHERE s %s '%s'", ops[int(r.next())%len(ops)], litTexts[int(r.next())%len(litTexts)])
		}
		if !plainScan(t, db, sql) {
			t.Fatalf("%s: not on the plain-scan path", sql)
		}
		ctx := context.Background()
		want := rowPath(t, db, sql)
		rs, err := db.Query(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if string(encodeRows(rs.Rows)) != string(want) {
			t.Fatalf("%s: Next's rows differ from the row path's", sql)
		}
		stream, err := db.QueryStream(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Close()
		got, n, err := appendAll(t, ctx, stream, 1+int(r.next()))
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if n != len(rs.Rows) || string(got) != string(want) {
			t.Fatalf("%s: %d rows, %q; row path %d rows", sql, n, got, len(rs.Rows))
		}
	})
}

// fuzzBytes reads fuzz input a byte at a time, zeros once it runs out.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (r *fuzzBytes) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	r.pos++
	return r.data[r.pos-1]
}
