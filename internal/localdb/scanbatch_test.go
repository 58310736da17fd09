package localdb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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
// were loaded in id order. A hash-index probe's rows equal the query's
// under ORDER BY k, id: its key list ascending, each bucket in insert
// order.
func TestScanBatchMatchesRowPath(t *testing.T) {
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
			if got := plainScan(t, db, tc.sql); got != tc.plain {
				t.Fatalf("%s: plain-scan path %v, want %v", tc.sql, got, tc.plain)
			}
			order := ""
			if tc.plain {
				order = "id"
			}
			checkAppendRows(t, db, tc.sql, order)
		}
	}

	// Hash-index probes, = v and IN (…), matching 0, 1, 255, 256, 257
	// and 513 rows: segment boundaries inside one key's bucket and
	// across keys.
	db := probeDB(t)
	var probes []string
	for k := 10; k <= 15; k++ {
		probes = append(probes, fmt.Sprintf(`SELECT * FROM p WHERE k = %d`, k))
	}
	for _, list := range []string{"10, 99", "10, 11", "99, 12", "12, 11", "16, 11, 12", "14, 13"} {
		probes = append(probes, fmt.Sprintf(`SELECT s, id, k, s FROM p WHERE k IN (%s)`, list))
	}
	probes = append(probes,
		`SELECT id, f FROM p WHERE k IN (13, 14, 15) AND f > 0.5`,
		`SELECT id FROM p WHERE k = 15 AND s <> 'kept'`,
		`SELECT id FROM p WHERE k IN (NULL, 12)`,
	)
	for _, sql := range probes {
		if !probeScan(t, db, sql) {
			t.Fatalf("%s: not a hash-index probe on the plain-scan path", sql)
		}
		checkAppendRows(t, db, sql, "k, id")
	}
}

// probeKeys is probeDB's key population: key → live rows.
var probeKeys = map[int]int{11: 1, 12: 255, 13: 256, 14: 257, 15: 513, 16: 1}

// probeDB holds p(id, k, f, s) with a hash index on k: probeKeys' keys
// (10 is absent), 1,500 distinct filler keys so the planner probes,
// NULL keys, and three more rows a key deleted after the index was
// built — the rows shuffled so each key's bucket is spread over the
// heap.
func probeDB(t testing.TB) *DB {
	t.Helper()
	db := New("probe")
	db.MustExec(`CREATE TABLE p (id INTEGER PRIMARY KEY, k INTEGER, f FLOAT, s TEXT)`)
	db.MustExec(`CREATE INDEX p_k ON p (k)`)
	var keys []value.Value
	var gone []bool
	for _, k := range []int{11, 12, 13, 14, 15, 16} {
		for i := 0; i < probeKeys[k]+3; i++ {
			keys = append(keys, value.NewInt(int64(k)))
			gone = append(gone, i%(probeKeys[k]+1) == 0 || i >= probeKeys[k]+1)
		}
	}
	for i := 0; i < 1500; i++ {
		k := value.NewInt(int64(1000 + i))
		if i%50 == 0 {
			k = value.Null()
		}
		keys = append(keys, k)
		gone = append(gone, false)
	}
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(keys), func(i, j int) {
		keys[i], keys[j] = keys[j], keys[i]
		gone[i], gone[j] = gone[j], gone[i]
	})
	rows := make([]schema.Row, len(keys))
	for i, k := range keys {
		s := "kept"
		if gone[i] {
			s = "gone"
		}
		rows[i] = schema.Row{value.NewInt(int64(i)), k, value.NewFloat(float64(i%7) / 3), value.NewText(s)}
	}
	if err := db.Load("p", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`DELETE FROM p WHERE s = 'gone'`)
	for k, n := range probeKeys {
		rs, err := db.Query(context.Background(), fmt.Sprintf(`SELECT id FROM p WHERE k = %d`, k))
		if err != nil || len(rs.Rows) != n {
			t.Fatalf("key %d: %d rows (%v), want %d", k, len(rs.Rows), err, n)
		}
	}
	return db
}

// checkAppendRows holds sql's AppendRows bytes, at 1, 7, scanBatchSize
// and 1000 rows a call, to value.AppendRow over db.Query's rows; with
// order set, a plain scan's rows must also equal rowPath's under it.
func checkAppendRows(t *testing.T, db *DB, sql, order string) {
	t.Helper()
	ctx := context.Background()
	rs, err := db.Query(ctx, sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	want := encodeRows(rs.Rows)
	if order != "" {
		if got := rowPath(t, db, sql, order); string(got) != string(want) {
			t.Fatalf("%s: Next's rows differ from the row path's", sql)
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
			t.Fatalf("%s, max %d: %v", sql, max, err)
		}
		if count != len(rs.Rows) || string(got) != string(want) {
			t.Fatalf("%s, max %d: %d rows, %d bytes; row path %d rows, %d bytes",
				sql, max, count, len(got), len(rs.Rows), len(want))
		}
	}
}

// rowPath is the bytes of sql's rows under ORDER BY order, which no
// plain scan serves: the row-at-a-time filter and a sort. A heap scan
// of rows loaded in id order emits them by id; a hash-index probe by
// its key list (ascending), then id within a key.
func rowPath(t testing.TB, db *DB, sql, order string) []byte {
	t.Helper()
	ordered := sql + " ORDER BY " + order
	if plainScan(t, db, ordered) {
		t.Fatalf("%s: on the plain-scan path", ordered)
	}
	rs, err := db.Query(context.Background(), ordered)
	if err != nil {
		t.Fatalf("%s: %v", ordered, err)
	}
	return encodeRows(rs.Rows)
}

// probeScan reports whether sql is a plain scan whose table access is a
// hash-index probe.
func probeScan(t *testing.T, db *DB, sql string) bool {
	t.Helper()
	if !plainScan(t, db, sql) {
		return false
	}
	out, err := db.ExplainSelect(mustSelect(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Contains(out, "hash-eq") || strings.Contains(out, "multi-eq")
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
// them equal value.AppendRow of the row path's result. n carries a hash
// index, and the WHERE runs again ANDed with an n = v probe and with an
// n IN (…) probe, so the hash-index probe feeds the same checks.
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
		db.MustExec(`CREATE INDEX t_n ON t (n)`)
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
		var where []string
		switch k := r.next() % 4; {
		case k == 1:
			// Not id = c: that is a primary-key probe, not a scan.
			where = append(where, fmt.Sprintf("id %s %d", ops[1+int(r.next())%(len(ops)-1)], int(r.next())*2))
		case k == 2:
			where = append(where, fmt.Sprintf("n %s %d AND f >= %s", ops[int(r.next())%len(ops)], int(r.next())-128, litFloats[int(r.next())%len(litFloats)]))
		case k == 3:
			where = append(where, fmt.Sprintf("s %s '%s'", ops[int(r.next())%len(ops)], litTexts[int(r.next())%len(litTexts)]))
		}
		// Probe keys: mostly n values the rows hold, so a probe walks
		// several keys' buckets; one byte may pick a key no row holds.
		var held []string
		seen := map[string]bool{}
		for _, row := range rows {
			if v := row[4]; !v.IsNull() && !seen[v.Text()] {
				seen[v.Text()] = true
				held = append(held, v.Text())
			}
		}
		in := make([]string, 1+int(r.next())%5)
		for i := range in {
			k := int(r.next())
			if len(held) == 0 || k%8 == 7 {
				in[i] = fmt.Sprint(k - 128)
			} else {
				in[i] = held[(k+i)%len(held)]
			}
		}
		sel := "SELECT " + strings.Join(items, ", ") + " FROM t"
		for _, probe := range []string{"", "n = " + in[0], "n IN (" + strings.Join(in, ", ") + ")"} {
			conj := where
			if probe != "" {
				conj = append(conj[:len(conj):len(conj)], probe)
			}
			sql := sel
			if len(conj) > 0 {
				sql += " WHERE " + strings.Join(conj, " AND ")
			}
			if !plainScan(t, db, sql) {
				t.Fatalf("%s: not on the plain-scan path", sql)
			}
			order := "id"
			if probeScan(t, db, sql) {
				order = "n, id"
			}
			checkFuzzScan(t, db, sql, order, 1+int(r.next()))
		}
	})
}

// checkFuzzScan is FuzzScanBatch's check of one query: Next's rows and
// AppendRows at max rows a call against the row path under order.
func checkFuzzScan(t *testing.T, db *DB, sql, order string, max int) {
	t.Helper()
	ctx := context.Background()
	want := rowPath(t, db, sql, order)
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
	got, n, err := appendAll(t, ctx, stream, max)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if n != len(rs.Rows) || string(got) != string(want) {
		t.Fatalf("%s: %d rows, %q; row path %d rows", sql, n, got, len(rs.Rows))
	}
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
