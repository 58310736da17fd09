package localdb

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/spill"
	"myriad/internal/sqlparser"
	"myriad/internal/storage"
	"myriad/internal/value"
)

// seedKV bulk-loads n (id, v) rows; vOf maps the row number to v (NULL
// when vOf returns nil).
func seedKV(t testing.TB, db *DB, n int, vOf func(i int) *int64) {
	t.Helper()
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	rows := make([]schema.Row, n)
	for i := range rows {
		v := value.Null()
		if p := vOf(i); p != nil {
			v = value.NewInt(*p)
		}
		rows[i] = schema.Row{value.NewInt(int64(i)), v}
	}
	if err := db.Load("t", rows); err != nil {
		t.Fatal(err)
	}
}

func i64(v int64) *int64 { return &v }

// queryRows drains a SELECT into its rows.
func queryRows(t testing.TB, db *DB, sql string) []schema.Row {
	t.Helper()
	rs, err := db.Query(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rs.Rows
}

func sameRows(t *testing.T, sql string, want, got []schema.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows vs %d", sql, len(want), len(got))
	}
	for i := range want {
		for j := range want[i] {
			wv, gv := want[i][j], got[i][j]
			if wv.IsNull() != gv.IsNull() || (!wv.IsNull() && (wv.K != gv.K || wv.Text() != gv.Text())) {
				t.Fatalf("%s: row %d col %d: want %s, got %s", sql, i, j, wv, gv)
			}
		}
	}
}

// TestOrderedAccessEquivalence runs a corpus over identical data with
// ordered indexes present vs absent; every query must be row-identical
// — including ORDER BY tie order, which the index walk must reproduce
// exactly (stable sort of heap arrival order).
func TestOrderedAccessEquivalence(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(5))
	vals := make([]*int64, n)
	for i := range vals {
		switch rng.Intn(10) {
		case 0:
			vals[i] = nil // NULLs mix into sorts and ranges
		default:
			vals[i] = i64(int64(rng.Intn(40))) // heavy duplicates for ties
		}
	}
	plain := New("plain")
	seedKV(t, plain, n, func(i int) *int64 { return vals[i] })
	indexed := New("indexed")
	seedKV(t, indexed, n, func(i int) *int64 { return vals[i] })
	indexed.MustExec(`CREATE ORDERED INDEX tv ON t (v)`)

	corpus := []string{
		`SELECT id, v FROM t ORDER BY v`,
		`SELECT id, v FROM t ORDER BY v DESC`,
		`SELECT id, v FROM t ORDER BY v LIMIT 17`,
		`SELECT id, v FROM t ORDER BY v DESC LIMIT 17 OFFSET 5`,
		`SELECT id, v FROM t WHERE v >= 10 AND v < 20 ORDER BY v`,
		`SELECT id, v FROM t WHERE v > 35`,
		`SELECT id, v FROM t WHERE v <= 3`,
		`SELECT id, v FROM t WHERE v BETWEEN 5 AND 8 ORDER BY v DESC`,
		`SELECT id, v FROM t WHERE v = 7`,
		`SELECT DISTINCT v FROM t ORDER BY v`,
		`SELECT v, COUNT(*) AS n FROM t WHERE v > 20 GROUP BY v ORDER BY v`,
		`SELECT id, v FROM t WHERE v >= 30 ORDER BY id`,
		`SELECT id, v FROM t WHERE v IS NULL`,
		`SELECT id, v FROM t ORDER BY v, id`,
	}
	for _, sql := range corpus {
		want := queryRows(t, plain, sql)
		got := queryRows(t, indexed, sql)
		if !strings.Contains(sql, "ORDER BY") {
			// Without ORDER BY an index range scan legitimately emits in
			// index order where the heap emits slot order: compare the
			// multiset, not the sequence.
			want, got = sortedByKey(want), sortedByKey(got)
		}
		sameRows(t, sql, want, got)
	}
}

// sortedByKey orders rows by their encoded key for order-insensitive
// comparison.
func sortedByKey(rows []schema.Row) []schema.Row {
	out := append([]schema.Row(nil), rows...)
	sort.Slice(out, func(a, b int) bool {
		return string(value.AppendRowKey(nil, out[a])) < string(value.AppendRowKey(nil, out[b]))
	})
	return out
}

// TestOrderedOrderByRunsSortFree: ORDER BY on an ordered-indexed column
// allocates no sort state and spills nothing at any budget — the
// acceptance criterion the PR is named for.
func TestOrderedOrderByRunsSortFree(t *testing.T) {
	budget := spill.NewBudget(4096, t.TempDir()) // tiny: any sort would spill
	db := NewWithBudget("sortfree", budget)
	seedKV(t, db, 20000, func(i int) *int64 { return i64(int64((i * 7919) % 100000)) })
	db.MustExec(`CREATE ORDERED INDEX tv ON t (v)`)

	rows := queryRows(t, db, `SELECT v, id FROM t ORDER BY v`)
	if len(rows) != 20000 {
		t.Fatalf("%d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if c := schema.CompareSort(rows[i-1][0], rows[i][0]); c > 0 {
			t.Fatalf("row %d out of order", i)
		}
	}
	if _, runs := budget.Stats(); runs != 0 {
		t.Fatalf("sort-free ORDER BY spilled %d runs", runs)
	}

	// The same query with ordered access disabled must spill under this
	// budget — proving the budget would have caught a sort.
	disableOrderedAccess = true
	defer func() { disableOrderedAccess = false }()
	_ = queryRows(t, db, `SELECT v, id FROM t ORDER BY v`)
	if _, runs := budget.Stats(); runs == 0 {
		t.Fatal("baseline sort did not spill; the budget proves nothing")
	}
}

// TestOrderedOrderByLimitScansFewRows: ORDER BY + LIMIT over an ordered
// index reads only about LIMIT rows from storage, not the table.
func TestOrderedOrderByLimitScansFewRows(t *testing.T) {
	db := New("lim")
	seedKV(t, db, 50000, func(i int) *int64 { return i64(int64(i % 997)) })
	db.MustExec(`CREATE ORDERED INDEX tv ON t (v)`)
	before := db.ScannedRows()
	rows := queryRows(t, db, `SELECT v, id FROM t ORDER BY v LIMIT 10`)
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	if scanned := db.ScannedRows() - before; scanned > 2*scanBatchSize {
		t.Fatalf("LIMIT 10 over the index scanned %d rows", scanned)
	}
}

// TestIndexRangeScanScansFraction: a ~1%-selectivity range predicate
// over an ordered index reads well under 5% of the table
// (ScannedRows-verified), where the heap path reads all of it.
func TestIndexRangeScanScansFraction(t *testing.T) {
	const n = 100000
	db := New("range")
	seedKV(t, db, n, func(i int) *int64 { return i64(int64(i)) }) // v uniform 0..n-1
	db.MustExec(`CREATE ORDERED INDEX tv ON t (v)`)

	const sql = `SELECT id, v FROM t WHERE v >= 40000 AND v < 41000` // 1%
	before := db.ScannedRows()
	rows := queryRows(t, db, sql)
	scanned := db.ScannedRows() - before
	if len(rows) != 1000 {
		t.Fatalf("%d rows", len(rows))
	}
	if scanned >= n/20 {
		t.Fatalf("1%% range scanned %d of %d rows (>= 5%%)", scanned, n)
	}

	disableOrderedAccess = true
	defer func() { disableOrderedAccess = false }()
	before = db.ScannedRows()
	_ = queryRows(t, db, sql)
	if heapScanned := db.ScannedRows() - before; heapScanned < n {
		t.Fatalf("heap baseline scanned only %d rows", heapScanned)
	}
}

// TestIndexScanIterEarlyClose: a LIMIT above an index range scan closes
// the iterator mid-walk and stops reading from storage.
func TestIndexScanIterEarlyClose(t *testing.T) {
	db := New("close")
	seedKV(t, db, 10000, func(i int) *int64 { return i64(int64(i)) })
	db.MustExec(`CREATE ORDERED INDEX tv ON t (v)`)
	before := db.ScannedRows()
	rows := queryRows(t, db, `SELECT id FROM t WHERE v >= 100 LIMIT 5`)
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	if scanned := db.ScannedRows() - before; scanned > 2*scanBatchSize {
		t.Fatalf("early-closed index scan read %d rows", scanned)
	}

	// Direct iterator early Close: no further batches after Close.
	tx := db.Begin()
	defer tx.Rollback()
	db.latch.RLock()
	tbl, err := db.table("t")
	db.latch.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := tbl.OrderedIndex("v")
	it := newIndexScanIter(db, tbl, ix, Bound0(), Bound0(), false)
	ctx := context.Background()
	if r, err := it.Next(ctx); err != nil || r == nil {
		t.Fatalf("first Next: %v %v", r, err)
	}
	it.Close()
	if r, err := it.Next(ctx); err != nil || r != nil {
		t.Fatalf("Next after Close: %v %v", r, err)
	}
}

// TestIndexScanIterCancellation: the index scan observes context
// cancellation between pulls like every other source operator.
func TestIndexScanIterCancellation(t *testing.T) {
	db := New("cancel")
	seedKV(t, db, 1000, func(i int) *int64 { return i64(int64(i)) })
	db.MustExec(`CREATE ORDERED INDEX tv ON t (v)`)
	db.latch.RLock()
	tbl, err := db.table("t")
	db.latch.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := tbl.OrderedIndex("v")
	it := newIndexScanIter(db, tbl, ix, Bound0(), Bound0(), false)
	defer it.Close()
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := it.Next(ctx); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	cancel()
	if _, err := it.Next(ctx); err == nil {
		t.Fatal("Next after cancel returned no error")
	}
}

// TestIndexScanNullBoundsAndDesc: NULL-valued rows are excluded from
// predicate-driven range scans but ordered first (last under DESC) by
// ORDER BY walks.
func TestIndexScanNullBoundsAndDesc(t *testing.T) {
	db := New("nulls")
	seedKV(t, db, 10, func(i int) *int64 {
		if i < 3 {
			return nil
		}
		return i64(int64(i))
	})
	db.MustExec(`CREATE ORDERED INDEX tv ON t (v)`)

	// Upper-bound-only predicate: NULLs must not leak into the range.
	rows := queryRows(t, db, `SELECT id FROM t WHERE v < 6`)
	if len(rows) != 3 { // ids 3,4,5
		t.Fatalf("v < 6 matched %d rows", len(rows))
	}
	for _, r := range rows {
		if id, _ := r[0].Int(); id < 3 || id > 5 {
			t.Fatalf("v < 6 matched id %s", r[0])
		}
	}

	// ORDER BY walk: NULLs first ascending, last descending, and the
	// descending ties keep arrival order.
	rows = queryRows(t, db, `SELECT id, v FROM t ORDER BY v`)
	for i := 0; i < 3; i++ {
		if !rows[i][1].IsNull() {
			t.Fatalf("asc row %d not NULL", i)
		}
		if id, _ := rows[i][0].Int(); id != int64(i) {
			t.Fatalf("asc NULL group out of arrival order: %v", rows[i])
		}
	}
	rows = queryRows(t, db, `SELECT id, v FROM t ORDER BY v DESC`)
	for i := 7; i < 10; i++ {
		if !rows[i][1].IsNull() {
			t.Fatalf("desc row %d not NULL", i)
		}
		if id, _ := rows[i][0].Int(); id != int64(i-7) {
			t.Fatalf("desc NULL group out of arrival order: %v", rows[i])
		}
	}
}

// TestDescendingWalkTieOrder: ORDER BY DESC over duplicate keys must
// match the stable descending sort row for row (ties in arrival
// order), which the backward group-wise index walk reproduces.
func TestDescendingWalkTieOrder(t *testing.T) {
	plain := New("p")
	seedKV(t, plain, 2000, func(i int) *int64 { return i64(int64(i % 7)) })
	indexed := New("ix")
	seedKV(t, indexed, 2000, func(i int) *int64 { return i64(int64(i % 7)) })
	indexed.MustExec(`CREATE ORDERED INDEX tv ON t (v)`)
	for _, sql := range []string{
		`SELECT id, v FROM t ORDER BY v DESC`,
		`SELECT id, v FROM t ORDER BY v DESC LIMIT 33`,
	} {
		sameRows(t, sql, queryRows(t, plain, sql), queryRows(t, indexed, sql))
	}
}

// TestExplainSelectShowsAccessPath: the per-site explain names the
// chosen path and flags a served ORDER BY.
func TestExplainSelectShowsAccessPath(t *testing.T) {
	db := New("exp")
	seedKV(t, db, 1000, func(i int) *int64 { return i64(int64(i)) })
	db.MustExec(`CREATE ORDERED INDEX tv ON t (v)`)

	sel := mustSelect(t, `SELECT id FROM t WHERE v >= 10 AND v < 20 ORDER BY v`)
	out, err := db.ExplainSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ordered-range") || !strings.Contains(out, "serves ORDER BY") {
		t.Fatalf("explain = %q", out)
	}

	sel = mustSelect(t, `SELECT id FROM t WHERE id = 5`)
	if out, err = db.ExplainSelect(sel); err != nil || !strings.Contains(out, "pk-point") {
		t.Fatalf("explain = %q err %v", out, err)
	}

	sel = mustSelect(t, `SELECT id FROM t`)
	if out, err = db.ExplainSelect(sel); err != nil || !strings.Contains(out, "heap") {
		t.Fatalf("explain = %q err %v", out, err)
	}
}

// TestSnapshotRestoresOrderedIndexes: a snapshot round trip rebuilds
// ordered indexes and they serve queries sort-free.
func TestSnapshotRestoresOrderedIndexes(t *testing.T) {
	src := New("src")
	seedKV(t, src, 500, func(i int) *int64 { return i64(int64(499 - i)) })
	src.MustExec(`CREATE ORDERED INDEX tv ON t (v)`)
	var buf strings.Builder
	if err := src.SaveSnapshot(&stringsWriter{&buf}); err != nil {
		t.Fatal(err)
	}
	dst := New("dst")
	if err := dst.LoadSnapshot(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	dst.latch.RLock()
	tbl, err := dst.table("t")
	dst.latch.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.OrderedIndex("v"); !ok {
		t.Fatal("ordered index not restored")
	}
	sameRows(t, "restored",
		queryRows(t, src, `SELECT id, v FROM t ORDER BY v`),
		queryRows(t, dst, `SELECT id, v FROM t ORDER BY v`))
}

// stringsWriter adapts strings.Builder to io.Writer for the snapshot.
type stringsWriter struct{ b *strings.Builder }

func (w *stringsWriter) Write(p []byte) (int, error) { return w.b.Write(p) }

func mustSelect(t *testing.T, sql string) *sqlparser.Select {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	sel, ok := stmt.(*sqlparser.Select)
	if !ok {
		t.Fatalf("%s: %T", sql, stmt)
	}
	return sel
}

// Bound0 returns an unset storage bound (helper keeping test call
// sites short).
func Bound0() storage.TupleBound { return storage.TupleBound{} }

// Benchmarks: the PR 5 acceptance numbers.

// BenchmarkOrderedOrderBy compares ORDER BY over 100k rows through the
// ordered-index walk against the external-sort path on identical data.
func BenchmarkOrderedOrderBy(b *testing.B) {
	db := New("bench")
	seedKV(b, db, 100000, func(i int) *int64 { return i64(int64((i * 7919) % 1000000)) })
	db.MustExec(`CREATE ORDERED INDEX tv ON t (v)`)
	ctx := context.Background()
	const sql = `SELECT v, id FROM t ORDER BY v`
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, err := db.Query(ctx, sql)
			if err != nil {
				b.Fatal(err)
			}
			if len(rs.Rows) != 100000 {
				b.Fatalf("%d rows", len(rs.Rows))
			}
		}
	}
	b.Run("index-walk", run)
	b.Run("full-sort", func(b *testing.B) {
		disableOrderedAccess = true
		defer func() { disableOrderedAccess = false }()
		run(b)
	})
}

// BenchmarkIndexRangeScan compares a 1%-selectivity range predicate
// through the ordered index against the heap scan over 100k rows.
func BenchmarkIndexRangeScan(b *testing.B) {
	db := New("bench")
	seedKV(b, db, 100000, func(i int) *int64 { return i64(int64(i)) })
	db.MustExec(`CREATE ORDERED INDEX tv ON t (v)`)
	ctx := context.Background()
	const sql = `SELECT id, v FROM t WHERE v >= 50000 AND v < 51000`
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, err := db.Query(ctx, sql)
			if err != nil {
				b.Fatal(err)
			}
			if len(rs.Rows) != 1000 {
				b.Fatalf("%d rows", len(rs.Rows))
			}
		}
	}
	b.Run("index-range", run)
	b.Run("heap-scan", func(b *testing.B) {
		disableOrderedAccess = true
		defer func() { disableOrderedAccess = false }()
		run(b)
	})
}

// TestMultiEqInListScansOnlyMatches: a large IN list over an indexed
// column reads ~|matches| rows — hash probes or ordered point walks,
// never the whole table. This is the access path a bind join's shipped
// IN-list probe predicate lands on at the probe site.
func TestMultiEqInListScansOnlyMatches(t *testing.T) {
	const n = 10000 // v = i % 1000: ten rows per value
	inList := make([]string, 50)
	for i := range inList {
		inList[i] = fmt.Sprintf("%d", i*20)
	}
	sql := `SELECT id, v FROM t WHERE v IN (` + strings.Join(inList, ", ") + `)`

	plain := New("in-plain")
	seedKV(t, plain, n, func(i int) *int64 { return i64(int64(i % 1000)) })
	want := sortedByKey(queryRows(t, plain, sql))
	if len(want) != 500 {
		t.Fatalf("%d matches, want 500", len(want))
	}

	for _, idx := range []string{
		`CREATE INDEX tv ON t (v)`,
		`CREATE ORDERED INDEX tv ON t (v)`,
	} {
		db := New("in-indexed")
		seedKV(t, db, n, func(i int) *int64 { return i64(int64(i % 1000)) })
		db.MustExec(idx)
		out, err := db.ExplainSelect(mustSelect(t, sql))
		if err != nil || !strings.Contains(out, "multi-eq") {
			t.Fatalf("%s: explain = %q err %v", idx, out, err)
		}
		before := db.ScannedRows()
		got := queryRows(t, db, sql)
		scanned := db.ScannedRows() - before
		sameRows(t, sql, want, sortedByKey(got))
		if scanned > 600 {
			t.Fatalf("%s: IN list scanned %d rows, want ~500", idx, scanned)
		}
	}
}

// TestMultiEqOrderedServesOrderBy: ordered point walks run in sorted
// value order, so an IN list plus ORDER BY on the probed column is
// row-identical to the scan-and-stable-sort baseline with no sort
// stage — spill-verified under a budget any real sort would burst.
func TestMultiEqOrderedServesOrderBy(t *testing.T) {
	const n = 20000 // v = i % 2000: ten rows per value, ties exercised
	inList := make([]string, 40)
	for i := range inList {
		inList[i] = fmt.Sprintf("%d", 1999-i*50) // deliberately unsorted
	}
	for _, dir := range []string{"", " DESC"} {
		sql := `SELECT v, id FROM t WHERE v IN (` + strings.Join(inList, ", ") + `) ORDER BY v` + dir

		plain := New("inorder-plain")
		seedKV(t, plain, n, func(i int) *int64 { return i64(int64(i % 2000)) })
		want := queryRows(t, plain, sql)

		budget := spill.NewBudget(4096, t.TempDir())
		db := NewWithBudget("inorder-indexed", budget)
		seedKV(t, db, n, func(i int) *int64 { return i64(int64(i % 2000)) })
		db.MustExec(`CREATE ORDERED INDEX tv ON t (v)`)

		out, err := db.ExplainSelect(mustSelect(t, sql))
		if err != nil || !strings.Contains(out, "multi-eq") || !strings.Contains(out, "serves ORDER BY") {
			t.Fatalf("%s: explain = %q err %v", sql, out, err)
		}
		got := queryRows(t, db, sql)
		if len(got) != 400 {
			t.Fatalf("%s: %d rows", sql, len(got))
		}
		sameRows(t, sql, want, got)
		if _, runs := budget.Stats(); runs != 0 {
			t.Fatalf("%s: spilled %d sort runs despite ordered IN walk", sql, runs)
		}
	}
}

// TestMultiEqNullAndDuplicateMembers: NULL members match nothing and
// duplicates collapse to one probe; results stay correct either way.
func TestMultiEqNullAndDuplicateMembers(t *testing.T) {
	db := New("in-null")
	seedKV(t, db, 100, func(i int) *int64 {
		if i%10 == 9 {
			return nil
		}
		return i64(int64(i % 10))
	})
	db.MustExec(`CREATE INDEX tv ON t (v)`)
	rows := queryRows(t, db, `SELECT id FROM t WHERE v IN (5, 5, NULL, 7)`)
	if len(rows) != 20 {
		t.Fatalf("%d rows, want 20", len(rows))
	}
}
