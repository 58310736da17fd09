package localdb

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/spill"
	"myriad/internal/value"
)

// seedABV bulk-loads n rows into t(id, a, b, v, f): a is NULL every
// 7th row and a small integer domain otherwise, b a three-value text
// key, v duplicate-heavy, f cycles through 1e16, 1 and -1e16 so a float
// SUM depends on the order a group's rows fold in — the grouped corpus
// shape (NULL groups, multi-column keys, heavy duplicates).
func seedABV(t testing.TB, db *DB, n int) {
	t.Helper()
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b TEXT, v INTEGER, f FLOAT)`)
	fs := []float64{1e16, 1, -1e16}
	rows := make([]schema.Row, n)
	for i := range rows {
		a := value.Null()
		if i%7 != 0 {
			a = value.NewInt(int64(i % 23))
		}
		rows[i] = schema.Row{
			value.NewInt(int64(i)),
			a,
			value.NewText(fmt.Sprintf("k%d", i%3)),
			value.NewInt(int64(i % 11)),
			value.NewFloat(fs[(i/69)%3]),
		}
	}
	if err := db.Load("t", rows); err != nil {
		t.Fatal(err)
	}
}

// TestGroupedStrategyEquivalence runs a grouped/DISTINCT corpus through
// the hash-first fold with no budget (every group resident), a 4 KB
// budget (some groups resident, the rest through the sorter) and a 16 B
// budget (one group resident, every other row spilled), and through the
// streamed fold over an ordered index on the group keys, asserting
// row-for-row identical results. Float sums compare by their shortest
// text form, which is bit for bit. Every budget is back to zero after
// each query, a LIMIT that closes the fold mid-stream included.
func TestGroupedStrategyEquivalence(t *testing.T) {
	const n = 5000
	hash := New("hash")
	seedABV(t, hash, n)
	type variant struct {
		name   string
		db     *DB
		budget *spill.Budget
	}
	var variants []variant
	for _, limit := range []int64{4096, 16} {
		b := spill.NewBudget(limit, t.TempDir())
		db := NewWithBudget(fmt.Sprintf("budget-%d", limit), b)
		seedABV(t, db, n)
		variants = append(variants, variant{fmt.Sprintf("%d B", limit), db, b})
	}
	streamBudget := spill.NewBudget(4096, t.TempDir())
	streamed := NewWithBudget("streamed", streamBudget)
	seedABV(t, streamed, n)
	streamed.MustExec(`CREATE ORDERED INDEX tab ON t (a, b)`)
	variants = append(variants, variant{"streamed", streamed, streamBudget})

	corpus := []string{
		`SELECT a, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY a`,
		`SELECT a, b, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY a, b`,
		`SELECT a, b, SUM(f) AS sf, COUNT(*) AS n FROM t GROUP BY a, b`,
		`SELECT a, COUNT(DISTINCT v) AS dv FROM t GROUP BY a`,
		`SELECT a, AVG(v) AS m, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY a ORDER BY a`,
		`SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING COUNT(*) > 100 ORDER BY a DESC`,
		`SELECT a, b, COUNT(*) AS n FROM t GROUP BY a, b ORDER BY n DESC, a, b LIMIT 5`,
		`SELECT a, b, COUNT(*) AS n FROM t GROUP BY a, b LIMIT 3`,
		`SELECT COUNT(*) AS n, SUM(v) AS s, SUM(f) AS sf FROM t`,
		`SELECT DISTINCT a, b FROM t`,
		`SELECT DISTINCT b FROM t`,
	}
	for _, sql := range corpus {
		want := queryRows(t, hash, sql)
		for _, v := range variants {
			sameRows(t, v.name+": "+sql, want, queryRows(t, v.db, sql))
			if used := v.budget.Used(); used != 0 {
				t.Fatalf("%s: %s: budget not released: %d", v.name, sql, used)
			}
		}
	}
	// The float sums fold in arrival order in every group, resident or
	// spilled, and 10 of the 24 groups' sums change under another order;
	// the 16 B run proves the spilled side was exercised. The streamed
	// walk over (a, b) folds a group of a in b order, so it sits out.
	const sumF = `SELECT a, SUM(f) AS sf FROM t GROUP BY a`
	want := queryRows(t, hash, sumF)
	for _, v := range variants[:2] {
		sameRows(t, v.name+": "+sumF, want, queryRows(t, v.db, sumF))
	}
	if _, runs := variants[1].budget.Stats(); runs == 0 {
		t.Fatal("the 16 B budget wrote no spill run: the overflow fold went untested")
	}
}

// TestGroupByFewGroupsStaysResident: 5,000 rows in 8 groups fit a 4 KB
// budget as resident groups, so GROUP BY a ORDER BY a neither spills
// nor sorts, and it answers as the unbudgeted fold does.
func TestGroupByFewGroupsStaysResident(t *testing.T) {
	load := func(db *DB) {
		db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, v INTEGER)`)
		rows := make([]schema.Row, 5000)
		for i := range rows {
			rows[i] = schema.Row{value.NewInt(int64(i)), value.NewInt(int64(7 - i%8)), value.NewInt(int64(i % 13))}
		}
		if err := db.Load("t", rows); err != nil {
			t.Fatal(err)
		}
	}
	budget := spill.NewBudget(4096, t.TempDir())
	db := NewWithBudget("few", budget)
	load(db)
	ref := New("few-ref")
	load(ref)
	const sql = `SELECT a, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY a ORDER BY a`
	got := queryRows(t, db, sql)
	sameRows(t, sql, queryRows(t, ref, sql), got)
	if len(got) != 8 {
		t.Fatalf("%d groups, want 8", len(got))
	}
	if _, runs := budget.Stats(); runs != 0 {
		t.Fatalf("8 groups under 4 KB wrote %d spill runs", runs)
	}
	if used := budget.Used(); used != 0 {
		t.Fatalf("budget not released: %d", used)
	}
}

// TestGroupByOrderElision: an ORDER BY that is an ASC prefix of the
// group keys runs no sort, and every grouped ORDER BY, elided or not,
// returns exactly the unordered GROUP BY's rows stably sorted. Over an
// ordered index (the stream fold) 20,000 groups under 4 KB write no
// spill run, which a sort of them would.
func TestGroupByOrderElision(t *testing.T) {
	db := New("elide")
	seedABV(t, db, 5000)
	const base = `SELECT a, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY a`
	for _, tc := range []struct {
		order string
		col   int
		desc  bool
	}{
		{"a", 0, false},
		{"1", 0, false},
		{"a DESC", 0, true},
		{"n", 1, false},
	} {
		sql := base + " ORDER BY " + tc.order
		want := queryRows(t, db, base)
		sort.SliceStable(want, func(i, j int) bool {
			c := schema.CompareSort(want[i][tc.col], want[j][tc.col])
			if tc.desc {
				c = -c
			}
			return c < 0
		})
		sameRows(t, sql, want, queryRows(t, db, sql))
	}

	budget := spill.NewBudget(4096, t.TempDir())
	idx := NewWithBudget("elide-index", budget)
	idx.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER)`)
	rows := make([]schema.Row, 50_000)
	for i := range rows {
		a := value.NewInt(int64(i * 7919 % 20_000))
		if i%20_000 == 0 {
			a = value.Null()
		}
		rows[i] = schema.Row{value.NewInt(int64(i)), a}
	}
	if err := idx.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	idx.MustExec(`CREATE ORDERED INDEX ta ON t (a)`)
	const sql = `SELECT a, COUNT(*) AS n FROM t GROUP BY a ORDER BY a`
	got := queryRows(t, idx, sql)
	if len(got) != 20_000 { // 1..19,999 and NULL
		t.Fatalf("%d groups", len(got))
	}
	for i := 1; i < len(got); i++ {
		if schema.CompareSort(got[i-1][0], got[i][0]) >= 0 {
			t.Fatalf("group %d out of order: %s after %s", i, got[i][0], got[i-1][0])
		}
	}
	if _, runs := budget.Stats(); runs != 0 {
		t.Fatalf("streamed GROUP BY ... ORDER BY a spilled %d runs: the sort was not elided", runs)
	}
	_ = queryRows(t, idx, `SELECT a, COUNT(*) AS n FROM t GROUP BY a ORDER BY a DESC`)
	if _, runs := budget.Stats(); runs == 0 {
		t.Fatal("ORDER BY a DESC over 20,000 groups did not spill; the budget proves nothing")
	}
}

// TestStreamingGroupByExplain: grouping on an ordered index's key
// prefix reports the streamed path in \explain; grouping on a
// non-indexed column does not.
func TestStreamingGroupByExplain(t *testing.T) {
	db := New("gexp")
	seedABV(t, db, 1000)
	db.MustExec(`CREATE ORDERED INDEX tab ON t (a, b)`)

	for _, sql := range []string{
		`SELECT a, COUNT(*) FROM t GROUP BY a`,
		`SELECT a, b, COUNT(*) FROM t GROUP BY a, b`,
		`SELECT b, a, SUM(v) FROM t GROUP BY b, a`, // key order is free
	} {
		out, err := db.ExplainSelect(mustSelect(t, sql))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "serves GROUP BY (streamed)") {
			t.Fatalf("%s: explain = %q", sql, out)
		}
	}
	out, err := db.ExplainSelect(mustSelect(t, `SELECT v, COUNT(*) FROM t GROUP BY v`))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "serves GROUP BY") {
		t.Fatalf("non-indexed group key claims streaming: %q", out)
	}
}

// TestStreamingGroupByZeroState: grouping over the index walk holds no
// accumulation state — a 4KB budget sees zero spill runs no matter how
// many groups flow past, while the same query without the index must
// spill its overflow groups under that budget.
func TestStreamingGroupByZeroState(t *testing.T) {
	const n = 50_000
	budget := spill.NewBudget(4096, t.TempDir())
	db := NewWithBudget("zstate", budget)
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER)`)
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 20_000))}
	}
	if err := db.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE ORDERED INDEX ta ON t (a)`)

	const sql = `SELECT a, COUNT(*) AS n, SUM(id) AS s FROM t GROUP BY a`
	got := queryRows(t, db, sql)
	if len(got) != 20_000 {
		t.Fatalf("%d groups", len(got))
	}
	if _, runs := budget.Stats(); runs != 0 {
		t.Fatalf("streamed GROUP BY spilled %d runs", runs)
	}

	// The hash-first baseline under the same budget must spill —
	// proving the budget would have caught any accumulation.
	disableOrderedAccess = true
	defer func() { disableOrderedAccess = false }()
	_ = queryRows(t, db, sql)
	if _, runs := budget.Stats(); runs == 0 {
		t.Fatal("baseline grouping did not spill; the budget proves nothing")
	}
}

// TestStreamingGroupByLimitEarlyTermination: GROUP BY + LIMIT over the
// index walk stops scanning after the limiting groups close, instead of
// draining the table.
func TestStreamingGroupByLimitEarlyTermination(t *testing.T) {
	const n = 50_000
	db := New("glim")
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER)`)
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{value.NewInt(int64(i)), value.NewInt(int64(i / 10))}
	}
	if err := db.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE ORDERED INDEX ta ON t (a)`)

	before := db.ScannedRows()
	got := queryRows(t, db, `SELECT a, COUNT(*) AS n FROM t GROUP BY a LIMIT 3`)
	if len(got) != 3 {
		t.Fatalf("%d rows", len(got))
	}
	if scanned := db.ScannedRows() - before; scanned > 2*scanBatchSize {
		t.Fatalf("LIMIT 3 over streamed groups scanned %d rows", scanned)
	}
}

// TestStreamingGroupByOrderedDistinct: DISTINCT over the index key also
// rides the streamed grouping (SELECT DISTINCT a == GROUP BY a) — the
// pipeline's distinct stage sees already-unique rows and buffers
// nothing it has to spill.
func TestStreamingGroupByOrderedDistinct(t *testing.T) {
	budget := spill.NewBudget(4096, t.TempDir())
	db := NewWithBudget("gdis", budget)
	seedABV(t, db, 20_000)
	db.MustExec(`CREATE ORDERED INDEX tab ON t (a, b)`)
	got := queryRows(t, db, `SELECT a, b, COUNT(*) AS n FROM t GROUP BY a, b`)
	if len(got) < 24*3-3 { // 23 int values + NULL crossed with 3 b values, minus impossible combos
		t.Fatalf("%d groups", len(got))
	}
	for i := 1; i < len(got); i++ {
		if schema.CompareSort(got[i-1][0], got[i][0]) > 0 {
			t.Fatalf("group %d out of key order", i)
		}
	}
	if _, runs := budget.Stats(); runs != 0 {
		t.Fatalf("streamed multi-column GROUP BY spilled %d runs", runs)
	}
}

// BenchmarkStreamingGroupBy: single-column GROUP BY over 100k rows and
// 50k groups, streamed over the ordered index vs the hash-accumulate
// baseline (index disabled, unlimited memory). The streamed path folds
// each group at the walk with zero accumulation state; the baseline
// pays per-row key encoding, map probes, and a final 50k-group sort.
func BenchmarkStreamingGroupBy(b *testing.B) {
	const n = 100_000
	load := func(db *DB) {
		db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER)`)
		rows := make([]schema.Row, n)
		for i := range rows {
			rows[i] = schema.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 50_000))}
		}
		if err := db.Load("t", rows); err != nil {
			b.Fatal(err)
		}
	}
	const sql = `SELECT a, COUNT(*) AS n, SUM(id) AS s FROM t GROUP BY a`
	ctx := context.Background()

	run := func(b *testing.B, db *DB, wantRuns bool, budget *spill.Budget) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, err := db.Query(ctx, sql)
			if err != nil {
				b.Fatal(err)
			}
			if len(rs.Rows) != 50_000 {
				b.Fatalf("%d groups", len(rs.Rows))
			}
		}
		if budget != nil {
			if _, runs := budget.Stats(); (runs > 0) != wantRuns {
				b.Fatalf("spill runs = %d, want spill=%v", runs, wantRuns)
			}
		}
	}

	budget := spill.NewBudget(4096, b.TempDir())
	indexed := NewWithBudget("bgs-indexed", budget)
	load(indexed)
	indexed.MustExec(`CREATE ORDERED INDEX ta ON t (a)`)
	b.Run("indexed-streamed", func(b *testing.B) { run(b, indexed, false, budget) })

	hash := New("bgs-hash")
	load(hash)
	b.Run("hash-accumulate", func(b *testing.B) { run(b, hash, false, nil) })
}

// BenchmarkGroupBySpill: 1M-row GROUP BY under a 4KB budget (sort-based
// grouping, spilling runs) vs unlimited memory (hash accumulation) —
// the price of budget-true grouped execution at scale.
func BenchmarkGroupBySpill(b *testing.B) {
	const n = 1_000_000
	load := func(db *DB) {
		db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER)`)
		rows := make([]schema.Row, n)
		for i := range rows {
			rows[i] = schema.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 5003))}
		}
		if err := db.Load("t", rows); err != nil {
			b.Fatal(err)
		}
	}
	const sql = `SELECT a, COUNT(*) AS c, SUM(id) AS s FROM t GROUP BY a`
	ctx := context.Background()

	run := func(b *testing.B, db *DB) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, err := db.Query(ctx, sql)
			if err != nil {
				b.Fatal(err)
			}
			if len(rs.Rows) != 5003 {
				b.Fatalf("%d groups", len(rs.Rows))
			}
		}
	}

	budget := spill.NewBudget(4096, b.TempDir())
	spilling := NewWithBudget("bgsp-4kb", budget)
	load(spilling)
	b.Run("spill-4kb", func(b *testing.B) {
		run(b, spilling)
		if _, runs := budget.Stats(); runs == 0 {
			b.Fatal("1M-row grouping under 4KB did not spill")
		}
	})

	unlimited := New("bgsp-unlimited")
	load(unlimited)
	b.Run("unlimited", func(b *testing.B) { run(b, unlimited) })
}

// TestRowKeyKeepsTextHoldingSeparator: ('a\x1f\x04b', 'c') and
// ('a', 'b\x1f\x04c') are different rows, though their texts joined by
// the row key's separator and TEXT tag would read alike; DISTINCT and
// GROUP BY over both keep two rows, resident and under a forced spill.
func TestRowKeyKeepsTextHoldingSeparator(t *testing.T) {
	for _, budget := range []int64{0, 1} {
		db := NewWithBudget("rowkey", spill.NewBudget(budget, t.TempDir()))
		db.MustExec(`CREATE TABLE t (a TEXT, b TEXT)`)
		if err := db.Load("t", []schema.Row{
			{value.NewText("a\x1f\x04b"), value.NewText("c")},
			{value.NewText("a"), value.NewText("b\x1f\x04c")},
		}); err != nil {
			t.Fatal(err)
		}
		for _, sql := range []string{
			`SELECT DISTINCT a, b FROM t`,
			`SELECT a, b, COUNT(*) AS n FROM t GROUP BY a, b`,
		} {
			rs, err := db.Query(context.Background(), sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if len(rs.Rows) != 2 {
				t.Fatalf("budget %d, %s: %d rows, want 2: %v", budget, sql, len(rs.Rows), rs.Rows)
			}
		}
	}
}

// TestSignedZeroGroupsAlike: -0.0 = 0.0 in SQL, so GROUP BY, DISTINCT
// and UNION fold 40 rows of both into one zero whatever the access path
// (an ordered index on f interleaves the two, so a walk over it could
// not keep them apart) and whether the operator spills. Row 0 holds
// 0.0, so every path keeps 0.0 as the group's value.
func TestSignedZeroGroupsAlike(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		for _, budget := range []int64{0, 1} {
			db := NewWithBudget("zero", spill.NewBudget(budget, t.TempDir()))
			db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, f FLOAT)`)
			rows := make([]schema.Row, 40)
			for i := range rows {
				f := 0.0
				if i%3 == 1 {
					f = math.Copysign(0, -1)
				}
				rows[i] = schema.Row{value.NewInt(int64(i)), value.NewFloat(f)}
			}
			if err := db.Load("t", rows); err != nil {
				t.Fatal(err)
			}
			if indexed {
				db.MustExec(`CREATE ORDERED INDEX t_f ON t (f)`)
			}
			for _, tc := range []struct{ sql, want string }{
				{`SELECT f, COUNT(*) FROM t GROUP BY f`, "[[0 40]]"},
				{`SELECT DISTINCT f FROM t`, "[[0]]"},
				{`SELECT f FROM t UNION SELECT f FROM t`, "[[0]]"},
			} {
				rs, err := db.Query(context.Background(), tc.sql)
				if err != nil {
					t.Fatalf("%s: %v", tc.sql, err)
				}
				if got := fmt.Sprint(rs.Rows); got != tc.want {
					t.Errorf("index %v, budget %d, %s: %s, want %s", indexed, budget, tc.sql, got, tc.want)
				}
			}
		}
	}
}
