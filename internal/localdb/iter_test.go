package localdb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"myriad/internal/schema"
	"myriad/internal/value"
)

// intRows builds n single-column rows 0..n-1.
func intRows(n int) [][]value.Value {
	rows := make([][]value.Value, n)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i))}
	}
	return rows
}

func drainAll(t *testing.T, it rowIter) [][]value.Value {
	t.Helper()
	var out [][]value.Value
	ctx := context.Background()
	for {
		r, err := it.Next(ctx)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if r == nil {
			return out
		}
		out = append(out, r)
	}
}

// countingIter wraps a child and records pulls and Close calls, so
// tests can observe early termination propagating down the pipeline.
type countingIter struct {
	child  rowIter
	pulls  int
	closes int
}

func (c *countingIter) Next(ctx context.Context) ([]value.Value, error) {
	c.pulls++
	return c.child.Next(ctx)
}

func (c *countingIter) Close() { c.closes++; c.child.Close() }

func TestHeapScanIterStreamsAllRows(t *testing.T) {
	db := New("scan")
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	stmt := ""
	for i := 0; i < 700; i++ { // spans multiple latch batches
		if stmt != "" {
			stmt += ", "
		}
		stmt += fmt.Sprintf("(%d, 'v%d')", i, i)
	}
	db.MustExec("INSERT INTO t VALUES " + stmt)
	tab, err := db.table("t")
	if err != nil {
		t.Fatal(err)
	}
	it := newHeapScanIter(db, tab)
	rows := drainAll(t, it)
	if len(rows) != 700 {
		t.Fatalf("scanned %d rows, want 700", len(rows))
	}
	for i, r := range rows {
		if got, _ := r[0].Int(); got != int64(i) {
			t.Fatalf("row %d out of slot order: %v", i, r)
		}
	}
	// Exhausted iterator keeps returning nil.
	if r, err := it.Next(context.Background()); r != nil || err != nil {
		t.Fatalf("post-EOF Next: %v %v", r, err)
	}
}

// TestHeapScanIterCancelWithinBatch: the scan polls its context once
// per refill, so a scan cancelled mid-table still hands out the rest of
// the batch in hand and then returns the context's error — never a
// further batch, and never a clean end.
func TestHeapScanIterCancelWithinBatch(t *testing.T) {
	db := New("scan")
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	rows := make([]schema.Row, 3*scanBatchSize)
	for i := range rows {
		rows[i] = schema.Row{value.NewInt(int64(i))}
	}
	if err := db.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.table("t")
	it := newHeapScanIter(db, tab)
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < scanBatchSize+10; i++ { // into the second batch
		if r, err := it.Next(ctx); r == nil || err != nil {
			t.Fatalf("row %d: %v %v", i, r, err)
		}
	}
	cancel()
	after := 0
	for {
		r, err := it.Next(ctx)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			break
		}
		if r == nil {
			t.Fatal("cancelled scan ended cleanly")
		}
		if after++; after > scanBatchSize {
			t.Fatalf("%d rows after cancellation: more than one batch", after)
		}
	}
	if after != scanBatchSize-10 {
		t.Fatalf("%d rows after cancellation, want the batch's remaining %d", after, scanBatchSize-10)
	}

	// The plain-scan path polls ctx as rarely: a cancelled stream hands
	// out the rest of the scan batch it holds, then fails.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	stream, err := db.QueryStream(ctx, `SELECT id FROM t WHERE id >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if p, ok := stream.it.(*projIter); !ok || p.src == nil {
		t.Fatal("not on the plain-scan path")
	}
	if _, n, err := stream.AppendRows(ctx, nil, scanBatchSize+10); n != scanBatchSize+10 || err != nil {
		t.Fatalf("into the second batch: %d rows, %v", n, err)
	}
	cancel()
	_, after, err = appendAll(t, ctx, stream, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("plain-scan path: err = %v, want context.Canceled", err)
	}
	if after != scanBatchSize-10 {
		t.Fatalf("plain-scan path: %d rows after cancellation, want the batch's remaining %d", after, scanBatchSize-10)
	}
}

func TestHeapScanIterEarlyClose(t *testing.T) {
	db := New("scan")
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	db.MustExec(`INSERT INTO t VALUES (1), (2), (3)`)
	tab, _ := db.table("t")
	it := newHeapScanIter(db, tab)
	ctx := context.Background()
	if r, _ := it.Next(ctx); r == nil {
		t.Fatal("first row missing")
	}
	it.Close()
	if r, err := it.Next(ctx); r != nil || err != nil {
		t.Fatalf("Next after Close: %v %v", r, err)
	}
	it.Close() // idempotent
}

func TestSourceItersHonorCancellation(t *testing.T) {
	db := New("scan")
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	db.MustExec(`INSERT INTO t VALUES (1), (2), (3)`)
	tab, _ := db.table("t")
	for name, it := range map[string]rowIter{
		"heap":  newHeapScanIter(db, tab),
		"slice": newSliceIter(intRows(3)),
	} {
		ctx, cancel := context.WithCancel(context.Background())
		if r, err := it.Next(ctx); r == nil || err != nil {
			t.Fatalf("%s: first Next: %v %v", name, r, err)
		}
		cancel()
		// The heap scan polls once per refill, so it may finish the
		// batch in hand first (TestHeapScanIterCancelWithinBatch pins
		// exactly how far); every other iterator fails on the next row.
		tries := 1
		if name == "heap" {
			tries = scanBatchSize + 1
		}
		var err error
		for i := 0; i < tries && err == nil; i++ {
			_, err = it.Next(ctx)
		}
		if err == nil {
			t.Errorf("%s: Next after cancel returned no error within %d calls", name, tries)
		}
		it.Close()
	}
}

func TestFilterIterPadding(t *testing.T) {
	// Predicate compiled against a two-binding binder; the filtered
	// input supplies only the second binding's columns, so rows are
	// padded by the binding offset during evaluation but flow through
	// unpadded.
	pred := func(row []value.Value) (Truth, error) {
		v, _ := row[1].Int() // slot 1 = offset 1 + column 0
		return boolTruth(v%2 == 0), nil
	}
	f := newFilterIter(newSliceIter(intRows(10)), pred, 1)
	rows := drainAll(t, f)
	if len(rows) != 5 {
		t.Fatalf("filter kept %d rows, want 5", len(rows))
	}
	if len(rows[0]) != 1 {
		t.Fatalf("filter changed row width: %v", rows[0])
	}
	if got, _ := rows[1][0].Int(); got != 2 {
		t.Fatalf("wrong rows kept: %v", rows)
	}
}

func TestFilterIterCloseMidStream(t *testing.T) {
	src := &countingIter{child: newSliceIter(intRows(10))}
	pred := func([]value.Value) (Truth, error) { return True, nil }
	f := newFilterIter(src, pred, 0)
	if r, _ := f.Next(context.Background()); r == nil {
		t.Fatal("no first row")
	}
	f.Close()
	if src.closes == 0 {
		t.Error("Close did not propagate to child")
	}
	if r, _ := f.Next(context.Background()); r != nil {
		t.Error("row after Close")
	}
}

func TestJoinItersMatchAndClose(t *testing.T) {
	ctx := context.Background()
	mk := func() (rowIter, rowIter) {
		return newSliceIter(intRows(4)), newSliceIter(intRows(3))
	}
	// Hash join on equality of the single columns (left slot 0 = right
	// slot 1 in the combined two-column row).
	lKey := func(row []value.Value) (value.Value, error) { return row[0], nil }
	rKey := func(row []value.Value) (value.Value, error) { return row[1], nil }
	l, r := mk()
	hj := &hashJoinIter{left: l, right: r,
		leftKeys: []evalFn{lKey}, rightKeys: []evalFn{rKey},
		kind: joinInner, leftWidth: 1, rightWidth: 1}
	rows := drainAll(t, hj)
	if len(rows) != 3 {
		t.Fatalf("hash join: %d rows, want 3", len(rows))
	}
	for _, row := range rows {
		a, _ := row[0].Int()
		b, _ := row[1].Int()
		if a != b {
			t.Fatalf("hash join mismatched row: %v", row)
		}
	}

	// LEFT join pads the unmatched left row with NULL.
	l, r = mk()
	hj = &hashJoinIter{left: l, right: r,
		leftKeys: []evalFn{lKey}, rightKeys: []evalFn{rKey},
		kind: joinLeft, leftWidth: 1, rightWidth: 1}
	rows = drainAll(t, hj)
	if len(rows) != 4 || !rows[3][1].IsNull() {
		t.Fatalf("left join rows: %v", rows)
	}

	// A LEFT JOIN whose residual rejects every match pads with NULL,
	// though the rejected combined rows held the right values.
	l, r = mk()
	hj = &hashJoinIter{left: l, right: r,
		leftKeys: []evalFn{lKey}, rightKeys: []evalFn{rKey},
		residual: func([]value.Value) (Truth, error) { return False, nil },
		kind:     joinLeft, leftWidth: 1, rightWidth: 1}
	rows = drainAll(t, hj)
	if len(rows) != 4 {
		t.Fatalf("rejecting left join: %d rows, want 4", len(rows))
	}
	for _, row := range rows {
		if !row[1].IsNull() {
			t.Fatalf("rejecting left join: unpadded row %v", row)
		}
	}

	// No key functions = nested loop: all pairs, residual-filtered.
	residual := func(row []value.Value) (Truth, error) {
		a, _ := row[0].Int()
		b, _ := row[1].Int()
		return boolTruth(a == b), nil
	}
	l, r = mk()
	lj := &hashJoinIter{left: l, right: r, residual: residual,
		kind: joinInner, leftWidth: 1, rightWidth: 1}
	rows = drainAll(t, lj)
	if len(rows) != 3 {
		t.Fatalf("loop join: %d rows, want 3", len(rows))
	}

	// Close mid-stream reaches both children.
	lc := &countingIter{child: newSliceIter(intRows(4))}
	rc := &countingIter{child: newSliceIter(intRows(3))}
	hj = &hashJoinIter{left: lc, right: rc,
		leftKeys: []evalFn{lKey}, rightKeys: []evalFn{rKey},
		kind: joinInner, leftWidth: 1, rightWidth: 1}
	if row, err := hj.Next(ctx); row == nil || err != nil {
		t.Fatalf("join Next: %v %v", row, err)
	}
	hj.Close()
	if lc.closes == 0 || rc.closes == 0 {
		t.Error("join Close did not reach children")
	}
}

func TestTopKIterMatchesStableSort(t *testing.T) {
	// Rows with many key ties: top-K must agree with a stable full sort
	// (ties resolved by arrival order).
	rng := rand.New(rand.NewSource(42))
	n := 500
	rows := make([][]value.Value, n)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(rng.Intn(7))), value.NewInt(int64(i))}
	}
	key := func(row []value.Value) (value.Value, error) { return row[0], nil }
	projKey := func(row []value.Value) (value.Value, error) { return row[0], nil }
	projSeq := func(row []value.Value) (value.Value, error) { return row[1], nil }
	itemFns := []evalFn{projKey, projSeq}

	for _, tc := range []struct{ count, offset int }{
		{10, 0}, {1, 0}, {25, 5}, {0, 3}, {1000, 0},
	} {
		top := newTopKIter(newSliceIter(rows), itemFns, []evalFn{key}, []bool{false}, tc.count, tc.offset)
		got := drainAll(t, top)

		full := newSortIter(newSliceIter(rows), itemFns, []evalFn{key}, []bool{false}, nil)
		want := drainAll(t, full)
		lo := tc.offset
		if lo > len(want) {
			lo = len(want)
		}
		hi := lo + tc.count
		if hi > len(want) {
			hi = len(want)
		}
		want = want[lo:hi]
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("count=%d offset=%d: top-K diverged from stable sort\n got %v\nwant %v",
				tc.count, tc.offset, got, want)
		}
	}
}

func TestTopKIterEarlyCloseAndZeroCount(t *testing.T) {
	src := &countingIter{child: newSliceIter(intRows(100))}
	id := func(row []value.Value) (value.Value, error) { return row[0], nil }
	top := newTopKIter(src, []evalFn{id}, []evalFn{id}, []bool{false}, 0, 0)
	if r, err := top.Next(context.Background()); r != nil || err != nil {
		t.Fatalf("LIMIT 0: %v %v", r, err)
	}
	if src.pulls > 0 {
		t.Errorf("LIMIT 0 still pulled %d rows from input", src.pulls)
	}

	src = &countingIter{child: newSliceIter(intRows(100))}
	top = newTopKIter(src, []evalFn{id}, []evalFn{id}, []bool{false}, 5, 0)
	if r, _ := top.Next(context.Background()); r == nil {
		t.Fatal("no first row")
	}
	top.Close()
	if src.closes == 0 {
		t.Error("Close did not propagate")
	}
	if r, _ := top.Next(context.Background()); r != nil {
		t.Error("row after Close")
	}
}

func TestLimitIterEarlyTermination(t *testing.T) {
	src := &countingIter{child: newSliceIter(intRows(1000))}
	lim := newLimitIter(src, 3, 2)
	rows := drainAll(t, lim)
	if len(rows) != 3 {
		t.Fatalf("limit emitted %d rows, want 3", len(rows))
	}
	if got, _ := rows[0][0].Int(); got != 2 {
		t.Fatalf("offset not applied: %v", rows)
	}
	// Only offset+count rows were ever pulled, and the child was closed
	// as soon as the bound was hit.
	if src.pulls > 5 {
		t.Errorf("limit pulled %d rows, want <= 5", src.pulls)
	}
	if src.closes == 0 {
		t.Error("limit did not close its child at the bound")
	}
}

func TestDistinctIterStreams(t *testing.T) {
	rows := [][]value.Value{
		{value.NewInt(1)}, {value.NewInt(2)}, {value.NewInt(1)}, {value.NewInt(3)}, {value.NewInt(2)},
	}
	d := newDistinctIter(newSliceIter(rows), nil)
	out := drainAll(t, d)
	if len(out) != 3 {
		t.Fatalf("distinct kept %d rows, want 3", len(out))
	}
	for i, want := range []int64{1, 2, 3} {
		if got, _ := out[i][0].Int(); got != want {
			t.Fatalf("distinct order: %v", out)
		}
	}
}

func TestHugeLimitDoesNotOverflowTopK(t *testing.T) {
	// Regression: LIMIT near MaxInt64 plus an OFFSET overflowed the
	// top-K bound and silently returned no rows; it must fall back to
	// the full sort.
	db := New("huge")
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	db.MustExec(`INSERT INTO t VALUES (1), (2), (3)`)
	rs, err := db.Query(context.Background(),
		`SELECT id FROM t ORDER BY id LIMIT 9223372036854775807 OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("got %d rows, want 2: %v", len(rs.Rows), rs.Rows)
	}
	if got, _ := rs.Rows[0][0].Int(); got != 2 {
		t.Fatalf("offset lost: %v", rs.Rows)
	}
}

func TestJoinErrorDoesNotPanic(t *testing.T) {
	// Regression: a failed join construction (missing table) left a nil
	// iterator for the deferred Close, panicking instead of erroring.
	db := New("joinerr")
	db.MustExec(`CREATE TABLE a (id INTEGER PRIMARY KEY)`)
	db.MustExec(`INSERT INTO a VALUES (1)`)
	ctx := context.Background()
	if _, err := db.Query(ctx, `SELECT * FROM a, nosuch`); err == nil {
		t.Fatal("join with missing table succeeded")
	}
	if _, err := db.Query(ctx, `SELECT * FROM a JOIN nosuch ON a.id = nosuch.id`); err == nil {
		t.Fatal("explicit join with missing table succeeded")
	}
}

func TestPipelineCancellationBetweenNextCalls(t *testing.T) {
	// A full SQL pipeline over a cancelable context: cancellation
	// between pulls surfaces as an error from the query.
	db := New("cancel")
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	stmt := ""
	for i := 0; i < 2000; i++ {
		if stmt != "" {
			stmt += ", "
		}
		stmt += fmt.Sprintf("(%d, %d)", i, i%10)
	}
	db.MustExec("INSERT INTO t VALUES " + stmt)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Query(ctx, `SELECT v, COUNT(*) FROM t GROUP BY v ORDER BY v`); err == nil {
		t.Fatal("query on canceled context succeeded")
	}
}

// TestIteratorEquivalenceWithFullSort runs randomized ORDER BY + LIMIT
// workloads (the differential_test generator's shape) through the
// fused top-K path and checks each against the same query with no
// LIMIT/OFFSET — a stable full sort — sliced to the limit in the test.
func TestIteratorEquivalenceWithFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	db := New("equiv")
	db.MustExec(`CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER, c INTEGER)`)
	stmt := ""
	for i := 0; i < 400; i++ {
		c := fmt.Sprint(rng.Intn(20) - 1)
		if c == "-1" {
			c = "NULL"
		}
		if stmt != "" {
			stmt += ", "
		}
		stmt += fmt.Sprintf("(%d, %d, %s)", i, rng.Intn(10), c)
	}
	db.MustExec("INSERT INTO t VALUES " + stmt)
	ctx := context.Background()

	// Each case is the fused query's ORDER BY with no LIMIT/OFFSET (a
	// stable full sort) and the [offset, offset+limit) slice of it.
	type tcase struct {
		fused, full   string
		offset, limit int
	}
	var cases []tcase
	for trial := 0; trial < 50; trial++ {
		limit := 1 + rng.Intn(30)
		offset := rng.Intn(10)
		dir := ""
		if rng.Intn(2) == 0 {
			dir = " DESC"
		}
		cut := rng.Intn(400)
		q1 := fmt.Sprintf(`SELECT a, c FROM t WHERE a >= %d ORDER BY c%s, b`, cut, dir)
		q2 := fmt.Sprintf(`SELECT b, a + 1 AS x FROM t WHERE b < %d ORDER BY b%s`, 1+rng.Intn(10), dir)
		cases = append(cases,
			tcase{fmt.Sprintf(`%s LIMIT %d OFFSET %d`, q1, limit, offset), q1, offset, limit},
			tcase{fmt.Sprintf(`%s LIMIT %d`, q2, limit), q2, 0, limit},
		)
	}
	for _, tc := range cases {
		fused, err := db.Query(ctx, tc.fused)
		if err != nil {
			t.Fatalf("%s: %v", tc.fused, err)
		}
		full, err := db.Query(ctx, tc.full)
		if err != nil {
			t.Fatalf("%s: %v", tc.full, err)
		}
		want := full.Rows[min(tc.offset, len(full.Rows)):min(tc.offset+tc.limit, len(full.Rows))]
		if len(fused.Rows) != len(want) || (len(want) > 0 && !reflect.DeepEqual(fused.Rows, want)) {
			t.Fatalf("%s:\n fused    %v\n baseline %v", tc.fused, fused.Rows, want)
		}
	}
}

// TestRecordSlabBoundedByBudget: a sort's record slab holds at most
// slabRecords records, and under a budget at most an eighth of the
// limit (one record when even that is wider), so the records carved
// ahead of the sorter's reservations stay a small share of the budget.
// Records never share capacity, so appending to one cannot overwrite
// the next.
func TestRecordSlabBoundedByBudget(t *testing.T) {
	vsize := int(unsafe.Sizeof(value.Value{}))
	for _, tc := range []struct {
		limit   int64
		w, want int
	}{
		{0, 5, slabRecords},
		{1 << 20, 5, slabRecords},
		{4096, 5, 4096 / slabShare / (5 * vsize)}, // as many 5-value records as 4096/8 bytes hold
		{4096, 100, 1},                            // one record is over the eighth; carve it alone
	} {
		s := recordSlab{limit: tc.limit}
		r := s.next(tc.w)
		if got := 1 + len(s.free)/tc.w; got != tc.want {
			t.Errorf("limit %d, width %d: slab of %d records, want %d", tc.limit, tc.w, got, tc.want)
		}
		if tc.limit > 0 && tc.want > 1 && int64(tc.want*tc.w*vsize) > tc.limit/slabShare {
			t.Errorf("limit %d, width %d: slab over 1/%d of the budget", tc.limit, tc.w, slabShare)
		}
		if len(r) != tc.w || cap(r) != tc.w {
			t.Errorf("record len %d cap %d, want %d", len(r), cap(r), tc.w)
		}
		if tc.want > 1 {
			next := s.next(tc.w)
			_ = append(r, value.NewInt(1))
			if !next[0].IsNull() {
				t.Errorf("append to one record overwrote the next")
			}
		}
	}
}
