package integration

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/spill"
)

// streamOf wraps a materialized fragment as a fresh RowStream.
func streamOf(cols []string, rows []schema.Row) schema.RowStream {
	return schema.StreamOf(&schema.ResultSet{Columns: cols, Rows: rows})
}

// TestOuterMergeSpillMatchesInMemory: the spilling OUTERJOIN-MERGE
// stream resolves exactly the entities the unlimited path does — same
// keys, same resolved values, same key-sorted emission order — while
// holding its sources on disk.
func TestOuterMergeSpillMatchesInMemory(t *testing.T) {
	maxFn, _ := Lookup("max")
	spec := &Spec{
		Kind:      MergeOuter,
		Columns:   []string{"id", "v", "w"},
		KeyCols:   []int{0},
		Resolvers: map[int]Func{1: maxFn},
	}
	const n = 5000
	mk := func(base, count, stride int) []schema.Row {
		rows := make([]schema.Row, count)
		for i := range rows {
			rows[i] = schema.Row{
				vi(int64((base + i*stride) % (2 * n))),
				vi(int64(i % 101)),
				vt(fmt.Sprintf("w%d", i%7)),
			}
		}
		// Sprinkle NULL keys that must be dropped.
		for i := 0; i < count; i += 97 {
			rows[i] = schema.Row{vn(), vi(1), vt("ghost")}
		}
		return rows
	}
	fragA, fragB := mk(0, n, 1), mk(n/2, n, 3)

	combine := func(budget *spill.Budget) []schema.Row {
		c := CombineStreamsOpts(context.Background(), spec,
			[]schema.RowStream{streamOf(spec.Columns, fragA), streamOf(spec.Columns, fragB)},
			StreamOptions{Budget: budget})
		defer c.Close()
		var out []schema.Row
		ctx := context.Background()
		for {
			r, err := c.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if r == nil {
				return out
			}
			out = append(out, r)
		}
	}

	dir := t.TempDir()
	budget := spill.NewBudget(2048, dir)
	want := combine(nil) // unlimited: in-memory
	got := combine(budget)
	if _, runs := budget.Stats(); runs == 0 {
		t.Fatal("combiner did not spill")
	}
	if len(want) != len(got) {
		t.Fatalf("entities: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		for c := range want[i] {
			w, g := want[i][c], got[i][c]
			if w.IsNull() != g.IsNull() || (!w.IsNull() && (w.K != g.K || w.Text() != g.Text())) {
				t.Fatalf("entity %d col %d: want %s, got %s", i, c, w, g)
			}
		}
	}
	// Emission is integrated-key order.
	for i := 1; i < len(got); i++ {
		a, _ := got[i-1][0].Int()
		b, _ := got[i][0].Int()
		if b <= a {
			t.Fatalf("entities not in key order: %d after %d", b, a)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("spill files leaked: %d", len(ents))
	}
}

// TestOuterMergeKindExactKeys: keys that compare equal under the sort
// comparator but differ in kind (1 vs '1') stay distinct entities.
func TestOuterMergeKindExactKeys(t *testing.T) {
	spec := &Spec{Kind: MergeOuter, Columns: []string{"id", "v"}, KeyCols: []int{0}}
	intSide := []schema.Row{{vi(1), vt("int-1")}, {vi(2), vt("int-2")}}
	textSide := []schema.Row{{vt("1"), vt("text-1")}, {vi(2), vt("int-2b")}}
	want := map[string]string{
		kkey(vi(1)): "int-1", kkey(vt("1")): "text-1", kkey(vi(2)): "int-2",
	}
	checkEntities(t, spec, want, intSide, textSide)
}

// TestOuterMergeCyclicKeyKinds: mixed int/numeric-text keys form a
// cycle under the coercing value comparator ('9' < '10' is false as
// text, 10 > '9' is true numerically, 10 == '10'), so grouping must
// not depend on it: the merge's kind-first total order keeps every
// kind-exact key one contiguous entity.
func TestOuterMergeCyclicKeyKinds(t *testing.T) {
	spec := &Spec{Kind: MergeOuter, Columns: []string{"id", "v"}, KeyCols: []int{0}}
	cyclic := func(tag string) []schema.Row {
		return []schema.Row{
			{vt("9"), vt(tag + "-t9")},
			{vi(10), vt(tag + "-i10")},
			{vt("10"), vt(tag + "-t10")},
			{vi(9), vt(tag + "-i9")},
		}
	}
	// Four entities, each resolved by coalesce to source a's value.
	want := map[string]string{
		kkey(vt("9")): "a-t9", kkey(vi(10)): "a-i10", kkey(vt("10")): "a-t10", kkey(vi(9)): "a-i9",
	}
	checkEntities(t, spec, want, cyclic("a"), cyclic("b"))
}

// checkEntities combines the fragments in memory and under a spilling
// budget, holding both to want: resolved v by kind-exact key.
func checkEntities(t *testing.T, spec *Spec, want map[string]string, frags ...[]schema.Row) {
	t.Helper()
	for _, budget := range []*spill.Budget{nil, spill.NewBudget(64, t.TempDir())} {
		sources := make([]schema.RowStream, len(frags))
		for i, f := range frags {
			sources[i] = streamOf(spec.Columns, f)
		}
		c := CombineStreamsOpts(context.Background(), spec, sources, StreamOptions{Budget: budget})
		got, err := schema.DrainStream(context.Background(), c)
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want) {
			t.Fatalf("budget=%v: entities = %d, want %d (entity split or folded)",
				budget.Limit(), len(got.Rows), len(want))
		}
		for _, r := range got.Rows {
			if w, ok := want[kkey(r[0])]; !ok || r[1].Text() != w {
				t.Fatalf("budget=%v: entity %s resolved %q, want %q", budget.Limit(), kkey(r[0]), r[1].Text(), w)
			}
		}
	}
}

// TestOuterMergeSpillCleanupOnError: a source failing mid-drain fails
// the stream, and Close removes every spill run the partial drain
// wrote.
func TestOuterMergeSpillCleanupOnError(t *testing.T) {
	spec := &Spec{Kind: MergeOuter, Columns: []string{"id", "v"}, KeyCols: []int{0}}
	good := make([]schema.Row, 3000)
	for i := range good {
		good[i] = row2(int64(i), int64(i))
	}
	bad := &gatedStream{cols: spec.Columns, rows: []schema.Row{row2(1, 1)},
		err: fmt.Errorf("site exploded")}

	dir := t.TempDir()
	c := CombineStreamsOpts(context.Background(), spec,
		[]schema.RowStream{streamOf(spec.Columns, good), bad},
		StreamOptions{Budget: spill.NewBudget(1024, dir)})
	if _, err := c.Next(context.Background()); err == nil {
		t.Fatal("failing source did not surface")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("spill files leaked after error: %d", len(ents))
	}
}

// TestOuterMergeHonorsPerCallContext: cancellation between spill reads
// stops the merge immediately (the fix for the drain ignoring the
// per-call ctx once sources were buffered).
func TestOuterMergeHonorsPerCallContext(t *testing.T) {
	spec := &Spec{Kind: MergeOuter, Columns: []string{"id", "v"}, KeyCols: []int{0}}
	rows := make([]schema.Row, 4000)
	for i := range rows {
		rows[i] = row2(int64(i), int64(i))
	}
	dir := t.TempDir()
	c := CombineStreamsOpts(context.Background(), spec,
		[]schema.RowStream{streamOf(spec.Columns, rows)},
		StreamOptions{Budget: spill.NewBudget(1024, dir)})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := c.Next(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := c.Next(ctx); err == nil {
		t.Fatal("cancelled ctx not honored between spill reads")
	}
}

// TestByteBudgetShrinksBatches: under a byte budget, wide rows flush
// in small batches (bounding bytes in flight) while the result is
// unchanged; without it batches fill to feedBatchRows.
func TestByteBudgetShrinksBatches(t *testing.T) {
	spec := &Spec{Kind: UnionAll, Columns: []string{"id", "pad"}}
	wide := make([]schema.Row, 1024)
	for i := range wide {
		wide[i] = schema.Row{vi(int64(i)), vt(string(make([]byte, 1024)))} // ~1KB/row
	}

	maxBatch := func(opts StreamOptions) (int, int) {
		var mu sync.Mutex
		max, total := 0, 0
		opts.OnBatch = func(_, rows int) {
			mu.Lock()
			if rows > max {
				max = rows
			}
			total += rows
			mu.Unlock()
		}
		c := CombineStreamsOpts(context.Background(), spec,
			[]schema.RowStream{streamOf(spec.Columns, wide)}, opts)
		defer c.Close()
		n := 0
		ctx := context.Background()
		for {
			r, err := c.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if r == nil {
				break
			}
			n++
		}
		if n != len(wide) {
			t.Fatalf("rows = %d, want %d", n, len(wide))
		}
		mu.Lock()
		defer mu.Unlock()
		return max, total
	}

	unbounded, total := maxBatch(StreamOptions{})
	if unbounded != feedBatchRows || total != len(wide) {
		t.Fatalf("unbounded: max batch %d (want %d), total %d", unbounded, feedBatchRows, total)
	}
	// 64KB in flight over 1KB rows: per-batch cap = 64KB/window, far
	// below 256 rows.
	bounded, total := maxBatch(StreamOptions{ByteBudget: 64 * 1024})
	if total != len(wide) {
		t.Fatalf("bounded: total %d", total)
	}
	if bounded >= unbounded/2 {
		t.Fatalf("byte budget did not shrink batches: max %d vs %d", bounded, unbounded)
	}
}
