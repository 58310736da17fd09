package integration

import (
	"context"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/spill"
)

// dedupFixture builds two sources of n two-column rows each for UNION
// DISTINCT fan-in. Both sources start at base offsets; identical bases
// make the sources exact duplicates of each other.
func dedupFixture(n int, base2 int64) (spec *Spec, sources []schema.RowStream) {
	spec = &Spec{Kind: UnionDistinct, Columns: []string{"id", "v"}}
	mk := func(base int64) schema.RowStream {
		rows := make([]schema.Row, n)
		for i := range rows {
			rows[i] = row2(base+int64(i), int64(i))
		}
		return &gatedStream{cols: spec.Columns, rows: rows}
	}
	return spec, []schema.RowStream{mk(0), mk(base2)}
}

// drainAllRows pulls the stream dry, returning rows and terminal error.
func drainAllRows(s schema.RowStream) (int, error) {
	ctx := context.Background()
	n := 0
	for {
		r, err := s.Next(ctx)
		if err != nil {
			return n, err
		}
		if r == nil {
			return n, nil
		}
		n++
	}
}

// TestUnionDistinctDedupBudget: every fan-in mode's dedup completes
// under a 16-byte budget instead of failing fast. The combined and
// interleave modes spill their first-occurrence dedup state to runs;
// the ordered merge scopes dedup to one merge-key group at a time, and
// groups of one distinct row never spill.
func TestUnionDistinctDedupBudget(t *testing.T) {
	modes := []FanInMode{FanInSourceOrder, FanInInterleave, FanInMergeOrdered}
	for _, mode := range modes {
		t.Run(mode.String(), func(t *testing.T) {
			// Identical sources: 5000 distinct rows duplicated across the
			// two branches; dedup must collapse them exactly.
			spec, sources := dedupFixture(5000, 0)
			budget := spill.NewBudget(16, t.TempDir())
			opts := StreamOptions{
				Mode:      mode,
				MergeKeys: []schema.SortKey{{Col: 0}},
				Budget:    budget,
			}
			c := CombineStreamsOpts(context.Background(), spec, sources, opts)
			defer c.Close()
			n, err := drainAllRows(c)
			if err != nil {
				t.Fatal(err)
			}
			if n != 5000 {
				t.Fatalf("rows = %d, want 5000", n)
			}
			_, runs := budget.Stats()
			if mode == FanInMergeOrdered {
				// Per-key-group dedup holds one merge-key group, here one
				// distinct row, and a one-key set never spills.
				if runs != 0 {
					t.Fatalf("ordered merge dedup spilled %d runs", runs)
				}
			} else if runs == 0 {
				t.Fatalf("%s dedup under a 16-byte budget did not spill", mode)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if used := budget.Used(); used != 0 {
				t.Fatalf("budget not released: %d", used)
			}
		})
	}
}

// TestUnionDistinctDedupWithinBudget: a budget with room lets the same
// dedup complete in memory, deduping correctly across disjoint sources.
func TestUnionDistinctDedupWithinBudget(t *testing.T) {
	spec, sources := dedupFixture(500, 1<<20)
	budget := spill.NewBudget(1<<20, t.TempDir())
	opts := StreamOptions{Budget: budget}
	c := CombineStreamsOpts(context.Background(), spec, sources, opts)
	defer c.Close()
	n, err := drainAllRows(c)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("rows = %d", n)
	}
	if _, runs := budget.Stats(); runs != 0 {
		t.Fatalf("in-budget dedup spilled %d runs", runs)
	}
}

// TestMergeDedupGroupSpills: the ordered merge's UNION filter spills a
// merge-key group larger than the budget, and drains the group's
// deferred rows before the next group starts, so the output under a
// 4 KB budget is row for row the unbudgeted one: sorted on the merge
// key, first occurrences in arrival order within each group.
func TestMergeDedupGroupSpills(t *testing.T) {
	spec := &Spec{Kind: UnionDistinct, Columns: []string{"k", "v"}}
	// Five merge-key groups of 1,000 rows per source; the sources share
	// every other row of each group.
	mk := func(off int64) []schema.Row {
		rows := make([]schema.Row, 5000)
		for i := range rows {
			rows[i] = row2(int64(i/1000), int64(i%1000)*2+off*int64(i%2))
		}
		return rows
	}
	run := func(budget *spill.Budget) []schema.Row {
		sources := []schema.RowStream{
			&gatedStream{cols: spec.Columns, rows: mk(0)},
			&gatedStream{cols: spec.Columns, rows: mk(1)},
		}
		c := CombineStreamsOpts(context.Background(), spec, sources,
			StreamOptions{Mode: FanInMergeOrdered, MergeKeys: []schema.SortKey{{Col: 0}}, Budget: budget})
		defer c.Close()
		rows, err := schema.DrainStream(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		return rows.Rows
	}
	want := run(nil)
	if len(want) != 7500 {
		t.Fatalf("unbudgeted: %d rows, want 7,500", len(want))
	}
	budget := spill.NewBudget(4096, t.TempDir())
	got := run(budget)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if schema.CompareRowsBy(got[i], want[i], []schema.SortKey{{Col: 0}, {Col: 1}}) != 0 {
			t.Fatalf("row %d: %v, want %v", i, got[i], want[i])
		}
	}
	if _, runs := budget.Stats(); runs == 0 {
		t.Fatal("1,500-row groups under 4 KB did not spill")
	}
	if used := budget.Used(); used != 0 {
		t.Fatalf("budget not released: %d", used)
	}
}
