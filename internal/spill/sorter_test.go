package spill

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/value"
)

// sortAll runs rows through a Sorter under budget and drains it.
func sortAll(t testing.TB, budget *Budget, keys []schema.SortKey, rows []schema.Row) []schema.Row {
	t.Helper()
	s := NewSorter(budget, keys)
	for _, r := range rows {
		if err := s.Add(r); err != nil {
			s.Close()
			t.Fatal(err)
		}
	}
	it, err := s.Finish()
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	defer it.Close()
	var out []schema.Row
	for {
		r, err := it.Next(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			return out
		}
		out = append(out, r)
	}
}

// TestSorterMatchesSliceStable is the typed sort's property test:
// random rows whose sort keys tie heavily (three-value domains, NULLs
// included) come back row for row in sort.SliceStable's order, whether
// the sort stays in memory or spills runs under budgets down to 256 B.
// The last column is the arrival index, so any tie broken out of
// arrival order shows.
func TestSorterMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keyVal := func() value.Value {
		switch n := rng.Intn(4); n {
		case 3:
			return value.Null()
		default:
			return value.NewInt(int64(n))
		}
	}
	keySets := [][]schema.SortKey{
		{{Col: 0}},
		{{Col: 1, Desc: true}},
		{{Col: 0}, {Col: 1, Desc: true}},
	}
	for trial := 0; trial < 20; trial++ {
		rows := make([]schema.Row, 1+rng.Intn(3000))
		for i := range rows {
			rows[i] = schema.Row{keyVal(), keyVal(), value.NewText(fmt.Sprintf("p%d", rng.Intn(5))), value.NewInt(int64(i))}
		}
		keys := keySets[trial%len(keySets)]
		want := append([]schema.Row(nil), rows...)
		sort.SliceStable(want, func(a, b int) bool { return schema.CompareRowsBy(want[a], want[b], keys) < 0 })
		for _, limit := range []int64{0, 1 << 20, 64 << 10, 4096, 256} {
			var budget *Budget
			if limit > 0 {
				budget = NewBudget(limit, t.TempDir())
			}
			got := sortAll(t, budget, keys, rows)
			if len(got) != len(want) {
				t.Fatalf("trial %d budget %d: %d rows, want %d", trial, limit, len(got), len(want))
			}
			for i := range want {
				if g, w := got[i][3].Text(), want[i][3].Text(); g != w {
					t.Fatalf("trial %d budget %d keys %v: row %d is arrival %s, want %s", trial, limit, keys, i, g, w)
				}
			}
		}
	}
}

// BenchmarkSorter sorts one sort_spill-shaped row set — 20,000 (id,
// name, price) rows ordered by price — in memory, and under a 1 MB
// budget, the federation's default, where the sort both fills memory
// and spills runs.
func BenchmarkSorter(b *testing.B) {
	rows := make([]schema.Row, 20_000)
	for i := range rows {
		price := float64((i*7919)%100_000) / 100
		rows[i] = schema.Row{value.NewInt(int64(i)), value.NewText(fmt.Sprintf("part %06d", i)), value.NewFloat(price)}
	}
	keys := []schema.SortKey{{Col: 2}}
	for _, limit := range []int64{0, 1 << 20} {
		b.Run(fmt.Sprintf("budget=%d", limit), func(b *testing.B) {
			dir := b.TempDir()
			b.ReportAllocs()
			for b.Loop() {
				var budget *Budget
				if limit > 0 {
					budget = NewBudget(limit, dir)
				}
				if got := sortAll(b, budget, keys, rows); len(got) != len(rows) {
					b.Fatalf("sorted %d of %d rows", len(got), len(rows))
				}
			}
		})
	}
}
