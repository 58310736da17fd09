package spill

import (
	"context"
	"fmt"
	"os"
	"sort"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/value"
)

func drain(t *testing.T, it *Iterator) []schema.Row {
	t.Helper()
	var out []schema.Row
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

func runFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestRunRoundTrip: every value kind survives the gob run format
// byte-for-byte, under a budget tiny enough that everything spills.
func TestRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := NewBudget(64, dir) // every row spills
	s := NewSorter(b, []schema.SortKey{{Col: 0}})
	rows := []schema.Row{
		{value.NewInt(3), value.NewText("three"), value.NewFloat(3.25), value.NewBool(true), value.Null()},
		{value.NewInt(1), value.NewText(""), value.NewFloat(-0.5), value.NewBool(false), value.NewText("x")},
		{value.NewInt(2), value.Null(), value.NewFloat(2e17), value.Null(), value.NewText("héllo\x00world")},
	}
	for _, r := range rows {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.Spilled() {
		t.Fatal("expected a spilled sort")
	}
	got := drain(t, it)
	if len(got) != 3 {
		t.Fatalf("rows = %d", len(got))
	}
	wantOrder := []int{1, 2, 0} // sorted by col 0
	for i, wi := range wantOrder {
		want := rows[wi]
		for c := range want {
			w, g := want[c], got[i][c]
			if w.IsNull() != g.IsNull() || (!w.IsNull() && (w.K != g.K || w.Text() != g.Text())) {
				t.Fatalf("row %d col %d: want %s, got %s", i, c, w, g)
			}
		}
	}
	if sb, sr := b.Stats(); sb == 0 || sr == 0 {
		t.Fatalf("spill stats not recorded: bytes=%d runs=%d", sb, sr)
	}
}

// TestNullsFirstSpilled: the spilled ordering keeps the federation's
// NULLs-first-ascending contract (so NULLs land last under DESC).
func TestNullsFirstSpilled(t *testing.T) {
	for _, desc := range []bool{false, true} {
		b := NewBudget(64, t.TempDir())
		s := NewSorter(b, []schema.SortKey{{Col: 0, Desc: desc}})
		for _, v := range []value.Value{value.NewInt(5), value.Null(), value.NewInt(1), value.Null(), value.NewInt(9)} {
			if err := s.Add(schema.Row{v}); err != nil {
				t.Fatal(err)
			}
		}
		it, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, it)
		it.Close()
		var texts []string
		for _, r := range got {
			texts = append(texts, r[0].Text())
		}
		want := "NULL,NULL,1,5,9"
		if desc {
			want = "9,5,1,NULL,NULL"
		}
		if joined := fmt.Sprintf("%s,%s,%s,%s,%s", texts[0], texts[1], texts[2], texts[3], texts[4]); joined != want {
			t.Fatalf("desc=%v: got %s, want %s", desc, joined, want)
		}
	}
}

// TestMergeStability: rows with equal keys come back in arrival (FIFO)
// order even when they land in many different runs — the run-index
// tie-break at every merge level, including compaction, reproduces the
// stable in-memory sort exactly.
func TestMergeStability(t *testing.T) {
	const n = 20_000 // rows; tiny budget forces hundreds of runs and a compaction pass
	b := NewBudget(2048, t.TempDir())
	s := NewSorter(b, []schema.SortKey{{Col: 0}})
	for i := 0; i < n; i++ {
		// Key domain of 7 gives long FIFO chains per key; col 1 records
		// arrival order.
		if err := s.Add(schema.Row{value.NewInt(int64(i % 7)), value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.Spilled() {
		t.Fatal("expected a spilled sort")
	}
	got := drain(t, it)
	if len(got) != n {
		t.Fatalf("rows = %d, want %d", len(got), n)
	}
	prevKey, prevSeq := int64(-1), int64(-1)
	for i, r := range got {
		k, _ := r[0].Int()
		seq, _ := r[1].Int()
		if k < prevKey {
			t.Fatalf("row %d: key %d after %d", i, k, prevKey)
		}
		if k == prevKey && seq <= prevSeq {
			t.Fatalf("row %d: FIFO violated within key %d (seq %d after %d)", i, k, seq, prevSeq)
		}
		if k > prevKey {
			prevSeq = -1
		}
		prevKey, prevSeq = k, seq
	}
	if _, runs := b.Stats(); runs <= int64(maxMergeFanIn) {
		t.Fatalf("expected compaction (> %d runs), got %d", maxMergeFanIn, runs)
	}
}

// TestSpilledMatchesInMemory: a spilled sort is row-for-row identical
// to the unlimited in-memory sort of the same input.
func TestSpilledMatchesInMemory(t *testing.T) {
	keys := []schema.SortKey{{Col: 0, Desc: true}, {Col: 1}}
	input := make([]schema.Row, 5000)
	for i := range input {
		input[i] = schema.Row{value.NewInt(int64(i % 31)), value.NewText(fmt.Sprintf("r%d", i%17)), value.NewInt(int64(i))}
	}
	sortRows := func(budget *Budget) []schema.Row {
		s := NewSorter(budget, keys)
		for _, r := range input {
			if err := s.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		it, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		return drain(t, it)
	}
	want := sortRows(nil) // unlimited: pure in-memory stable sort
	got := sortRows(NewBudget(4096, t.TempDir()))
	if len(want) != len(got) {
		t.Fatalf("rows: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		for c := range want[i] {
			if want[i][c].Text() != got[i][c].Text() || want[i][c].K != got[i][c].K {
				t.Fatalf("row %d col %d: want %s, got %s", i, c, want[i][c], got[i][c])
			}
		}
	}
}

// TestTempFileCleanup: run files exist while the sort streams and are
// gone after Close — including an early Close mid-stream and an
// abandoned (never Finished) sorter.
func TestTempFileCleanup(t *testing.T) {
	dir := t.TempDir()
	b := NewBudget(512, dir)
	s := NewSorter(b, []schema.SortKey{{Col: 0}})
	for i := 0; i < 1000; i++ {
		if err := s.Add(schema.Row{value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(runFiles(t, dir)) == 0 {
		t.Fatal("no run files while streaming")
	}
	// Read a few rows, then abandon mid-stream.
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := it.Next(ctx); err != nil {
			t.Fatal(err)
		}
	}
	it.Close()
	it.Close() // idempotent
	if left := runFiles(t, dir); len(left) != 0 {
		t.Fatalf("run files leaked after Close: %v", left)
	}
	if got := b.Used(); got != 0 {
		t.Fatalf("budget not released: %d", got)
	}

	// Abandoned sorter: Close without Finish removes its runs too.
	s2 := NewSorter(b, []schema.SortKey{{Col: 0}})
	for i := 0; i < 1000; i++ {
		if err := s2.Add(schema.Row{value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if len(runFiles(t, dir)) == 0 {
		t.Fatal("no run files before abandon")
	}
	s2.Close()
	if left := runFiles(t, dir); len(left) != 0 {
		t.Fatalf("run files leaked after abandon: %v", left)
	}
}

// TestIteratorHonorsContext: a cancelled per-call context stops a
// disk-backed iteration immediately.
func TestIteratorHonorsContext(t *testing.T) {
	b := NewBudget(512, t.TempDir())
	s := NewSorter(b, []schema.SortKey{{Col: 0}})
	for i := 0; i < 1000; i++ {
		if err := s.Add(schema.Row{value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := it.Next(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := it.Next(ctx); err != context.Canceled {
		t.Fatalf("cancelled Next: err = %v", err)
	}
}

// TestBudgetAccounting: Reserve/Release/Force bookkeeping, and the nil
// budget as the unlimited one.
func TestBudgetAccounting(t *testing.T) {
	b := NewBudget(100, "")
	if !b.Reserve(60) || !b.Reserve(40) {
		t.Fatal("reserve within limit refused")
	}
	if b.Reserve(1) {
		t.Fatal("reserve past limit accepted")
	}
	b.Release(50)
	if !b.Reserve(50) {
		t.Fatal("reserve after release refused")
	}
	b.Force(1000)
	if got := b.Used(); got != 1100 {
		t.Fatalf("used = %d", got)
	}
	// nil budget: everything is a no-op that allows.
	var nb *Budget
	if !nb.Reserve(1 << 40) {
		t.Fatal("nil budget should be unlimited")
	}
	nb.Release(1)
	nb.Force(1)
	if sb, sr := nb.Stats(); sb != 0 || sr != 0 {
		t.Fatal("nil budget stats")
	}
}

// TestUnlimitedNeverSpills: with a nil or zero-limit budget the sorter
// stays in memory and creates no files.
func TestUnlimitedNeverSpills(t *testing.T) {
	dir := t.TempDir()
	for _, b := range []*Budget{nil, NewBudget(0, dir)} {
		s := NewSorter(b, []schema.SortKey{{Col: 0}})
		for i := 0; i < 10_000; i++ {
			if err := s.Add(schema.Row{value.NewInt(int64(10_000 - i))}); err != nil {
				t.Fatal(err)
			}
		}
		it, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if it.Spilled() {
			t.Fatal("unlimited budget spilled")
		}
		got := drain(t, it)
		it.Close()
		if !sort.SliceIsSorted(got, func(a, c int) bool {
			x, _ := got[a][0].Int()
			y, _ := got[c][0].Int()
			return x < y
		}) {
			t.Fatal("not sorted")
		}
	}
	if left := runFiles(t, dir); len(left) != 0 {
		t.Fatalf("files created: %v", left)
	}
}
