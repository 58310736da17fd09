package spill

import (
	"context"
	"fmt"
	"os"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/value"
)

// dedupRef runs the unbounded-map reference over the same input: the
// sequence of first occurrences in arrival order.
func dedupRef(keys []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// runDeduper feeds keys through a Deduper under the given budget and
// returns the concatenation of the streamed prefix and the Tail.
func runDeduper(t *testing.T, budget *Budget, keys []string) []string {
	t.Helper()
	ctx := context.Background()
	d := NewDeduper(budget)
	defer d.Close()
	var got []string
	for i, k := range keys {
		row := schema.Row{value.NewText(k), value.NewInt(int64(i))}
		emit, err := d.Admit(k, row)
		if err != nil {
			t.Fatal(err)
		}
		if emit {
			got = append(got, k)
		}
	}
	tail, err := d.Tail(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if (tail != nil) != d.Spilled() {
		t.Fatalf("tail presence %v vs Spilled %v", tail != nil, d.Spilled())
	}
	if tail == nil {
		return got
	}
	defer tail.Close()
	for {
		rec, err := tail.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			return got
		}
		r := TailRow(rec)
		if r[0].S != rec[0].S {
			t.Fatalf("tail row %v does not match its key %q", r, rec[0].S)
		}
		got = append(got, r[0].S)
	}
}

// TestDeduperMatchesReference: across budgets from "everything fits"
// down to "spills immediately", the deduper's output is exactly the
// unbounded map's first-occurrence sequence — same keys, same order.
func TestDeduperMatchesReference(t *testing.T) {
	// Duplicate-heavy with interleaved repeats: key i%97, so every key
	// recurs dozens of times, including across the spill transition.
	var keys []string
	for i := 0; i < 3000; i++ {
		keys = append(keys, fmt.Sprintf("k%03d", i%97))
	}
	// A distinct tail so later keys arrive only after any spill.
	for i := 0; i < 500; i++ {
		keys = append(keys, fmt.Sprintf("z%03d", i))
	}
	want := dedupRef(keys)

	for _, limit := range []int64{0, 1 << 20, 512, 16} {
		t.Run(fmt.Sprintf("budget-%d", limit), func(t *testing.T) {
			dir := t.TempDir()
			budget := NewBudget(limit, dir)
			got := runDeduper(t, budget, keys)
			if len(got) != len(want) {
				t.Fatalf("%d keys, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("position %d: got %q, want %q", i, got[i], want[i])
				}
			}
			wantSpill := limit > 0 && limit < 4096
			if _, runs := budget.Stats(); (runs > 0) != wantSpill {
				t.Fatalf("spill runs = %d under budget %d", runs, limit)
			}
			if used := budget.Used(); used != 0 {
				t.Fatalf("budget not released: %d", used)
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Fatalf("%d spill files leaked", len(ents))
			}
		})
	}
}

// TestDeduperCrossPhaseDuplicates: a key emitted by the in-memory phase
// must stay suppressed after the spill — the marker records carry the
// already-seen set into the sorted fold.
func TestDeduperCrossPhaseDuplicates(t *testing.T) {
	budget := NewBudget(64, t.TempDir()) // room for a couple of keys, then spill
	d := NewDeduper(budget)
	defer d.Close()
	ctx := context.Background()

	admit := func(k string) bool {
		emit, err := d.Admit(k, schema.Row{value.NewText(k)})
		if err != nil {
			t.Fatal(err)
		}
		return emit
	}
	if !admit("early") {
		t.Fatal("first occurrence not emitted in memory")
	}
	// Force the spill with fresh keys, then replay "early".
	for i := 0; i < 50; i++ {
		admit(fmt.Sprintf("fill%02d", i))
	}
	if !d.Spilled() {
		t.Fatal("64-byte budget did not spill")
	}
	if admit("early") {
		t.Fatal("duplicate of an emitted key re-admitted after spill")
	}
	tail, err := d.Tail(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	for {
		rec, err := tail.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			break
		}
		if rec[0].S == "early" {
			t.Fatal("tail re-emitted a key the in-memory phase already emitted")
		}
	}
}

// TestDeduperCloseWithoutTail: abandoning a spilled deduper mid-stream
// (the early-termination path) releases its reservation and leaves no
// temp files.
func TestDeduperCloseWithoutTail(t *testing.T) {
	dir := t.TempDir()
	budget := NewBudget(16, dir)
	d := NewDeduper(budget)
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%03d", i)
		if _, err := d.Admit(k, schema.Row{value.NewText(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Spilled() {
		t.Fatal("did not spill")
	}
	d.Close()
	if used := budget.Used(); used != 0 {
		t.Fatalf("budget not released: %d", used)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("%d spill files leaked", len(ents))
	}
}
