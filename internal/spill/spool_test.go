package spill

import (
	"context"
	"fmt"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/value"
)

func drainSpool(t *testing.T, sp *Spool) []schema.Row {
	t.Helper()
	rd, err := sp.Rows()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var out []schema.Row
	for {
		r, err := rd.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			return out
		}
		out = append(out, r)
	}
}

// TestSpoolReplaysArrivalOrder: under an unlimited, a roomy and a tiny
// budget the spool replays every row in arrival order, as often as it
// is read; past the budget every row goes to one run file and the
// spool gives its reservation back, and Close removes the file.
func TestSpoolReplaysArrivalOrder(t *testing.T) {
	rows := make([]schema.Row, 2000)
	for i := range rows {
		rows[i] = schema.Row{value.NewInt(int64(i)), value.NewText(fmt.Sprintf("row %d", i))}
	}
	for _, limit := range []int64{0, 1 << 20, 4096} {
		dir := t.TempDir()
		var budget *Budget
		if limit > 0 {
			budget = NewBudget(limit, dir)
		}
		sp := NewSpool(budget)
		for _, r := range rows {
			if err := sp.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		if sp.Len() != len(rows) {
			t.Fatalf("budget %d: Len = %d", limit, sp.Len())
		}
		if spilled := sp.Spilled(); spilled != (limit == 4096) {
			t.Fatalf("budget %d: Spilled = %v", limit, spilled)
		}
		if used := budget.Used(); sp.Spilled() && used != 0 {
			t.Fatalf("spilled spool still holds %d budget bytes", used)
		}
		for pass := 0; pass < 2; pass++ {
			got := drainSpool(t, sp)
			if len(got) != len(rows) {
				t.Fatalf("budget %d pass %d: %d rows", limit, pass, len(got))
			}
			for i, r := range got {
				if r[1].Text() != rows[i][1].Text() {
					t.Fatalf("budget %d pass %d: row %d = %s", limit, pass, i, r[1].Text())
				}
			}
		}
		if err := sp.Add(rows[0]); err == nil {
			t.Fatalf("budget %d: Add after Rows succeeded", limit)
		}
		if limit == 4096 && len(runFiles(t, dir)) != 1 {
			t.Fatalf("spilled spool left %v", runFiles(t, dir))
		}
		sp.Close()
		if files := runFiles(t, dir); len(files) != 0 {
			t.Fatalf("budget %d: Close left %v", limit, files)
		}
		if used := budget.Used(); used != 0 {
			t.Fatalf("budget %d: %d bytes still reserved", limit, used)
		}
	}
}

// TestSpoolCloseBeforeRead: a spool abandoned mid-write (the query was
// cancelled while its build side drained) removes its run file.
func TestSpoolCloseBeforeRead(t *testing.T) {
	dir := t.TempDir()
	sp := NewSpool(NewBudget(256, dir))
	for i := 0; i < 500; i++ {
		if err := sp.Add(schema.Row{value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if !sp.Spilled() {
		t.Fatal("expected the spool to spill")
	}
	sp.Close()
	if files := runFiles(t, dir); len(files) != 0 {
		t.Fatalf("Close left %v", files)
	}
	if _, err := sp.Rows(); err == nil {
		t.Fatal("reading a closed spool succeeded")
	}
}
