package localdb

import (
	"context"
	"testing"

	"myriad/internal/spill"
)

// TestDistinctDedupBudget: the streaming DISTINCT's dedup state is
// budget-true — when the key set outgrows a tiny budget it spills to
// sort-based dedup and still produces every first occurrence in order,
// row-for-row identical to the unlimited in-memory run.
func TestDistinctDedupBudget(t *testing.T) {
	ctx := context.Background()
	budget := spill.NewBudget(16, t.TempDir())
	db := NewWithBudget("distinct", budget)
	seedKV(t, db, 5000, func(i int) *int64 { return i64(int64(i)) }) // all distinct
	ref := NewWithBudget("distinctref", nil)
	seedKV(t, ref, 5000, func(i int) *int64 { return i64(int64(i)) })

	const q = `SELECT DISTINCT id, v FROM t`
	want, err := ref.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%d distinct rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for c := range want.Rows[i] {
			w, g := want.Rows[i][c], got.Rows[i][c]
			if w.K != g.K || w.Text() != g.Text() {
				t.Fatalf("row %d col %d: want %s, got %s", i, c, w, g)
			}
		}
	}
	if _, runs := budget.Stats(); runs == 0 {
		t.Fatal("all-distinct DISTINCT under a 16-byte budget did not spill")
	}
	if used := budget.Used(); used != 0 {
		t.Fatalf("budget not released: %d", used)
	}

	// A duplicate-heavy DISTINCT stays tiny and streams without
	// spilling: the key set is bounded by distinct keys, not input rows.
	db2budget := spill.NewBudget(4096, t.TempDir())
	db2 := NewWithBudget("distinct2", db2budget)
	seedKV(t, db2, 5000, func(i int) *int64 { return i64(int64(i % 5)) })
	rs, err := db2.Query(ctx, `SELECT DISTINCT v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 5 {
		t.Fatalf("%d distinct rows", len(rs.Rows))
	}
	if _, runs := db2budget.Stats(); runs != 0 {
		t.Fatalf("duplicate-heavy DISTINCT spilled %d runs", runs)
	}
}

// TestDistinctAggregateBudget: a DISTINCT aggregate's dedup state is
// budget-true — when a single group's distinct-argument set outgrows
// the budget it spills through spill.Deduper instead of erroring, and
// the result matches the unlimited run.
func TestDistinctAggregateBudget(t *testing.T) {
	ctx := context.Background()
	check := func(t *testing.T, q string, vOf func(i int) *int64) {
		t.Helper()
		budget := spill.NewBudget(16, t.TempDir())
		db := NewWithBudget("distinctagg", budget)
		seedKV(t, db, 5000, vOf)
		ref := NewWithBudget("distinctaggref", nil)
		seedKV(t, ref, 5000, vOf)

		want, err := ref.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%d rows, want %d", len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			for c := range want.Rows[i] {
				w, g := want.Rows[i][c], got.Rows[i][c]
				if w.K != g.K || w.Text() != g.Text() {
					t.Fatalf("row %d col %d: want %s, got %s", i, c, w, g)
				}
			}
		}
		if _, runs := budget.Stats(); runs == 0 {
			t.Fatalf("%q under a 16-byte budget did not spill", q)
		}
		if used := budget.Used(); used != 0 {
			t.Fatalf("budget not released: %d", used)
		}
	}

	// A global aggregate is one group: its DISTINCT state alone
	// outgrows the budget and spills.
	t.Run("global", func(t *testing.T) {
		check(t, `SELECT COUNT(DISTINCT v) AS dv, SUM(DISTINCT v) AS sv, MAX(v) AS mv FROM t`,
			func(i int) *int64 { return i64(int64(i % 4000)) })
	})

	// Grouped: each group's DISTINCT set spills independently and the
	// per-group results still match.
	t.Run("grouped", func(t *testing.T) {
		check(t, `SELECT v, COUNT(DISTINCT id) AS dids FROM t GROUP BY v ORDER BY v`,
			func(i int) *int64 { return i64(int64(i % 3)) })
	})
}

// TestUnionMaterializationBudget: the engine's UNION path streams —
// UNION ALL never materializes a branch, and UNION's dedup spills past
// the budget instead of failing fast, matching the unlimited run.
func TestUnionMaterializationBudget(t *testing.T) {
	ctx := context.Background()
	budget := spill.NewBudget(16, t.TempDir())
	db := NewWithBudget("union", budget)
	seedKV(t, db, 5000, func(i int) *int64 { return i64(int64(i)) })

	// UNION ALL is pure concatenation: completes under a 16-byte budget
	// without any dedup state at all.
	rs, err := db.Query(ctx, `SELECT id, v FROM t UNION ALL SELECT id, v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 10000 {
		t.Fatalf("%d rows from UNION ALL", len(rs.Rows))
	}

	// UNION dedup over all-distinct branches outgrows the budget and
	// spills; the result still collapses the duplicate branch exactly.
	rs, err = db.Query(ctx, `SELECT id, v FROM t UNION SELECT id, v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 5000 {
		t.Fatalf("%d rows after dedup", len(rs.Rows))
	}
	if _, runs := budget.Stats(); runs == 0 {
		t.Fatal("UNION dedup under a 16-byte budget did not spill")
	}
	if used := budget.Used(); used != 0 {
		t.Fatalf("budget not released: %d", used)
	}

	// Within the budget the union completes in memory, deduping included.
	db2 := NewWithBudget("union2", spill.NewBudget(1<<20, t.TempDir()))
	seedKV(t, db2, 500, func(i int) *int64 { return i64(int64(i)) })
	rs, err = db2.Query(ctx, `SELECT id, v FROM t UNION SELECT id, v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 500 {
		t.Fatalf("%d rows after dedup", len(rs.Rows))
	}
}
