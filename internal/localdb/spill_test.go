package localdb

import (
	"context"
	"fmt"
	"os"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/spill"
	"myriad/internal/sqlparser"
	"myriad/internal/value"
)

// spillFixture loads n (id, v, pad) rows into a budgeted database.
func spillFixture(t testing.TB, n int, budget *spill.Budget) *DB {
	t.Helper()
	db := NewWithBudget("spilltest", budget)
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, pad TEXT)`)
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{
			value.NewInt(int64(i)),
			value.NewInt(int64((n - i) % 997)),
			value.NewText(fmt.Sprintf("pad-%d", i%13)),
		}
	}
	if err := db.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExternalSortMatchesInMemory: ORDER BY without LIMIT over an
// input far beyond a 4KB budget completes by spilling sorted runs and
// is row-for-row identical to the unlimited in-memory sort.
func TestExternalSortMatchesInMemory(t *testing.T) {
	const n = 100_000
	ctx := context.Background()
	dir := t.TempDir()
	budget := spill.NewBudget(4096, dir)
	spilled := spillFixture(t, n, budget)
	resident := spillFixture(t, n, nil)

	const q = `SELECT id, v, pad FROM t ORDER BY v, pad DESC`
	want, err := resident.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := spilled.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != n || len(got.Rows) != n {
		t.Fatalf("rows: want %d/%d, got %d", n, len(want.Rows), len(got.Rows))
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
		t.Fatal("sort did not spill")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("spill files leaked: %d", len(ents))
	}
	if used := budget.Used(); used != 0 {
		t.Fatalf("budget not released: %d", used)
	}
}

// TestExternalSortEarlyClose: closing a streamed spilled sort
// mid-flight removes its run files and releases the budget.
func TestExternalSortEarlyClose(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	budget := spill.NewBudget(4096, dir)
	db := spillFixture(t, 20_000, budget)
	rows, err := db.QueryStream(ctx, `SELECT id FROM t ORDER BY v`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := rows.Next(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) == 0 {
		t.Fatal("expected live run files mid-stream")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("spill files leaked after early Close: %d", len(ents))
	}
	if used := budget.Used(); used != 0 {
		t.Fatalf("budget not released: %d", used)
	}
}

// TestGroupByOverBudget: GROUP BY past the memory budget no longer
// fails fast — grouping spills sorted runs and folds adjacent key runs
// group-at-a-time, so even a grouping with as many groups as rows
// completes, matches the unlimited in-memory strategy row for row, and
// leaks neither run files nor budget.
func TestGroupByOverBudget(t *testing.T) {
	const n = 20_000
	ctx := context.Background()
	dir := t.TempDir()
	budget := spill.NewBudget(1024, dir)
	db := spillFixture(t, n, budget)
	resident := spillFixture(t, n, nil)

	for _, q := range []string{
		// ~1000 distinct v values: many rows per group.
		`SELECT v, COUNT(*), SUM(id) FROM t GROUP BY v`,
		// One group per row: the case the old fail-fast path rejected.
		`SELECT id, COUNT(*) FROM t GROUP BY id`,
	} {
		want, err := resident.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d groups, want %d", q, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			for c := range want.Rows[i] {
				w, g := want.Rows[i][c], got.Rows[i][c]
				if w.K != g.K || w.Text() != g.Text() {
					t.Fatalf("%s: row %d col %d: want %s, got %s", q, i, c, w, g)
				}
			}
		}
	}
	if _, runs := budget.Stats(); runs == 0 {
		t.Fatal("grouping under a 1KB budget did not spill")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("spill files leaked: %d", len(ents))
	}
	if used := budget.Used(); used != 0 {
		t.Fatalf("budget not released: %d", used)
	}
}

// TestCompileRowPredicate: the exported predicate compiler matches the
// engine's expression semantics and rejects what it cannot bind.
func TestCompileRowPredicate(t *testing.T) {
	sc := &schema.Schema{Table: "t", Columns: []schema.Column{
		{Name: "id", Type: schema.TInt},
		{Name: "name", Type: schema.TText},
	}}
	for _, tc := range []struct {
		where string
		row   schema.Row
		want  Truth
	}{
		{`id > 5`, schema.Row{value.NewInt(7), value.NewText("a")}, True},
		{`id > 5`, schema.Row{value.NewInt(3), value.NewText("a")}, False},
		{`id > 5`, schema.Row{value.Null(), value.NewText("a")}, Unknown},
		{`t.name = 'a' AND id < 10`, schema.Row{value.NewInt(3), value.NewText("a")}, True},
		{`name LIKE 'b%'`, schema.Row{value.NewInt(3), value.NewText("abc")}, False},
		{`id IS NULL`, schema.Row{value.Null(), value.NewText("a")}, True},
	} {
		pred, _, err := CompileRowPredicate(parseWhere(t, tc.where), sc, "t")
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.where, err)
		}
		got, err := pred(tc.row)
		if err != nil {
			t.Fatalf("%s: eval: %v", tc.where, err)
		}
		if got != tc.want {
			t.Fatalf("%s over %v: got %v, want %v", tc.where, tc.row, got, tc.want)
		}
	}
	// reads marks exactly the columns the predicate binds.
	if _, reads, err := CompileRowPredicate(parseWhere(t, `id > 5 OR id IS NULL`), sc, "t"); err != nil || !reads[0] || reads[1] {
		t.Fatalf("reads = %v (err %v), want only id", reads, err)
	}
	// Unknown columns and aliases fail compilation.
	for _, bad := range []string{`ghost = 1`, `x.id = 1`, `COUNT(*) > 1`} {
		if _, _, err := CompileRowPredicate(parseWhere(t, bad), sc, "t"); err == nil {
			t.Fatalf("%s: compiled but should not bind", bad)
		}
	}
}

// parseWhere parses a WHERE expression via a wrapper SELECT.
func parseWhere(t *testing.T, where string) sqlparser.Expr {
	t.Helper()
	stmt, err := sqlparser.Parse(`SELECT * FROM t WHERE ` + where)
	if err != nil {
		t.Fatalf("parsing %q: %v", where, err)
	}
	return stmt.(*sqlparser.Select).Where
}

// TestSortAppendRowsMatchesRowPath: a full sort's AppendRows — its
// records without their sort keys, copied from spilled runs or encoded
// from memory — gives db.Query's rows encoded, at 1, 7, scanBatchSize
// and 1000 rows a call, with no budget, a 4 KB budget (a few runs) and
// a 16 B budget (a run a record, compacted); AppendRows reaches the sort
// as the statement's top iterator, and no run file is left.
func TestSortAppendRowsMatchesRowPath(t *testing.T) {
	queries := []string{
		`SELECT id, v, pad FROM t ORDER BY v, pad DESC`,
		`SELECT pad, id * 2 AS d FROM t ORDER BY pad`,
		`SELECT v FROM t ORDER BY v DESC, id`,
		`SELECT pad, COUNT(*) AS n FROM t GROUP BY pad ORDER BY n DESC, pad`,
		`SELECT id FROM t WHERE id < 0 ORDER BY v`,
	}
	ctx := context.Background()
	for _, limit := range []int64{0, 4096, 16} {
		dir := t.TempDir()
		var budget *spill.Budget
		if limit > 0 {
			budget = spill.NewBudget(limit, dir)
		}
		db := spillFixture(t, 700, budget)
		for _, sql := range queries {
			rows, err := db.QueryStream(ctx, sql)
			if err != nil {
				t.Fatal(err)
			}
			_, sorted := rows.it.(*sortIter)
			rows.Close()
			if !sorted {
				t.Fatalf("%s: top iterator %T, want a sort", sql, rows.it)
			}
			checkAppendRows(t, db, sql, "")
		}
		if _, runs := budget.Stats(); (runs > 0) != (limit > 0) {
			t.Fatalf("budget %d: %d runs", limit, runs)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Fatalf("budget %d: %d run files left", limit, len(ents))
		}
	}
}
