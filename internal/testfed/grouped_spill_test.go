package testfed

import (
	"context"
	"fmt"
	"testing"

	"myriad/internal/catalog"
	"myriad/internal/core"
	"myriad/internal/executor"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/schema"
	"myriad/internal/value"
)

const createG = `CREATE TABLE g (id INTEGER PRIMARY KEY, a INTEGER, b TEXT, v INTEGER)`

// genGRows builds n rows of grouped-corpus data starting at id base:
// group key a is NULL every 7th row (NULL groups), b is a three-value
// text key (multi-column grouping with a), v is duplicate-heavy.
func genGRows(base, n int) []schema.Row {
	rows := make([]schema.Row, n)
	for i := range rows {
		a := value.Null()
		if i%7 != 0 {
			a = value.NewInt(int64(i % 5))
		}
		rows[i] = schema.Row{
			value.NewInt(int64(base + i)),
			a,
			value.NewText(fmt.Sprintf("k%d", i%3)),
			value.NewInt(int64(i % 11)),
		}
	}
	return rows
}

// groupedFixture integrates both sites' G exports twice — GR as UNION
// ALL and GD as UNION DISTINCT — over overlapping data (ids 0..499
// identical at both sites) so fan-in dedup does real work under every
// policy.
func groupedFixture(t testing.TB) *Fixture {
	t.Helper()
	specs := []SiteSpec{
		{Name: "a", Setup: []string{createG},
			Exports: []gateway.Export{{Name: "G", LocalTable: "g"}}},
		{Name: "b", Setup: []string{createG},
			Exports: []gateway.Export{{Name: "G", LocalTable: "g"}}},
	}
	cols := []schema.Column{
		{Name: "id", Type: schema.TInt},
		{Name: "a", Type: schema.TInt},
		{Name: "b", Type: schema.TText},
		{Name: "v", Type: schema.TInt},
	}
	cmap := map[string]string{"id": "id", "a": "a", "b": "b", "v": "v"}
	mkDef := func(name string, kind integration.CombineKind) *catalog.IntegratedDef {
		def := &catalog.IntegratedDef{Name: name, Columns: cols, Key: []string{"id"}, Combine: kind}
		for _, s := range []string{"a", "b"} {
			def.Sources = append(def.Sources, catalog.SourceDef{Site: s, Export: "G", ColumnMap: cmap})
		}
		return def
	}
	fx := New(t, specs, []*catalog.IntegratedDef{
		mkDef("GR", integration.UnionAll), mkDef("GD", integration.UnionDistinct),
	})
	fx.LoadRows(t, "a", "g", genGRows(0, 2000))
	fx.LoadRows(t, "b", "g", append(genGRows(0, 500), genGRows(10_000, 1500)...))
	return fx
}

// groupedCorpus is the grouped/DISTINCT/UNION query corpus: NULL
// groups, duplicate-heavy keys, multi-column keys, DISTINCT aggregates,
// HAVING, and SQL-level UNION over both integrated tables.
var groupedCorpus = []string{
	`SELECT a, COUNT(*) AS n, SUM(v) AS s FROM GR GROUP BY a ORDER BY a`,
	`SELECT a, b, COUNT(*) AS n, SUM(v) AS s FROM GR GROUP BY a, b ORDER BY a, b`,
	`SELECT a, b, COUNT(*) AS n FROM GR GROUP BY a, b`,
	`SELECT b, COUNT(DISTINCT a) AS da FROM GR GROUP BY b ORDER BY b`,
	`SELECT a, COUNT(*) AS n FROM GR GROUP BY a HAVING COUNT(*) > 400 ORDER BY a`,
	`SELECT DISTINCT a, b FROM GR ORDER BY a, b`,
	`SELECT DISTINCT v FROM GR ORDER BY v`,
	`SELECT DISTINCT a, b, v FROM GR`,
	`SELECT a, v FROM GR WHERE v < 2 UNION SELECT a, v FROM GD WHERE v < 4 ORDER BY a, v`,
	`SELECT id, a, b, v FROM GD ORDER BY id`,
	`SELECT a, COUNT(*) AS n FROM GD GROUP BY a ORDER BY a`,
	`SELECT COUNT(*) AS n FROM GD`,
}

// TestGroupedSpillCorpus is the grouped-execution acceptance corpus:
// every grouped, DISTINCT and UNION query completes under a forced 4KB
// per-query budget — spilling instead of failing fast — and matches the
// oracle under both optimizer strategies and both fan-in policies.
func TestGroupedSpillCorpus(t *testing.T) {
	fx := groupedFixture(t)
	oracle := fx.Oracle(t)
	ctx := context.Background()
	dir := budgetFed(t, fx, 4096)
	var spills int64
	for _, policy := range []core.FanInPolicy{core.FanInAuto, core.FanInInterleave} {
		fx.Fed.FanIn = policy
		for _, strategy := range []core.Strategy{core.StrategyCostBased, core.StrategySimple} {
			for _, sql := range groupedCorpus {
				t.Run(fmt.Sprintf("%v/%v/%s", policy, strategy, sql), func(t *testing.T) {
					got, m, err := fx.Fed.QueryMetered(ctx, sql, strategy)
					if err != nil {
						t.Fatalf("budgeted: %v", err)
					}
					spills += m.SpillRuns
					if err := oracle.Check(ctx, sql, got); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
	fx.Fed.FanIn = core.FanInAuto
	if spills == 0 {
		t.Fatal("grouped corpus ran without a single spill under a 4KB budget")
	}
	assertNoSpillFiles(t, dir)
}

// TestOrderedMergeUnionGroupOverBudget: the ordered merge's UNION
// filter spills a merge-key group larger than the budget instead of
// failing. Every row of R has v = 0, so the whole relation is one
// merge-key group: 20,000 distinct rows, about 1.2 MB of dedup keys,
// under a 4 KB budget. The answer matches the oracle row for row, the
// group spilled, and no spill file is left. The planner ships an
// ORDER BY only for UNION ALL top-K, so the test declares the scan
// set's ordering itself; rows that all tie on v satisfy it in any
// arrival order.
func TestOrderedMergeUnionGroupOverBudget(t *testing.T) {
	specs := []SiteSpec{
		{Name: "a", Setup: []string{createT}, Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}},
		{Name: "b", Setup: []string{createT}, Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}},
	}
	fx := New(t, specs, []*catalog.IntegratedDef{unionDef(integration.UnionDistinct, "a", "b")})
	rows := func(base, n int) []schema.Row {
		out := make([]schema.Row, n)
		for i := range out {
			out[i] = schema.Row{value.NewInt(int64(base + i)), value.NewInt(0)}
		}
		return out
	}
	fx.LoadRows(t, "a", "t", rows(0, 12_000))
	fx.LoadRows(t, "b", "t", rows(8_000, 12_000)) // ids 8,000..11,999 at both sites
	oracle := fx.Oracle(t)
	ctx := context.Background()
	const sql = `SELECT id, v FROM R ORDER BY v`
	plan, err := fx.Plan(ctx, sql, core.StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	ss := plan.ScanSets[0]
	ss.ScanOrdering = []schema.SortKey{{Col: ss.Schema.ColIndex("v")}}
	dir := t.TempDir()
	got, m, err := execute(ctx, plan, fx.Runner(), executor.Options{MemBudget: 4096, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !m.ScratchBypassed {
		t.Fatal("the query did not run as an ordered merge")
	}
	if len(got.Rows) != 20_000 {
		t.Fatalf("%d rows, want 20,000", len(got.Rows))
	}
	if err := oracle.Check(ctx, sql, got); err != nil {
		t.Fatal(err)
	}
	if m.SpillRuns == 0 {
		t.Fatal("a 20,000-row merge-key group under 4 KB did not spill")
	}
	assertNoSpillFiles(t, dir)
}
