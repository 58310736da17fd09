package testfed

import (
	"context"
	"fmt"
	"testing"

	"myriad/internal/catalog"
	"myriad/internal/core"
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
