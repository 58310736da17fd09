package testfed

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"myriad/internal/catalog"
	"myriad/internal/core"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/schema"
	"myriad/internal/value"
)

// orderedSiteSetup is createT plus an ordered index on v — the site
// shape PR 5's acceptance federates over.
var orderedSiteSetup = []string{createT, `CREATE ORDERED INDEX t_v ON t (v)`}

// uniqueVRows builds n (id, v) rows with v unique and shuffled-ish
// (v = (id*7919) mod 1e9), so range predicates have clean selectivity.
func uniqueVRows(base, n int) []schema.Row {
	rows := make([]schema.Row, n)
	for i := range rows {
		id := base + i
		rows[i] = schema.Row{value.NewInt(int64(id)), value.NewInt(int64(id))}
	}
	return rows
}

// orderedTwoSite boots two sites with ordered indexes on v and n rows
// each (disjoint id=v domains), integrated as R = a.T UNION ALL b.T.
func orderedTwoSite(t testing.TB, n int, indexed bool) *Fixture {
	setup := []string{createT}
	if indexed {
		setup = orderedSiteSetup
	}
	specs := []SiteSpec{
		{Name: "a", Setup: setup, Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}},
		{Name: "b", Setup: setup, Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}},
	}
	fx := New(t, specs, []*catalog.IntegratedDef{unionDef(integration.UnionAll, "a", "b")})
	fx.LoadRows(t, "a", "t", uniqueVRows(0, n))
	fx.LoadRows(t, "b", "t", uniqueVRows(n, n))
	return fx
}

// TestFederatedOrderByIndexSortFree: ORDER BY + LIMIT pushdown over
// ordered-indexed sites runs sort-free end to end — the sites answer
// from their indexes (no top-K heap, site scans bounded near the
// LIMIT), the bypass's ordered merge consumes index order with zero
// re-sort, and nothing spills at any budget.
func TestFederatedOrderByIndexSortFree(t *testing.T) {
	const n = 50_000
	fx := orderedTwoSite(t, n, true)
	ctx := context.Background()

	beforeA := fx.Site("a").DB.ScannedRows()
	beforeB := fx.Site("b").DB.ScannedRows()
	rs, m, err := fx.Fed.QueryMetered(ctx, `SELECT id, v FROM R ORDER BY v LIMIT 100`, core.StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 100 {
		t.Fatalf("%d rows", len(rs.Rows))
	}
	for i := 1; i < len(rs.Rows); i++ {
		if c := schema.CompareSort(rs.Rows[i-1][1], rs.Rows[i][1]); c > 0 {
			t.Fatalf("row %d out of order", i)
		}
	}
	if m.SpillRuns != 0 {
		t.Fatalf("SpillRuns = %d", m.SpillRuns)
	}
	if !m.ScratchBypassed {
		t.Fatal("ordered merge did not bypass the scratch engine")
	}
	// Each site satisfied ORDER BY v LIMIT 100 from its index: it read
	// about the limit, not the table (batching rounds up to 256).
	scanA := fx.Site("a").DB.ScannedRows() - beforeA
	scanB := fx.Site("b").DB.ScannedRows() - beforeB
	if scanA > 1024 || scanB > 1024 {
		t.Fatalf("site scans a=%d b=%d; the index walk should read ~LIMIT rows", scanA, scanB)
	}
}

// TestFederatedOrderByIndexNoSpillAtTinyBudget: the same federated
// ordered query under a 4KB memory budget still spills nothing —
// there is no sort anywhere to spill — where the unindexed baseline
// federation must top-K/sort at the sites.
func TestFederatedOrderByIndexNoSpillAtTinyBudget(t *testing.T) {
	fx := orderedTwoSite(t, 20_000, true)
	fx.Fed.MemBudget = 4096
	fx.Fed.SpillDir = t.TempDir()
	ctx := context.Background()
	rs, m, err := fx.Fed.QueryMetered(ctx, `SELECT id, v FROM R ORDER BY v LIMIT 50`, core.StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 50 {
		t.Fatalf("%d rows", len(rs.Rows))
	}
	if m.SpillRuns != 0 {
		t.Fatalf("SpillRuns = %d at 4KB budget", m.SpillRuns)
	}
}

// TestFederatedRangeScanScansFraction: a ~1%-selectivity range
// predicate pushed down to ordered-indexed sites reads well under 5%
// of each site's table, ScannedRows-verified through the full
// federated path (plan, wire, fan-in).
func TestFederatedRangeScanScansFraction(t *testing.T) {
	const n = 50_000
	fx := orderedTwoSite(t, n, true)
	ctx := context.Background()

	beforeA := fx.Site("a").DB.ScannedRows()
	beforeB := fx.Site("b").DB.ScannedRows()
	// ids/vs: a holds 0..n-1, b holds n..2n-1. A 500-wide slice of each.
	sql := fmt.Sprintf(`SELECT id, v FROM R WHERE v >= %d AND v < %d`, n-500, n+500)
	rs, _, err := fx.Fed.QueryMetered(ctx, sql, core.StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1000 {
		t.Fatalf("%d rows", len(rs.Rows))
	}
	scanA := fx.Site("a").DB.ScannedRows() - beforeA
	scanB := fx.Site("b").DB.ScannedRows() - beforeB
	if scanA >= n/20 || scanB >= n/20 {
		t.Fatalf("1%% federated range scanned a=%d b=%d of %d rows (>= 5%%)", scanA, scanB, n)
	}
}

// TestOrderedIndexEquivalenceFederated: the equivalence corpus answers
// row-identically with ordered indexes present at the sites vs absent,
// under both strategies and both fan-in policies (order-insensitive
// where the policy legitimately reorders).
func TestOrderedIndexEquivalenceFederated(t *testing.T) {
	plain := equivalenceFixture(t)
	indexed := equivalenceFixtureIndexed(t)
	ctx := context.Background()
	for _, policy := range []core.FanInPolicy{core.FanInAuto, core.FanInInterleave} {
		plain.Fed.FanIn = policy
		indexed.Fed.FanIn = policy
		for _, strategy := range []core.Strategy{core.StrategyCostBased, core.StrategySimple} {
			for _, sql := range equivalenceCorpus {
				name := fmt.Sprintf("%v/%v/%s", policy, strategy, sql)
				t.Run(name, func(t *testing.T) {
					want, _, err := plain.Fed.QueryMetered(ctx, sql, strategy)
					if err != nil {
						t.Fatalf("plain: %v", err)
					}
					got, _, err := indexed.Fed.QueryMetered(ctx, sql, strategy)
					if err != nil {
						t.Fatalf("indexed: %v", err)
					}
					if policy == core.FanInInterleave || !strings.Contains(sql, "ORDER BY") {
						assertSameResultUnordered(t, want, got)
					} else {
						assertSameResult(t, want, got)
					}
				})
			}
		}
	}
	plain.Fed.FanIn = core.FanInAuto
	indexed.Fed.FanIn = core.FanInAuto
}

// TestExplainShowsPerSiteAccessPath: the federation's \explain (over
// the real wire protocol: RemoteConn -> gatewayd OpExplain) renders
// the access path each site's engine chose.
func TestExplainShowsPerSiteAccessPath(t *testing.T) {
	fx := orderedTwoSite(t, 1000, true)
	ctx := context.Background()
	out, err := fx.Fed.Explain(ctx, `SELECT id, v FROM R WHERE v >= 10 AND v < 20`, core.StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"access @a:", "access @b:", "ordered-range"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
	// Without a usable predicate the sites report heap scans.
	out, err = fx.Fed.Explain(ctx, `SELECT id, v FROM R`, core.StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "heap") {
		t.Fatalf("explain missing heap path:\n%s", out)
	}
}

// equivalenceFixtureIndexed is equivalenceFixture with ordered indexes
// on v (and hash indexes stay absent, as there) at both sites.
func equivalenceFixtureIndexed(t testing.TB) *Fixture {
	t.Helper()
	specs := []SiteSpec{
		{Name: "a", Dialect: "oracle", Setup: orderedSiteSetup,
			Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}},
		{Name: "b", Dialect: "postgres", Setup: orderedSiteSetup,
			Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}},
	}
	defR := unionDef(integration.UnionAll, "a", "b")
	defD := unionDef(integration.UnionDistinct, "a", "b")
	defD.Name = "D"
	defM := unionDef(integration.MergeOuter, "a", "b")
	defM.Name = "M"
	defM.Resolvers = map[string]string{"v": "max"}
	fx := New(t, specs, []*catalog.IntegratedDef{defR, defD, defM})
	fx.LoadRows(t, "a", "t", genRows(0, 1000))
	fx.LoadRows(t, "b", "t", append(genRows(0, 300), genRows(1000, 700)...))
	return fx
}

// ---------------------------------------------------------------------
// Benchmarks

// BenchmarkFederatedOrderedMerge: ORDER BY + LIMIT through the
// federated ordered merge with sites answering from ordered indexes
// vs the same query over unindexed sites (per-site top-K over the
// whole table).
func BenchmarkFederatedOrderedMerge(b *testing.B) {
	ctx := context.Background()
	const sql = `SELECT id, v FROM R ORDER BY v LIMIT 100`
	run := func(b *testing.B, fx *Fixture) {
		warm(b, fx)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rs, _, err := fx.Fed.QueryMetered(ctx, sql, core.StrategyCostBased)
			if err != nil {
				b.Fatal(err)
			}
			if len(rs.Rows) != 100 {
				b.Fatalf("%d rows", len(rs.Rows))
			}
		}
	}
	b.Run("indexed-sites", func(b *testing.B) { run(b, orderedTwoSite(b, 50_000, true)) })
	b.Run("unindexed-sites", func(b *testing.B) { run(b, orderedTwoSite(b, 50_000, false)) })
}

// BenchmarkFederatedRangeScan: a 1%-selectivity pushed-down range over
// ordered-indexed sites vs unindexed heap scans.
func BenchmarkFederatedRangeScan(b *testing.B) {
	ctx := context.Background()
	const n = 50_000
	sql := fmt.Sprintf(`SELECT id, v FROM R WHERE v >= %d AND v < %d`, n-500, n+500)
	run := func(b *testing.B, fx *Fixture) {
		warm(b, fx)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rs, _, err := fx.Fed.QueryMetered(ctx, sql, core.StrategyCostBased)
			if err != nil {
				b.Fatal(err)
			}
			if len(rs.Rows) != 1000 {
				b.Fatalf("%d rows", len(rs.Rows))
			}
		}
	}
	b.Run("indexed-sites", func(b *testing.B) { run(b, orderedTwoSite(b, n, true)) })
	b.Run("unindexed-sites", func(b *testing.B) { run(b, orderedTwoSite(b, n, false)) })
}

// compositeTwoSite boots two sites holding the grouped-corpus table g
// (NULL-mixed a, three-value text b, duplicate-heavy v) with a
// composite ordered index on (a, b) when indexed, integrated as
// GR = a.G UNION ALL b.G.
func compositeTwoSite(t testing.TB, n int, indexed bool) *Fixture {
	t.Helper()
	setup := []string{createG}
	if indexed {
		setup = append(setup, `CREATE ORDERED INDEX g_ab ON g (a, b)`)
	}
	specs := []SiteSpec{
		{Name: "a", Setup: setup, Exports: []gateway.Export{{Name: "G", LocalTable: "g"}}},
		{Name: "b", Setup: setup, Exports: []gateway.Export{{Name: "G", LocalTable: "g"}}},
	}
	def := &catalog.IntegratedDef{
		Name: "GR",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "a", Type: schema.TInt},
			{Name: "b", Type: schema.TText},
			{Name: "v", Type: schema.TInt},
		},
		Key:     []string{"id"},
		Combine: integration.UnionAll,
	}
	cmap := map[string]string{"id": "id", "a": "a", "b": "b", "v": "v"}
	for _, s := range []string{"a", "b"} {
		def.Sources = append(def.Sources, catalog.SourceDef{Site: s, Export: "G", ColumnMap: cmap})
	}
	fx := New(t, specs, []*catalog.IntegratedDef{def})
	fx.LoadRows(t, "a", "g", genGRows(0, n))
	fx.LoadRows(t, "b", "g", genGRows(n, n))
	return fx
}

// TestFederatedCompositeIndexEquivalence: a multi-column corpus —
// ORDER BY a, b walks, two-column ranges, multi-column GROUP BY and
// DISTINCT — answers row-identically with composite (a, b) indexes at
// the sites vs without, under both strategies.
func TestFederatedCompositeIndexEquivalence(t *testing.T) {
	plain := compositeTwoSite(t, 2000, false)
	indexed := compositeTwoSite(t, 2000, true)
	ctx := context.Background()
	corpus := []string{
		`SELECT id, a, b, v FROM GR ORDER BY a, b`,
		`SELECT id, a, b FROM GR ORDER BY a, b LIMIT 40`,
		`SELECT id, a, b FROM GR WHERE a = 3 AND b >= 'k1' ORDER BY a, b`,
		`SELECT id, a, b FROM GR WHERE a >= 2 AND a < 4`,
		`SELECT a, b, COUNT(*) AS n, SUM(v) AS s FROM GR GROUP BY a, b ORDER BY a, b`,
		`SELECT a, COUNT(*) AS n FROM GR GROUP BY a ORDER BY a`,
		`SELECT DISTINCT a, b FROM GR ORDER BY a, b`,
	}
	for _, strategy := range []core.Strategy{core.StrategyCostBased, core.StrategySimple} {
		for _, sql := range corpus {
			t.Run(fmt.Sprintf("%v/%s", strategy, sql), func(t *testing.T) {
				want, _, err := plain.Fed.QueryMetered(ctx, sql, strategy)
				if err != nil {
					t.Fatalf("plain: %v", err)
				}
				got, _, err := indexed.Fed.QueryMetered(ctx, sql, strategy)
				if err != nil {
					t.Fatalf("indexed: %v", err)
				}
				// ORDER BY a, b ties (same a, b) may legitimately permute
				// between heap and index-walk plans on the untied columns;
				// compare the multiset to stay plan-independent.
				assertSameResultUnordered(t, want, got)
			})
		}
	}
}

// TestFederatedCompositeExplain: \explain over the wire renders the
// composite walk — both key columns — and the streamed GROUP BY badge
// when grouping on the index prefix.
func TestFederatedCompositeExplain(t *testing.T) {
	fx := compositeTwoSite(t, 1000, true)
	ctx := context.Background()
	out, err := fx.Fed.Explain(ctx, `SELECT a, b, COUNT(*) AS n FROM GR GROUP BY a, b`, core.StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "access @a:") || !strings.Contains(out, "access @b:") {
		t.Fatalf("explain missing per-site access:\n%s", out)
	}
	if !strings.Contains(out, "serves GROUP BY (streamed)") {
		t.Fatalf("pushed-down GROUP BY not streamed over the composite index:\n%s", out)
	}
}
