package testfed

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"myriad/internal/catalog"
	"myriad/internal/core"
	"myriad/internal/executor"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/planner"
	"myriad/internal/schema"
	"myriad/internal/value"
)

const (
	createProbe   = `CREATE TABLE p (id INTEGER PRIMARY KEY, k INTEGER, kt TEXT, pv INTEGER)`
	createDriving = `CREATE TABLE d (id INTEGER PRIMARY KEY, k INTEGER, kt TEXT, tag TEXT)`
)

// genProbeRows builds probe rows keyed by the global row number: k
// cycles 0..39 with periodic NULLs, kt cycles a 9-value text domain.
func genProbeRows(base, n int) []schema.Row {
	rows := make([]schema.Row, n)
	for i := range rows {
		g := base + i
		k := value.NewInt(int64(g % 40))
		if g%17 == 0 {
			k = value.Null()
		}
		rows[i] = schema.Row{
			value.NewInt(int64(g)), k,
			value.NewText(fmt.Sprintf("t%d", g%9)),
			value.NewInt(int64(g % 100)),
		}
	}
	return rows
}

// genDrivingRows builds the small driving side: duplicate keys (eight
// distinct non-NULL k values), periodic NULL keys, a 6-value text key
// domain overlapping the probe's, and a selective tag column.
func genDrivingRows(n int) []schema.Row {
	rows := make([]schema.Row, n)
	for i := range rows {
		k := value.NewInt(int64((i % 8) * 3))
		if i%10 == 9 {
			k = value.Null()
		}
		tag := "std"
		if i%4 == 0 {
			tag = "gold"
		}
		rows[i] = schema.Row{
			value.NewInt(int64(i)), k,
			value.NewText(fmt.Sprintf("t%d", i%6)),
			value.NewText(tag),
		}
	}
	return rows
}

// bindJoinFixture boots the cross-site equi-join fixture the bind-join
// suite runs against: probe relation P = a.p UNION ALL b.p (so a bind
// join ships its key batches to two sites), driving relation DRV = b.d
// alone. Site a optionally routes through a fault proxy.
func bindJoinFixture(t testing.TB, probePerSite, drivingRows int, faultyProbe bool) *Fixture {
	t.Helper()
	specs := []SiteSpec{
		{Name: "a", Dialect: "oracle", Setup: []string{createProbe},
			Exports: []gateway.Export{{Name: "P", LocalTable: "p"}}, Faulty: faultyProbe},
		{Name: "b", Dialect: "postgres", Setup: []string{createProbe, createDriving},
			Exports: []gateway.Export{
				{Name: "P", LocalTable: "p"},
				{Name: "D", LocalTable: "d"},
			}},
	}
	probeMap := map[string]string{"id": "id", "k": "k", "kt": "kt", "pv": "pv"}
	defs := []*catalog.IntegratedDef{
		{
			Name: "P",
			Columns: []schema.Column{
				{Name: "id", Type: schema.TInt}, {Name: "k", Type: schema.TInt},
				{Name: "kt", Type: schema.TText}, {Name: "pv", Type: schema.TInt},
			},
			Key:     []string{"id"},
			Combine: integration.UnionAll,
			Sources: []catalog.SourceDef{
				{Site: "a", Export: "P", ColumnMap: probeMap},
				{Site: "b", Export: "P", ColumnMap: probeMap},
			},
		},
		{
			Name: "DRV",
			Columns: []schema.Column{
				{Name: "id", Type: schema.TInt}, {Name: "k", Type: schema.TInt},
				{Name: "kt", Type: schema.TText}, {Name: "tag", Type: schema.TText},
			},
			Key:     []string{"id"},
			Combine: integration.UnionAll,
			Sources: []catalog.SourceDef{
				{Site: "b", Export: "D", ColumnMap: map[string]string{
					"id": "id", "k": "k", "kt": "kt", "tag": "tag"}},
			},
		},
	}
	fx := New(t, specs, defs)
	fx.LoadRows(t, "a", "p", genProbeRows(0, probePerSite))
	fx.LoadRows(t, "b", "p", genProbeRows(probePerSite, probePerSite))
	fx.LoadRows(t, "b", "d", genDrivingRows(drivingRows))
	return fx
}

// bindJoinCorpus is the cross-site equi-join corpus: duplicate keys,
// NULL keys on both sides, text keys, aggregation above the join, an
// empty driving side, and a cross-class key pair the planner must
// refuse to bind.
var bindJoinCorpus = []string{
	`SELECT d.id, p.id AS pid, p.pv FROM DRV d JOIN P p ON d.k = p.k ORDER BY d.id, pid`,
	`SELECT d.id, p.id AS pid, p.pv FROM DRV d JOIN P p ON d.k = p.k WHERE d.tag = 'gold' ORDER BY d.id, pid`,
	`SELECT d.id, p.id AS pid FROM DRV d JOIN P p ON d.kt = p.kt WHERE d.tag = 'gold' AND p.pv < 10 ORDER BY d.id, pid`,
	`SELECT d.tag, COUNT(*) AS n, SUM(p.pv) AS s FROM DRV d JOIN P p ON d.k = p.k GROUP BY d.tag ORDER BY d.tag`,
	`SELECT d.id, p.id AS pid FROM DRV d JOIN P p ON d.k = p.k WHERE d.tag = 'absent' ORDER BY d.id, pid`,
	// kt (TEXT) against pv (INTEGER): not equi-comparable for key
	// shipping, so the planner must fall back to shipping the probe
	// side whole — and both paths must still agree.
	`SELECT d.id, p.id AS pid FROM DRV d JOIN P p ON d.kt = p.pv ORDER BY d.id, pid`,
}

// TestBindJoinMatchesOracle holds the streaming bind-join path row for
// row to the oracle for every corpus query, under both strategies and
// both fan-in policies.
func TestBindJoinMatchesOracle(t *testing.T) {
	fx := bindJoinFixture(t, 2000, 40, false)
	oracle := fx.Oracle(t)
	ctx := context.Background()
	for _, policy := range []core.FanInPolicy{core.FanInAuto, core.FanInInterleave} {
		fx.Fed.FanIn = policy
		for _, strategy := range []core.Strategy{core.StrategyCostBased, core.StrategySimple} {
			for _, sql := range bindJoinCorpus {
				name := fmt.Sprintf("%v/%v/%s", policy, strategy, sql)
				t.Run(name, func(t *testing.T) {
					got, _, err := fx.Fed.QueryMetered(ctx, sql, strategy)
					if err != nil {
						t.Fatalf("streaming: %v", err)
					}
					if err := oracle.Check(ctx, sql, got); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
	fx.Fed.FanIn = core.FanInAuto
}

// TestBindJoinShipsKeysNotTables: the cost-based plan for a selective
// cross-site join actually engages the bind join and ships far fewer
// probe rows than the probe relation holds.
func TestBindJoinShipsKeysNotTables(t *testing.T) {
	fx := bindJoinFixture(t, 2000, 40, false)
	sql := `SELECT d.id, p.id AS pid, p.pv FROM DRV d JOIN P p ON d.k = p.k WHERE d.tag = 'gold' ORDER BY d.id, pid`
	rs, m, err := fx.Fed.QueryMetered(context.Background(), sql, core.StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Fatal("gold join returned no rows")
	}
	if !m.SemijoinUsed {
		t.Fatal("bind join not used")
	}
	if m.BindJoinBatches < 1 || m.ShippedKeys == 0 {
		t.Fatalf("bind metrics: batches=%d keys=%d", m.BindJoinBatches, m.ShippedKeys)
	}
	// Gold driving rows hold two distinct keys; each matches 100 of the
	// 4000 probe rows. Anything near 4000 means the reduction is off.
	if m.RowsShipped > 1500 {
		t.Fatalf("bind join shipped %d rows", m.RowsShipped)
	}
}

// TestBindJoinEmptyDrivingSideShipsNothing: an equi-join whose driving
// side selects no rows can match nothing, so no probe subquery ships
// at all.
func TestBindJoinEmptyDrivingSideShipsNothing(t *testing.T) {
	fx := bindJoinFixture(t, 2000, 40, false)
	sql := `SELECT d.id, p.id AS pid FROM DRV d JOIN P p ON d.k = p.k WHERE d.tag = 'absent' ORDER BY d.id, pid`
	rs, m, err := fx.Fed.QueryMetered(context.Background(), sql, core.StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Fatalf("absent tag matched %d rows", len(rs.Rows))
	}
	if !m.SemijoinUsed {
		t.Skip("planner chose no bind join; nothing to assert")
	}
	if m.ShippedKeys != 0 || m.BindJoinBatches != 0 {
		t.Fatalf("empty driving side still shipped keys: batches=%d keys=%d", m.BindJoinBatches, m.ShippedKeys)
	}
	if m.RowsShipped != 0 {
		t.Fatalf("empty driving side shipped %d rows", m.RowsShipped)
	}
}

// TestBindJoinMultiBatchMatchesOracle forces a tiny per-batch IN cap
// so the key set ships in several batches, and holds the batched result
// row for row to the oracle.
func TestBindJoinMultiBatchMatchesOracle(t *testing.T) {
	fx := bindJoinFixture(t, 2000, 40, false)
	oracle := fx.Oracle(t)
	ctx := context.Background()
	for _, sql := range []string{
		`SELECT d.id, p.id AS pid, p.pv FROM DRV d JOIN P p ON d.k = p.k ORDER BY d.id, pid`,
		`SELECT d.tag, COUNT(*) AS n, SUM(p.pv) AS s FROM DRV d JOIN P p ON d.k = p.k GROUP BY d.tag ORDER BY d.tag`,
		`SELECT d.id, p.id AS pid FROM DRV d JOIN P p ON d.kt = p.kt WHERE d.tag = 'gold' AND p.pv < 10 ORDER BY d.id, pid`,
	} {
		plan, err := fx.Plan(ctx, sql, core.StrategyCostBased)
		if err != nil {
			t.Fatal(err)
		}
		plan.MaxInList = 2 // every corpus query's driving side holds >2 distinct keys
		got, m, err := execute(ctx, plan, fx.Runner(), executor.Options{})
		if err != nil {
			t.Fatalf("%s: streaming: %v", sql, err)
		}
		if !m.SemijoinUsed || m.BindJoinBatches < 2 {
			t.Fatalf("%s: batching did not engage: used=%v batches=%d", sql, m.SemijoinUsed, m.BindJoinBatches)
		}
		if err := oracle.Check(ctx, sql, got); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
}

// TestBindJoinBuildRowsCrowdingKeys: a build side whose rows fit the
// query budget but leave too little of it for their distinct keys still
// bind-joins — its spool moves to disk, leaving the key pass the whole
// budget — and answers as the oracle does.
func TestBindJoinBuildRowsCrowdingKeys(t *testing.T) {
	const (
		probePerSite = 5000
		driving      = 500
		// Each build row (id, k) takes 120 bytes of the spool's budget
		// and each distinct key about 57: the 500 rows fit in 64 KB, the
		// rows and their keys together do not.
		budget = 64 << 10
	)
	fx := bindJoinFixture(t, 0, 0, false)
	probe := func(base int) []schema.Row {
		rows := make([]schema.Row, probePerSite)
		for i := range rows {
			g := base + i
			rows[i] = schema.Row{value.NewInt(int64(g)), value.NewInt(int64(g)), value.NewText("t0"), value.NewInt(int64(g % 100))}
		}
		return rows
	}
	fx.LoadRows(t, "a", "p", probe(0))
	fx.LoadRows(t, "b", "p", probe(probePerSite))
	rows := make([]schema.Row, driving)
	for i := range rows {
		rows[i] = schema.Row{value.NewInt(int64(i)), value.NewInt(int64(i * 20)), value.NewText("t0"), value.NewText("std")}
	}
	fx.LoadRows(t, "b", "d", rows)
	oracle := fx.Oracle(t)
	ctx := context.Background()
	const sql = `SELECT d.id, p.id AS pid FROM DRV d JOIN P p ON d.k = p.k ORDER BY d.id`
	plan, err := fx.Plan(ctx, sql, core.StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	var build *planner.ScanSet
	for _, ss := range plan.ScanSets {
		for _, b := range plan.ScanSets {
			if ss.SemiFrom != "" && strings.EqualFold(b.Alias, ss.SemiFrom) {
				build = b
			}
		}
	}
	if build == nil {
		t.Fatalf("planner chose no bind join:\n%s", plan.Describe())
	}
	if n := len(build.Schema.Columns); n != 2 {
		t.Fatalf("the build side ships %d columns; the budget assumes (id, k)", n)
	}
	dir := t.TempDir()
	got, m, err := execute(ctx, plan, fx.Runner(), executor.Options{MemBudget: budget, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !m.SemijoinUsed || m.SemijoinSkip {
		t.Fatalf("bind join not used: used=%v skip=%v", m.SemijoinUsed, m.SemijoinSkip)
	}
	if err := oracle.Check(ctx, sql, got); err != nil {
		t.Fatal(err)
	}
	assertNoSpillFiles(t, dir)
}

// TestBindJoinProbeDropSurfacesError wounds the probe site mid-batch:
// the federation must surface an error (no silent partial join), leak
// no site locks, and answer cleanly once the fault is disarmed.
func TestBindJoinProbeDropSurfacesError(t *testing.T) {
	fx := bindJoinFixture(t, 30_000, 40, true)
	ctx := context.Background()
	sql := `SELECT d.id, p.id AS pid, p.pv FROM DRV d JOIN P p ON d.k = p.k WHERE d.tag = 'gold' ORDER BY d.id, pid`

	// Healthy pass: proves the query, and caches export stats so the
	// armed fault hits the probe stream rather than planner metadata.
	res := await(t, runAsync(ctx, fx, sql), 60*time.Second)
	if res.err != nil {
		t.Fatalf("healthy bind join failed: %v", res.err)
	}
	healthyRows := len(res.rs.Rows)
	if healthyRows == 0 {
		t.Fatal("healthy bind join returned no rows")
	}

	fx.Site("a").Proxy.DropAfter(4_000)
	res = await(t, runAsync(ctx, fx, sql), 30*time.Second)
	if res.err == nil {
		t.Fatalf("probe drop mid-batch returned %d rows with no error", len(res.rs.Rows))
	}

	// No leaked locks: writers at both sites proceed promptly. (The
	// probe scan held a table S lock at a; the driving scan one at b.)
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if _, err := fx.Site("a").DB.Exec(wctx, `INSERT INTO p VALUES (9999999, 1, 't1', 1)`); err != nil {
		t.Fatalf("probe site still locked after drop (stream leaked): %v", err)
	}
	if _, err := fx.Site("b").DB.Exec(wctx, `INSERT INTO d VALUES (9999999, 1, 't1', 'std')`); err != nil {
		t.Fatalf("driving site still locked after drop: %v", err)
	}

	// Disarmed, the same query answers as before (the two inserts used
	// values outside the gold join's key range).
	fx.Site("a").Proxy.DropAfter(-1)
	res = await(t, runAsync(ctx, fx, sql), 60*time.Second)
	if res.err != nil {
		t.Fatalf("bind join after disarm failed: %v", res.err)
	}
	if len(res.rs.Rows) != healthyRows {
		t.Fatalf("post-fault rows %d != healthy rows %d", len(res.rs.Rows), healthyRows)
	}
}

// BenchmarkBindJoin is the acceptance benchmark: a two-site join whose
// driving side selects 100 of 100k probe rows, bind join vs forced
// ship-all over the same plan shape. The bind join must ship at least
// 10x fewer rows (asserted, not just reported).
func BenchmarkBindJoin(b *testing.B) {
	specs := []SiteSpec{
		{Name: "big", Setup: []string{createProbe},
			Exports: []gateway.Export{{Name: "P", LocalTable: "p"}}},
		{Name: "small", Setup: []string{createDriving},
			Exports: []gateway.Export{{Name: "D", LocalTable: "d"}}},
	}
	defs := []*catalog.IntegratedDef{
		{
			Name: "P",
			Columns: []schema.Column{
				{Name: "id", Type: schema.TInt}, {Name: "k", Type: schema.TInt},
				{Name: "kt", Type: schema.TText}, {Name: "pv", Type: schema.TInt},
			},
			Key:     []string{"id"},
			Combine: integration.UnionAll,
			Sources: []catalog.SourceDef{{Site: "big", Export: "P", ColumnMap: map[string]string{
				"id": "id", "k": "k", "kt": "kt", "pv": "pv"}}},
		},
		{
			Name: "DRV",
			Columns: []schema.Column{
				{Name: "id", Type: schema.TInt}, {Name: "k", Type: schema.TInt},
				{Name: "kt", Type: schema.TText}, {Name: "tag", Type: schema.TText},
			},
			Key:     []string{"id"},
			Combine: integration.UnionAll,
			Sources: []catalog.SourceDef{{Site: "small", Export: "D", ColumnMap: map[string]string{
				"id": "id", "k": "k", "kt": "kt", "tag": "tag"}}},
		},
	}
	fx := New(b, specs, defs)
	const probeRows = 100_000
	probe := make([]schema.Row, probeRows)
	for i := range probe {
		probe[i] = schema.Row{
			value.NewInt(int64(i)), value.NewInt(int64(i)),
			value.NewText("t"), value.NewInt(int64(i % 100)),
		}
	}
	fx.LoadRows(b, "big", "p", probe)
	driving := make([]schema.Row, 100)
	for i := range driving {
		driving[i] = schema.Row{
			value.NewInt(int64(i)), value.NewInt(int64(i * 1000)),
			value.NewText("t"), value.NewText("std"),
		}
	}
	fx.LoadRows(b, "small", "d", driving)

	ctx := context.Background()
	const sql = `SELECT COUNT(*) AS n FROM DRV d JOIN P p ON d.k = p.k`
	bindPlan, err := fx.Plan(ctx, sql, core.StrategyCostBased)
	if err != nil {
		b.Fatal(err)
	}
	bound := false
	for _, ss := range bindPlan.ScanSets {
		if ss.SemiFrom != "" {
			bound = true
		}
	}
	if !bound {
		b.Fatalf("planner chose no bind join:\n%s", bindPlan.Describe())
	}
	shipAllPlan, err := fx.Plan(ctx, sql, core.StrategyCostBased)
	if err != nil {
		b.Fatal(err)
	}
	for _, ss := range shipAllPlan.ScanSets {
		ss.SemiFrom, ss.BindMaxKeys, ss.EstKeys = "", 0, 0
		for i := range ss.Scans {
			ss.Scans[i].SemiProbe = nil
		}
	}
	runner := fx.Runner()

	var bindShipped, allShipped int
	run := func(b *testing.B, plan *planner.Plan, shipped *int, wantSemi bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, m, err := execute(ctx, plan, runner, executor.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if rs.Rows[0][0].Text() != "100" {
				b.Fatalf("join count = %s", rs.Rows[0][0].Text())
			}
			if m.SemijoinUsed != wantSemi {
				b.Fatalf("SemijoinUsed=%v, want %v", m.SemijoinUsed, wantSemi)
			}
			*shipped = m.RowsShipped
		}
		b.ReportMetric(float64(*shipped), "rows-shipped")
	}
	b.Run("bind", func(b *testing.B) { run(b, bindPlan, &bindShipped, true) })
	b.Run("ship-all", func(b *testing.B) { run(b, shipAllPlan, &allShipped, false) })
	if bindShipped*10 > allShipped {
		b.Fatalf("bind join shipped %d rows vs ship-all %d: under 10x reduction", bindShipped, allShipped)
	}
}

// TestBindJoinKeysAbove2p53: a bind join over INTEGER keys beyond 2^53,
// where neighbouring keys share one float64, matches each key exactly.
// The shipped IN-list holds ten literals, so the probe sites test it
// through their key set, and the coordinator's hash join keys the same
// values. The expected rows are spelled out: the oracle runs the same
// engine, so it would share a key-encoding fault.
func TestBindJoinKeysAbove2p53(t *testing.T) {
	const base = int64(1) << 53
	fx := bindJoinFixture(t, 0, 0, false)
	probe := func(first int) []schema.Row {
		rows := make([]schema.Row, 2000)
		for i := range rows {
			g := first + i
			rows[i] = schema.Row{value.NewInt(int64(g)), value.NewInt(base + int64(g)), value.NewText("t0"), value.NewInt(int64(g % 100))}
		}
		return rows
	}
	fx.LoadRows(t, "a", "p", probe(0))
	fx.LoadRows(t, "b", "p", probe(2000))
	var want []string
	drv := make([]schema.Row, 10)
	for i := range drv {
		drv[i] = schema.Row{value.NewInt(int64(i)), value.NewInt(base + int64(3*i)), value.NewText("t0"), value.NewText("std")}
		want = append(want, fmt.Sprintf("%d,%d", i, 3*i))
	}
	fx.LoadRows(t, "b", "d", drv)
	const sql = `SELECT d.id, p.id AS pid FROM DRV d JOIN P p ON d.k = p.k ORDER BY d.id, pid`
	rs, m, err := fx.Fed.QueryMetered(context.Background(), sql, core.StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	if !m.SemijoinUsed || m.ShippedKeys == 0 {
		t.Fatalf("bind join not used: used=%v keys=%d", m.SemijoinUsed, m.ShippedKeys)
	}
	var got []string
	for _, r := range rs.Rows {
		got = append(got, r[0].Text()+","+r[1].Text())
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("got %v, want %v", got, want)
	}
}
