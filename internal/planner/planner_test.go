package planner

import (
	"context"
	"strings"
	"testing"

	"myriad/internal/catalog"
	"myriad/internal/integration"
	"myriad/internal/schema"
	"myriad/internal/sqlparser"
	"myriad/internal/storage"
	"myriad/internal/value"
)

// fixedStats serves canned statistics.
type fixedStats map[string]*storage.TableStats

func (f fixedStats) Stats(_ context.Context, site, export string) (*storage.TableStats, bool) {
	ts, ok := f[strings.ToLower(site+"/"+export)]
	return ts, ok
}

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New("test")
	studentExport := &schema.Schema{
		Table: "STUDENT",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "name", Type: schema.TText},
			{Name: "gpa", Type: schema.TFloat},
		},
		Key: []string{"id"},
	}
	enrollExport := &schema.Schema{
		Table: "ENROLL",
		Columns: []schema.Column{
			{Name: "sid", Type: schema.TInt},
			{Name: "course", Type: schema.TText},
		},
	}
	cat.SetSiteExports("east", []*schema.Schema{studentExport, enrollExport})
	cat.SetSiteExports("west", []*schema.Schema{studentExport})

	defs := []*catalog.IntegratedDef{
		{
			Name: "S",
			Columns: []schema.Column{
				{Name: "id", Type: schema.TInt},
				{Name: "name", Type: schema.TText},
				{Name: "gpa", Type: schema.TFloat},
				{Name: "campus", Type: schema.TText},
			},
			Key:     []string{"id"},
			Combine: integration.UnionAll,
			Sources: []catalog.SourceDef{
				{Site: "east", Export: "STUDENT", ColumnMap: map[string]string{
					"id": "id", "name": "name", "gpa": "gpa", "campus": "'east'"}},
				{Site: "west", Export: "STUDENT", ColumnMap: map[string]string{
					"id": "id", "name": "name", "gpa": "gpa", "campus": "'west'"}},
			},
		},
		{
			Name: "E",
			Columns: []schema.Column{
				{Name: "sid", Type: schema.TInt},
				{Name: "course", Type: schema.TText},
			},
			Combine: integration.UnionAll,
			Sources: []catalog.SourceDef{
				{Site: "east", Export: "ENROLL", ColumnMap: map[string]string{"sid": "sid", "course": "course"}},
			},
		},
		{
			Name: "M",
			Columns: []schema.Column{
				{Name: "id", Type: schema.TInt},
				{Name: "email", Type: schema.TText},
			},
			Key:     []string{"id"},
			Combine: integration.MergeOuter,
			Sources: []catalog.SourceDef{
				{Site: "east", Export: "STUDENT", ColumnMap: map[string]string{"id": "id", "email": "name"}},
				{Site: "west", Export: "STUDENT", ColumnMap: map[string]string{"id": "id", "email": "name"}},
			},
			Resolvers: map[string]string{"email": "first"},
		},
	}
	for _, d := range defs {
		if err := cat.Define(d); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func mustPlan(t *testing.T, p *Planner, sql string, strat Strategy) *Plan {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan(context.Background(), stmt.(*sqlparser.Select), strat)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return plan
}

func scanSQL(plan *Plan) string {
	var parts []string
	for _, ss := range plan.ScanSets {
		for _, sc := range ss.Scans {
			parts = append(parts, sc.Site+": "+sc.SQL())
		}
	}
	return strings.Join(parts, "\n")
}

func TestSimpleStrategyNoPushdown(t *testing.T) {
	p := New(testCatalog(t), nil)
	plan := mustPlan(t, p, `SELECT name FROM S WHERE gpa > 3.5`, Simple)
	sql := scanSQL(plan)
	if strings.Contains(sql, "WHERE") {
		t.Errorf("simple strategy pushed a predicate:\n%s", sql)
	}
	// Residual keeps the filter.
	if !strings.Contains(sqlparser.FormatStatement(plan.Residual, nil), "gpa > 3.5") {
		t.Error("residual lost the predicate")
	}
}

func TestCostBasedPushdown(t *testing.T) {
	p := New(testCatalog(t), nil)
	plan := mustPlan(t, p, `SELECT name FROM S WHERE gpa > 3.5`, CostBased)
	sql := scanSQL(plan)
	if !strings.Contains(sql, "gpa > 3.5") {
		t.Errorf("predicate not pushed:\n%s", sql)
	}
	// Both sources got it (union-all combine).
	if strings.Count(sql, "gpa > 3.5") != 2 {
		t.Errorf("predicate should reach both sources:\n%s", sql)
	}
}

func TestProjectionPruning(t *testing.T) {
	p := New(testCatalog(t), nil)
	plan := mustPlan(t, p, `SELECT name FROM S`, CostBased)
	ss := plan.ScanSets[0]
	// Needed columns: name + key (id).
	if len(ss.Schema.Columns) != 2 {
		t.Errorf("temp schema columns: %v", ss.Schema.Columns)
	}
	if strings.Contains(scanSQL(plan), "gpa") {
		t.Errorf("pruned column still scanned:\n%s", scanSQL(plan))
	}

	// Star keeps everything.
	plan = mustPlan(t, p, `SELECT * FROM S`, CostBased)
	if got := len(plan.ScanSets[0].Schema.Columns); got != 4 {
		t.Errorf("star kept %d columns", got)
	}
}

func TestMergeOuterPushdownOnlyKeys(t *testing.T) {
	p := New(testCatalog(t), nil)
	// Key predicate pushes.
	plan := mustPlan(t, p, `SELECT email FROM M WHERE id = 7`, CostBased)
	if strings.Count(scanSQL(plan), "id = 7") != 2 {
		t.Errorf("key predicate should push to both merge sources:\n%s", scanSQL(plan))
	}
	// Non-key predicate must NOT push (value resolved post-merge).
	plan = mustPlan(t, p, `SELECT id FROM M WHERE email = 'x'`, CostBased)
	if strings.Contains(scanSQL(plan), "WHERE") {
		t.Errorf("non-key predicate pushed through merge:\n%s", scanSQL(plan))
	}
}

func TestDerivedColumnPredicateTranslation(t *testing.T) {
	p := New(testCatalog(t), nil)
	// campus maps to a literal per source: pushing campus = 'east'
	// yields 'east' = 'east' at east and 'west' = 'east' at west.
	plan := mustPlan(t, p, `SELECT name FROM S WHERE campus = 'east'`, CostBased)
	sql := scanSQL(plan)
	if !strings.Contains(sql, "'east' = 'east'") || !strings.Contains(sql, "'west' = 'east'") {
		t.Errorf("derived-column predicate translation:\n%s", sql)
	}
}

func TestLimitPushdown(t *testing.T) {
	p := New(testCatalog(t), nil)
	plan := mustPlan(t, p, `SELECT name FROM S LIMIT 5`, CostBased)
	if !strings.Contains(scanSQL(plan), "LIMIT 5") {
		t.Errorf("limit not pushed:\n%s", scanSQL(plan))
	}
	// With ORDER BY the pushdown becomes top-K: each source sorts and
	// limits, and the residual re-sorts the merged candidates.
	plan = mustPlan(t, p, `SELECT name FROM S ORDER BY name LIMIT 5`, CostBased)
	sql := scanSQL(plan)
	if !strings.Contains(sql, "ORDER BY name LIMIT 5") {
		t.Errorf("top-K not pushed:\n%s", sql)
	}
	res := sqlparser.FormatStatement(plan.Residual, nil)
	if !strings.Contains(res, "ORDER BY") || !strings.Contains(res, "LIMIT 5") {
		t.Errorf("residual lost the global sort/limit: %s", res)
	}
	// OFFSET widens the per-source fetch but stays in the residual.
	plan = mustPlan(t, p, `SELECT name FROM S ORDER BY name LIMIT 5 OFFSET 3`, CostBased)
	if !strings.Contains(scanSQL(plan), "LIMIT 8") {
		t.Errorf("offset not added to per-source K:\n%s", scanSQL(plan))
	}
	// Untranslatable order keys (unmapped at a source) disable it.
	plan = mustPlan(t, p, `SELECT sid FROM E ORDER BY course LIMIT 2`, CostBased)
	if !strings.Contains(scanSQL(plan), "LIMIT 2") {
		// E has a single source mapping both columns, so it pushes;
		// use M (merge) for the negative case below.
		t.Errorf("single-source top-K should push:\n%s", scanSQL(plan))
	}
	plan = mustPlan(t, p, `SELECT id FROM M ORDER BY id LIMIT 2`, CostBased)
	if strings.Contains(scanSQL(plan), "LIMIT") {
		t.Errorf("top-K pushed through merge combine:\n%s", scanSQL(plan))
	}
	// Not pushed when the filter could not be fully pushed.
	plan = mustPlan(t, p, `SELECT id FROM M WHERE email = 'x' LIMIT 5`, CostBased)
	if strings.Contains(scanSQL(plan), "LIMIT") {
		t.Errorf("limit pushed without full filter pushdown:\n%s", scanSQL(plan))
	}
}

func TestLimitNotPushedWhenPredicateUnpushable(t *testing.T) {
	// Regression: a relation whose source maps only some columns. A
	// WHERE on an unmapped column cannot push, so neither may LIMIT
	// (the per-source cut would run before the residual filter).
	cat := testCatalog(t)
	if err := cat.Define(&catalog.IntegratedDef{
		Name: "P",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "name", Type: schema.TText},
			{Name: "gpa", Type: schema.TFloat},
		},
		Combine: integration.UnionAll,
		Sources: []catalog.SourceDef{
			{Site: "east", Export: "STUDENT", ColumnMap: map[string]string{
				"id": "id", "name": "name", "gpa": "gpa"}},
			// west maps no gpa: predicates on gpa cannot push there.
			{Site: "west", Export: "STUDENT", ColumnMap: map[string]string{
				"id": "id", "name": "name"}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	p := New(cat, nil)
	plan := mustPlan(t, p, `SELECT name FROM P WHERE gpa > 3 LIMIT 2`, CostBased)
	if strings.Contains(scanSQL(plan), "LIMIT") {
		t.Errorf("limit pushed below an unpushable predicate:\n%s", scanSQL(plan))
	}
	// And the residual still filters.
	if !strings.Contains(sqlparser.FormatStatement(plan.Residual, nil), "gpa > 3") {
		t.Error("residual lost the filter")
	}
}

func TestSingleSiteLimitOffsetPushdown(t *testing.T) {
	// E has one source, so the site applies the full LIMIT/OFFSET and
	// ships only Count rows; the residual keeps the count but must not
	// re-apply the consumed offset.
	p := New(testCatalog(t), nil)
	plan := mustPlan(t, p, `SELECT sid FROM E ORDER BY sid LIMIT 5 OFFSET 20`, CostBased)
	sql := scanSQL(plan)
	if !strings.Contains(sql, "ORDER BY sid LIMIT 5 OFFSET 20") {
		t.Errorf("single-site scan missing full limit/offset:\n%s", sql)
	}
	res := sqlparser.FormatStatement(plan.Residual, nil)
	if !strings.Contains(res, "LIMIT 5") || strings.Contains(res, "OFFSET") {
		t.Errorf("residual should keep LIMIT 5 without OFFSET: %s", res)
	}
	if plan.ScanSets[0].Scans[0].EstRows > 5 {
		t.Errorf("scan estimate not clamped to count: %v", plan.ScanSets[0].Scans[0].EstRows)
	}

	// Multi-source sets keep the widened per-source fetch and the full
	// residual limit (offset applies only after the global merge).
	plan = mustPlan(t, p, `SELECT name FROM S ORDER BY name LIMIT 5 OFFSET 3`, CostBased)
	if !strings.Contains(scanSQL(plan), "LIMIT 8") {
		t.Errorf("multi-source K should stay count+offset:\n%s", scanSQL(plan))
	}
	res = sqlparser.FormatStatement(plan.Residual, nil)
	if !strings.Contains(res, "LIMIT 5 OFFSET 3") {
		t.Errorf("multi-source residual lost the full limit: %s", res)
	}

	// The final branch of a UNION carries the union-wide LIMIT/OFFSET:
	// the exact pushdown must not consume the offset against that one
	// fragment. The widened over-fetch (count+offset) is still fine.
	plan = mustPlan(t, p, `SELECT sid FROM E UNION ALL SELECT sid FROM E ORDER BY sid LIMIT 5 OFFSET 20`, CostBased)
	sql = scanSQL(plan)
	if strings.Contains(sql, "OFFSET") {
		t.Errorf("union branch consumed the combined offset at a site:\n%s", sql)
	}
	if !strings.Contains(sql, "LIMIT 25") {
		t.Errorf("union-all branch lost the safe over-fetch:\n%s", sql)
	}
	res = sqlparser.FormatStatement(plan.Residual, nil)
	if !strings.Contains(res, "LIMIT 5 OFFSET 20") {
		t.Errorf("union residual lost the combined limit/offset: %s", res)
	}

	// A deduplicating UNION anywhere in the chain disables pushdown on
	// its branches entirely: the residual dedupes the merged rows
	// before the union-wide LIMIT, so rows cut by a per-source
	// over-fetch could have survived dedup.
	plan = mustPlan(t, p, `SELECT sid FROM E UNION SELECT sid FROM E ORDER BY sid LIMIT 5`, CostBased)
	if strings.Contains(scanSQL(plan), "LIMIT") {
		t.Errorf("limit pushed into a branch of UNION DISTINCT:\n%s", scanSQL(plan))
	}
	plan = mustPlan(t, p, `SELECT sid FROM E UNION SELECT sid FROM E UNION ALL SELECT sid FROM E ORDER BY sid LIMIT 5`, CostBased)
	if strings.Contains(scanSQL(plan), "LIMIT") {
		t.Errorf("limit pushed below a mixed-distinct union chain:\n%s", scanSQL(plan))
	}

	// count+offset overflowing must not wrap the over-fetch arithmetic
	// (a negative Count renders as no LIMIT and corrupts EstRows); the
	// pushdown just stays home.
	plan = mustPlan(t, p, `SELECT name FROM S ORDER BY name LIMIT 9223372036854775807 OFFSET 1`, CostBased)
	if strings.Contains(scanSQL(plan), "LIMIT") {
		t.Errorf("overflowing limit pushed to sites:\n%s", scanSQL(plan))
	}
	for _, ss := range plan.ScanSets {
		for _, sc := range ss.Scans {
			if sc.EstRows < 0 {
				t.Errorf("EstRows corrupted by overflow: %v", sc.EstRows)
			}
		}
	}
}

func statsFor() fixedStats {
	mk := func(rows int64, distinct int64) *storage.TableStats {
		return &storage.TableStats{
			Rows: rows,
			Columns: []storage.ColumnStats{
				{Name: "id", Distinct: distinct, Min: value.NewInt(0), Max: value.NewInt(rows)},
				{Name: "sid", Distinct: distinct, Min: value.NewInt(0), Max: value.NewInt(rows)},
				{Name: "gpa", Distinct: 40, Min: value.NewFloat(0), Max: value.NewFloat(4)},
				{Name: "name", Distinct: distinct},
				{Name: "course", Distinct: 10},
			},
		}
	}
	return fixedStats{
		"east/student": mk(50, 50),
		"west/student": mk(60, 60),
		"east/enroll":  mk(100000, 5000),
	}
}

func TestSemijoinChosenWhenProfitable(t *testing.T) {
	p := New(testCatalog(t), statsFor())
	plan := mustPlan(t, p,
		`SELECT s.name, e.course FROM S s JOIN E e ON s.id = e.sid WHERE s.gpa > 3.9`, CostBased)

	var probe *ScanSet
	for _, ss := range plan.ScanSets {
		if ss.SemiFrom != "" {
			probe = ss
		}
	}
	if probe == nil {
		t.Fatalf("no semijoin chosen:\n%s", plan.Describe())
	}
	if !strings.EqualFold(probe.Alias, "e") || !strings.EqualFold(probe.SemiFrom, "s") {
		t.Errorf("semijoin direction: probe=%s build=%s", probe.Alias, probe.SemiFrom)
	}
	for _, sc := range probe.Scans {
		if sc.SemiProbe == nil {
			t.Error("probe scan missing SemiProbe expression")
		}
	}
	if out := plan.Describe(); !strings.Contains(out, "bind-join probe") {
		t.Errorf("Describe missing bind-join marker:\n%s", out)
	}
}

func TestSourceSelectionPrunesDisjointFragment(t *testing.T) {
	cat := testCatalog(t)
	// west's STUDENT fragment holds only ids 1000-1999: a conjunct
	// id < 100 can never match there.
	cat.SetFragmentStats("west", "STUDENT", &storage.TableStats{
		Rows: 1000,
		Columns: []storage.ColumnStats{
			{Name: "id", Distinct: 1000, Min: value.NewInt(1000), Max: value.NewInt(1999)},
		},
	})
	p := New(cat, statsFor())
	plan := mustPlan(t, p, `SELECT name FROM S WHERE id < 100`, CostBased)
	var pruned, live int
	for _, sc := range plan.ScanSets[0].Scans {
		if sc.Pruned != "" {
			pruned++
			if sc.Site != "west" {
				t.Errorf("pruned wrong site %s (%s)", sc.Site, sc.Pruned)
			}
		} else {
			live++
		}
	}
	if pruned != 1 || live != 1 {
		t.Fatalf("pruned=%d live=%d:\n%s", pruned, live, plan.Describe())
	}
	if out := plan.Describe(); !strings.Contains(out, "pruned") {
		t.Errorf("Describe missing pruned marker:\n%s", out)
	}
}

func TestSourceSelectionPrunesEmptyFragment(t *testing.T) {
	cat := testCatalog(t)
	cat.SetFragmentStats("west", "STUDENT", &storage.TableStats{Rows: 0})
	p := New(cat, statsFor())
	plan := mustPlan(t, p, `SELECT name FROM S WHERE gpa > 3`, CostBased)
	found := false
	for _, sc := range plan.ScanSets[0].Scans {
		if sc.Site == "west" {
			found = true
			if sc.Pruned == "" {
				t.Errorf("empty fragment not pruned:\n%s", plan.Describe())
			}
		} else if sc.Pruned != "" {
			t.Errorf("non-empty fragment pruned: %s (%s)", sc.Site, sc.Pruned)
		}
	}
	if !found {
		t.Fatal("west scan missing from plan")
	}
}

func TestSourceSelectionKeepsAggregatePushdownSound(t *testing.T) {
	// A pruned source under partial aggregation would drop its
	// zero-count partial row; pruning must stand down when aggregates
	// were pushed.
	cat := testCatalog(t)
	cat.SetFragmentStats("west", "STUDENT", &storage.TableStats{Rows: 0})
	p := New(cat, statsFor())
	plan := mustPlan(t, p, `SELECT COUNT(*) FROM S`, CostBased)
	for _, ss := range plan.ScanSets {
		for _, sc := range ss.Scans {
			if sc.Pruned != "" {
				t.Errorf("pruned a source under aggregate pushdown: %s (%s)", sc.Site, sc.Pruned)
			}
		}
	}
}

func TestSemijoinNotChosenWhenBuildTooBig(t *testing.T) {
	stats := statsFor()
	// Scale the key column's distinct count with the row count: the
	// cost model prices the shipped key set, and a huge build with 50
	// distinct keys would (correctly) still bind-join.
	stats["east/student"].Rows = 50000
	stats["east/student"].Columns[0].Distinct = 50000
	stats["west/student"].Rows = 50000
	stats["west/student"].Columns[0].Distinct = 50000
	p := New(testCatalog(t), stats)
	plan := mustPlan(t, p, `SELECT s.name, e.course FROM S s JOIN E e ON s.id = e.sid`, CostBased)
	for _, ss := range plan.ScanSets {
		if ss.SemiFrom != "" {
			t.Fatalf("semijoin chosen with huge build side:\n%s", plan.Describe())
		}
	}
}

func TestJoinReorderBySize(t *testing.T) {
	p := New(testCatalog(t), statsFor())
	plan := mustPlan(t, p, `SELECT s.name FROM E e JOIN S s ON e.sid = s.id`, CostBased)
	res := plan.Residual
	if len(res.From) != 2 || len(res.Joins) != 0 {
		t.Fatalf("reorder should flatten joins: %s", sqlparser.FormatStatement(res, nil))
	}
	// S (small) must come before E (large).
	if !strings.EqualFold(res.From[0].Alias, "s") {
		t.Errorf("small relation not first: %s", sqlparser.FormatStatement(res, nil))
	}
}

func TestLeftJoinNotReordered(t *testing.T) {
	p := New(testCatalog(t), statsFor())
	plan := mustPlan(t, p, `SELECT s.name FROM E e LEFT JOIN S s ON e.sid = s.id`, CostBased)
	res := plan.Residual
	if len(res.Joins) != 1 || res.Joins[0].Kind != sqlparser.JoinLeft {
		t.Errorf("left join mangled: %s", sqlparser.FormatStatement(res, nil))
	}
}

func TestPlanErrors(t *testing.T) {
	p := New(testCatalog(t), nil)
	for _, sql := range []string{
		`SELECT x FROM GHOST`,
		`SELECT ghost FROM S`,
		`SELECT S.ghost FROM S`,
		`SELECT id FROM S a, S a`, // duplicate alias
		`SELECT id FROM S, M`,     // ambiguous id
	} {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Plan(context.Background(), stmt.(*sqlparser.Select), CostBased); err == nil {
			t.Errorf("plan %q accepted", sql)
		}
	}
}

func TestCountStarUsesMinimalColumns(t *testing.T) {
	p := New(testCatalog(t), nil)
	plan := mustPlan(t, p, `SELECT COUNT(*) FROM S`, CostBased)
	// Only the key column needs to travel.
	if got := len(plan.ScanSets[0].Schema.Columns); got != 1 {
		t.Errorf("COUNT(*) ships %d columns", got)
	}
}

func TestSelectivityEstimates(t *testing.T) {
	ts := &storage.TableStats{
		Rows: 1000,
		Columns: []storage.ColumnStats{
			{Name: "a", Distinct: 100, Nulls: 100, Min: value.NewInt(0), Max: value.NewInt(1000)},
		},
	}
	cases := []struct {
		expr string
		lo   float64
		hi   float64
	}{
		{"a = 5", 0.009, 0.011},
		{"a < 250", 0.24, 0.26},
		{"a >= 750", 0.24, 0.26},
		{"a = 5 AND a < 250", 0.001, 0.004},
		{"a = 5 OR a = 6", 0.015, 0.025},
		{"a IS NULL", 0.09, 0.11},
		{"a IS NOT NULL", 0.89, 0.91},
		{"a IN (1, 2, 3)", 0.025, 0.035},
		{"NOT a = 5", 0.98, 1.0},
		{"a <> 5", 0.85, 0.95},
	}
	for _, c := range cases {
		e, err := sqlparser.ParseExpr(c.expr)
		if err != nil {
			t.Fatal(err)
		}
		got := estimateSelectivity(e, ts)
		if got < c.lo || got > c.hi {
			t.Errorf("selectivity(%q) = %g, want [%g, %g]", c.expr, got, c.lo, c.hi)
		}
	}
}

func TestPlanDescribe(t *testing.T) {
	p := New(testCatalog(t), statsFor())
	plan := mustPlan(t, p, `SELECT name FROM S WHERE gpa > 3`, CostBased)
	out := plan.Describe()
	for _, want := range []string{"strategy: cost-based", "@east", "@west", "residual:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q:\n%s", want, out)
		}
	}
}

func TestUnionPlan(t *testing.T) {
	p := New(testCatalog(t), nil)
	plan := mustPlan(t, p, `SELECT name FROM S WHERE gpa > 3 UNION SELECT course FROM E`, CostBased)
	if len(plan.ScanSets) != 2 {
		t.Fatalf("union scan sets: %d", len(plan.ScanSets))
	}
	res := sqlparser.FormatStatement(plan.Residual, nil)
	if !strings.Contains(res, "UNION") {
		t.Errorf("residual lost the union: %s", res)
	}
	// Temp tables of different branches must not collide.
	if plan.ScanSets[0].TempTable == plan.ScanSets[1].TempTable {
		t.Error("temp table name collision across branches")
	}
}

func contextBG() context.Context { return context.Background() }
