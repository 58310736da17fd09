package executor_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"myriad/internal/catalog"
	"myriad/internal/core"
	"myriad/internal/executor"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/localdb"
	"myriad/internal/planner"
	"myriad/internal/schema"
	"myriad/internal/sqlparser"
)

// buildJoinFederation creates crm (small CUSTOMERS) + oltp (large
// ORDERS) for semijoin execution tests.
func buildJoinFederation(t *testing.T, customers, orders int) (*core.Federation, *planner.Planner) {
	t.Helper()
	ctx := context.Background()
	fed := core.New("exec-test")

	crm := localdb.New("crm")
	crm.MustExec(`CREATE TABLE c (cid INTEGER PRIMARY KEY, tier TEXT)`)
	for i := 0; i < customers; i++ {
		tier := "std"
		if i%10 == 0 {
			tier = "gold"
		}
		crm.MustExec(fmt.Sprintf(`INSERT INTO c VALUES (%d, '%s')`, i, tier))
	}
	gw1 := gateway.New("crm", crm, nil)
	if err := gw1.DefineExport(gateway.Export{Name: "C", LocalTable: "c"}); err != nil {
		t.Fatal(err)
	}

	oltp := localdb.New("oltp")
	oltp.MustExec(`CREATE TABLE o (oid INTEGER PRIMARY KEY, cust INTEGER, amt FLOAT)`)
	stmt := ""
	for i := 0; i < orders; i++ {
		if stmt != "" {
			stmt += ", "
		}
		stmt += fmt.Sprintf("(%d, %d, %d.5)", i, i%customers, i%100)
		if (i+1)%400 == 0 || i == orders-1 {
			oltp.MustExec("INSERT INTO o VALUES " + stmt)
			stmt = ""
		}
	}
	gw2 := gateway.New("oltp", oltp, nil)
	if err := gw2.DefineExport(gateway.Export{Name: "O", LocalTable: "o"}); err != nil {
		t.Fatal(err)
	}

	if err := fed.AttachSite(ctx, &gateway.LocalConn{G: gw1}); err != nil {
		t.Fatal(err)
	}
	if err := fed.AttachSite(ctx, &gateway.LocalConn{G: gw2}); err != nil {
		t.Fatal(err)
	}
	for _, def := range []*catalog.IntegratedDef{
		{
			Name: "CUSTOMERS",
			Columns: []schema.Column{
				{Name: "cid", Type: schema.TInt}, {Name: "tier", Type: schema.TText}},
			Key:     []string{"cid"},
			Combine: integration.UnionAll,
			Sources: []catalog.SourceDef{{Site: "crm", Export: "C",
				ColumnMap: map[string]string{"cid": "cid", "tier": "tier"}}},
		},
		{
			Name: "ORDERS",
			Columns: []schema.Column{
				{Name: "oid", Type: schema.TInt}, {Name: "cust", Type: schema.TInt},
				{Name: "amt", Type: schema.TFloat}},
			Key:     []string{"oid"},
			Combine: integration.UnionAll,
			Sources: []catalog.SourceDef{{Site: "oltp", Export: "O",
				ColumnMap: map[string]string{"oid": "oid", "cust": "cust", "amt": "amt"}}},
		},
	} {
		if err := fed.DefineIntegrated(def); err != nil {
			t.Fatal(err)
		}
	}
	return fed, planner.New(fed.Catalog(), fed)
}

type fedRunner struct{ fed *core.Federation }

func (r fedRunner) QuerySite(ctx context.Context, site, sql string) (schema.RowStream, error) {
	conn, ok := r.fed.Conn(site)
	if !ok {
		return nil, fmt.Errorf("no site %q", site)
	}
	return conn.QueryStream(ctx, 0, sql)
}

// execute runs plan through executor.Execute and materializes the
// result; the stream is closed before the metrics are returned.
func execute(ctx context.Context, plan *planner.Plan, runner executor.SiteRunner, opts executor.Options) (*schema.ResultSet, *executor.Metrics, error) {
	rows, m, err := executor.Execute(ctx, plan, runner, opts)
	if err != nil {
		return nil, m, err
	}
	defer rows.Close()
	rs, err := schema.DrainStream(ctx, rows)
	return rs, m, err
}

func planFor(t *testing.T, p *planner.Planner, sql string) *planner.Plan {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan(context.Background(), stmt.(*sqlparser.Select), planner.CostBased)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestSemijoinExecution(t *testing.T) {
	fed, p := buildJoinFederation(t, 100, 2000)
	sql := `SELECT c.cid, SUM(o.amt) AS total FROM CUSTOMERS c JOIN ORDERS o ON c.cid = o.cust
	        WHERE c.tier = 'gold' GROUP BY c.cid ORDER BY c.cid`
	plan := planFor(t, p, sql)

	rs, m, err := execute(context.Background(), plan, fedRunner{fed}, executor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.SemijoinUsed {
		t.Fatalf("semijoin not used:\n%s", plan.Describe())
	}
	if len(rs.Rows) != 10 {
		t.Errorf("gold customers = %d, want 10", len(rs.Rows))
	}
	// The probe side shipped only gold customers' orders: 10 of 100
	// customers => ~200 of 2000 orders (+10 build rows).
	if m.RowsShipped > 400 {
		t.Errorf("semijoin shipped %d rows", m.RowsShipped)
	}

	// The reduced result must equal the unreduced one.
	simple, _, err := fed.QueryMetered(context.Background(), sql, core.StrategySimple)
	if err != nil {
		t.Fatal(err)
	}
	if len(simple.Rows) != len(rs.Rows) {
		t.Fatalf("semijoin changed the answer: %d vs %d rows", len(rs.Rows), len(simple.Rows))
	}
	for i := range rs.Rows {
		for j := range rs.Rows[i] {
			if rs.Rows[i][j].Text() != simple.Rows[i][j].Text() {
				t.Fatalf("row %d differs: %v vs %v", i, rs.Rows[i], simple.Rows[i])
			}
		}
	}
}

func TestSemijoinFallbackWhenListTooLarge(t *testing.T) {
	fed, p := buildJoinFederation(t, 100, 500)
	// 90 distinct std customer ids: selective enough on paper for the
	// planner to bind-join, but over the forced key cap below.
	plan := planFor(t, p, `SELECT COUNT(*) FROM CUSTOMERS c JOIN ORDERS o ON c.cid = o.cust
	                       WHERE c.tier = 'std'`)
	// Force the distinct-key cap below the actual build size: batching
	// would happily ship 90 keys as many IN lists, so cap the keys
	// themselves.
	plan.BindMaxKeys = 50

	rs, m, err := execute(context.Background(), plan, fedRunner{fed}, executor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Text() != "450" {
		t.Errorf("fallback answer: %s", rs.Rows[0][0].Text())
	}
	if m.SemijoinUsed {
		t.Error("semijoin reported used despite fallback")
	}
	if plan.ScanSets[0].SemiFrom == "" && plan.ScanSets[1].SemiFrom == "" {
		t.Skip("planner chose no semijoin; fallback untestable")
	}
	if !m.SemijoinSkip {
		t.Error("fallback not recorded")
	}
}

func TestExecutorSiteError(t *testing.T) {
	fed, p := buildJoinFederation(t, 10, 10)
	plan := planFor(t, p, `SELECT COUNT(*) FROM CUSTOMERS`)
	// Detach the site so the scan fails.
	fed.DetachSite("crm")
	_, _, err := execute(context.Background(), plan, fedRunner{fed}, executor.Options{})
	if err == nil || !strings.Contains(err.Error(), "crm") {
		t.Fatalf("site failure not surfaced: %v", err)
	}
}

func TestExecutorContextCancellation(t *testing.T) {
	fed, p := buildJoinFederation(t, 10, 10)
	plan := planFor(t, p, `SELECT COUNT(*) FROM ORDERS`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := execute(ctx, plan, fedRunner{fed}, executor.Options{}); err == nil {
		if !errors.Is(ctx.Err(), context.Canceled) {
			t.Error("cancelled context not honored")
		}
		// Cancellation may race with fast completion; either is fine,
		// but the engine must not hang or panic.
	}
}

// ---------------------------------------------------------------------
// Scratch-bypass and per-source metrics

// TestScratchBypassEquivalence: a bare projection over a single scan
// set streams straight off the fan-in; the result must match the
// scratch-engine path exactly, with the bypass recorded in metrics.
func TestScratchBypassEquivalence(t *testing.T) {
	fed, p := buildJoinFederation(t, 50, 200)
	ctx := context.Background()
	for _, sql := range []string{
		`SELECT cid, tier FROM CUSTOMERS LIMIT 7`,
		`SELECT tier AS t, cid FROM CUSTOMERS`,
		`SELECT cid FROM CUSTOMERS ORDER BY cid LIMIT 5`,
		`SELECT cid, tier FROM CUSTOMERS ORDER BY tier DESC, cid LIMIT 9 OFFSET 3`,
		`SELECT oid, amt FROM ORDERS LIMIT 12 OFFSET 30`,
		// Residual WHERE clauses filter inline on the fan-in;
		// OFFSET/LIMIT count the survivors, as in the residual.
		`SELECT cid FROM CUSTOMERS WHERE tier = 'gold'`,
		`SELECT cid, tier FROM CUSTOMERS WHERE tier = 'gold' LIMIT 4 OFFSET 2`,
		`SELECT oid FROM ORDERS WHERE amt > 50 AND amt < 900 LIMIT 20`,
	} {
		plan := planFor(t, p, sql)
		want, _, err := executor.ExecuteMaterialized(ctx, plan, fedRunner{fed})
		if err != nil {
			t.Fatalf("%s: materialized: %v", sql, err)
		}
		got, m, err := execute(ctx, plan, fedRunner{fed}, executor.Options{})
		if err != nil {
			t.Fatalf("%s: streaming: %v", sql, err)
		}
		if !m.ScratchBypassed {
			t.Errorf("%s: scratch engine not bypassed", sql)
		}
		assertResultsEqual(t, sql, want, got)

		// Forcing the scratch path must agree too.
		ref, m2, err := execute(ctx, plan, fedRunner{fed}, executor.Options{NoBypass: true})
		if err != nil {
			t.Fatalf("%s: NoBypass: %v", sql, err)
		}
		if m2.ScratchBypassed {
			t.Errorf("%s: NoBypass still bypassed", sql)
		}
		assertResultsEqual(t, sql+" (NoBypass)", want, ref)
	}
}

// TestBypassNotUsedWhenResidualComputes: anything beyond a bare
// projection plus a compilable WHERE keeps the scratch engine.
func TestBypassNotUsedWhenResidualComputes(t *testing.T) {
	fed, p := buildJoinFederation(t, 20, 50)
	ctx := context.Background()
	for _, sql := range []string{
		`SELECT COUNT(*) FROM CUSTOMERS`,
		`SELECT DISTINCT tier FROM CUSTOMERS`,
		`SELECT c.cid FROM CUSTOMERS c, ORDERS o WHERE c.cid = o.cust`,
	} {
		plan := planFor(t, p, sql)
		_, m, err := execute(ctx, plan, fedRunner{fed}, executor.Options{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if m.ScratchBypassed {
			t.Errorf("%s: bypassed a residual that computes", sql)
		}
	}
}

// TestPerSourceMetrics: every remote scan reports per-site counters.
func TestPerSourceMetrics(t *testing.T) {
	fed, p := buildJoinFederation(t, 30, 90)
	plan := planFor(t, p, `SELECT c.cid FROM CUSTOMERS c, ORDERS o WHERE c.cid = o.cust`)
	_, m, err := execute(context.Background(), plan, fedRunner{fed}, executor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Sources) != m.RemoteQueries {
		t.Fatalf("Sources entries = %d, RemoteQueries = %d", len(m.Sources), m.RemoteQueries)
	}
	total := 0
	sites := map[string]bool{}
	for _, src := range m.Sources {
		if src.Site == "" {
			t.Fatalf("source metric without site: %+v", src)
		}
		sites[src.Site] = true
		total += src.Rows
		if src.Rows > 0 && src.Batches == 0 {
			t.Fatalf("site %s shipped %d rows in 0 batches", src.Site, src.Rows)
		}
	}
	if total != m.RowsShipped {
		t.Fatalf("per-source rows sum %d != RowsShipped %d", total, m.RowsShipped)
	}
	if !sites["crm"] || !sites["oltp"] {
		t.Fatalf("missing site metrics: %v", m.Sources)
	}
}

func assertResultsEqual(t *testing.T, label string, want, got *schema.ResultSet) {
	t.Helper()
	if len(want.Columns) != len(got.Columns) {
		t.Fatalf("%s: columns %v vs %v", label, want.Columns, got.Columns)
	}
	for i := range want.Columns {
		if want.Columns[i] != got.Columns[i] {
			t.Fatalf("%s: column %d %q vs %q", label, i, want.Columns[i], got.Columns[i])
		}
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: rows %d vs %d", label, len(want.Rows), len(got.Rows))
	}
	for ri := range want.Rows {
		for ci := range want.Rows[ri] {
			wv, gv := want.Rows[ri][ci], got.Rows[ri][ci]
			if wv.IsNull() != gv.IsNull() || (!wv.IsNull() && (wv.K != gv.K || wv.Text() != gv.Text())) {
				t.Fatalf("%s: row %d col %d: %s vs %s", label, ri, ci, wv, gv)
			}
		}
	}
}
