package executor_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"myriad/internal/catalog"
	"myriad/internal/core"
	"myriad/internal/executor"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/localdb"
	"myriad/internal/planner"
	"myriad/internal/schema"
	"myriad/internal/sqlparser"
	"myriad/internal/testfed"
	"myriad/internal/value"
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
	for _, ss := range plan.ScanSets {
		if ss.SemiFrom != "" {
			ss.BindMaxKeys = 50
		}
	}

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
// single-database oracle, with the bypass recorded in metrics.
func TestScratchBypassEquivalence(t *testing.T) {
	fed, p := buildJoinFederation(t, 50, 200)
	ctx := context.Background()
	oracle, err := testfed.NewOracle(ctx, fed)
	if err != nil {
		t.Fatal(err)
	}
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
		got, m, err := execute(ctx, plan, fedRunner{fed}, executor.Options{})
		if err != nil {
			t.Fatalf("%s: streaming: %v", sql, err)
		}
		if !m.ScratchBypassed {
			t.Errorf("%s: residual pipeline not bypassed", sql)
		}
		if err := oracle.Check(ctx, sql, got); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
}

// TestBypassNotUsedWhenResidualComputes: anything beyond a bare
// projection plus a compilable WHERE keeps the residual pipeline.
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

// TestParseFanIn: the two policies that behave differently parse; the
// retired ones fail with an error naming the accepted values.
func TestParseFanIn(t *testing.T) {
	for s, want := range map[string]executor.FanInPolicy{
		"": executor.FanInAuto, "auto": executor.FanInAuto, " Interleave ": executor.FanInInterleave,
	} {
		if got, err := executor.ParseFanIn(s); err != nil || got != want {
			t.Errorf("ParseFanIn(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"merge", "source-order", "ordered"} {
		_, err := executor.ParseFanIn(s)
		if err == nil || !strings.Contains(err.Error(), `"auto" or "interleave"`) {
			t.Errorf("ParseFanIn(%q) err = %v", s, err)
		}
	}
}

// unsortingRunner runs each scan over the fixture's pooled site
// connections, except that the named site's scan loses its ORDER BY —
// an autonomous site that does not keep the ordered-stream promise. It
// counts the streams it hands out and the ones closed.
type unsortingRunner struct {
	fx             *testfed.Fixture
	site           string
	opened, closed atomic.Int64
}

type closeCounted struct {
	schema.RowStream
	closed *atomic.Int64
}

func (s closeCounted) Close() error { s.closed.Add(1); return s.RowStream.Close() }

func (r *unsortingRunner) QuerySite(ctx context.Context, site, sql string) (schema.RowStream, error) {
	if site == r.site {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			return nil, err
		}
		stmt.(*sqlparser.Select).OrderBy = nil
		sql = sqlparser.FormatStatement(stmt, nil)
	}
	conn, ok := r.fx.Fed.Conn(site)
	if !ok {
		return nil, fmt.Errorf("no site %q", site)
	}
	st, err := conn.QueryStream(ctx, 0, sql)
	if err != nil {
		return nil, err
	}
	r.opened.Add(1)
	return closeCounted{st, &r.closed}, nil
}

// TestUnsortedSiteFailsMergeAndReleasesPool: a site that ignores the
// top-K ORDER BY shipped to it fails the ordered-merge bypass with
// integration.ErrUnsortedSource naming the site, instead of a wrongly
// ordered answer; closing the result closes every site stream, so the
// query, failed more times than a site's pool has connections, leaves
// each pooled connection free for the next query.
func TestUnsortedSiteFailsMergeAndReleasesPool(t *testing.T) {
	var specs []testfed.SiteSpec
	for _, name := range []string{"a", "b"} {
		specs = append(specs, testfed.SiteSpec{Name: name,
			Setup:   []string{`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`},
			Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}})
	}
	same := map[string]string{"id": "id", "v": "v"}
	fx := testfed.New(t, specs, []*catalog.IntegratedDef{{
		Name:    "R",
		Columns: []schema.Column{{Name: "id", Type: schema.TInt}, {Name: "v", Type: schema.TInt}},
		Combine: integration.UnionAll,
		Sources: []catalog.SourceDef{{Site: "a", Export: "T", ColumnMap: same}, {Site: "b", Export: "T", ColumnMap: same}},
	}})
	for i, site := range []string{"a", "b"} {
		rows := make([]schema.Row, 2000)
		for j := range rows {
			rows[j] = schema.Row{value.NewInt(int64(i*10_000 + j)), value.NewInt(int64(j % 97))}
		}
		fx.LoadRows(t, site, "t", rows)
	}
	// The LIMIT exceeds every fragment, so each site is asked for its
	// whole fragment, sorted.
	plan := planFor(t, planner.New(fx.Fed.Catalog(), fx.Fed), `SELECT id, v FROM R ORDER BY v, id LIMIT 5000`)
	if plan.ScanSets[0].ScanOrdering == nil {
		t.Fatal("ORDER BY not shipped to the sites")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	bad := &unsortingRunner{fx: fx, site: "b"}
	for i := 0; i < 9; i++ {
		_, m, err := execute(ctx, plan, bad, executor.Options{})
		if !errors.Is(err, integration.ErrUnsortedSource) || !strings.Contains(err.Error(), "site b") {
			t.Fatalf("run %d: err = %v", i, err)
		}
		if !m.ScratchBypassed {
			t.Fatalf("run %d: not served by the ordered-merge bypass", i)
		}
	}
	if o, c := bad.opened.Load(), bad.closed.Load(); o != 18 || c != o {
		t.Fatalf("site streams: %d opened, %d closed", o, c)
	}
	good := &unsortingRunner{fx: fx}
	rs, _, err := execute(ctx, plan, good, executor.Options{})
	if err != nil {
		t.Fatalf("query after the failures: %v", err)
	}
	if len(rs.Rows) != 4000 {
		t.Fatalf("query after the failures: %d rows", len(rs.Rows))
	}
}
