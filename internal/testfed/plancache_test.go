package testfed

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"myriad/internal/catalog"
	"myriad/internal/core"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/schema"
	"myriad/internal/sqlparser"
	"myriad/internal/value"
)

// benchShapedFixture is a small copy of the fedbench deployment: PARTS
// and ACCOUNTS over three sites in the same dialects (PARTS ids
// range-partitioned by site), CUSTOMERS at the first site and ORDERS at
// the second, integrated as the benchmark integrates them.
func benchShapedFixture(t testing.TB) *Fixture {
	t.Helper()
	const perSite = 100
	dialects := []string{"oracle", "postgres", "oracle"}
	var specs []SiteSpec
	var partSrc, acctSrc []catalog.SourceDef
	for s := 0; s < 3; s++ {
		name := fmt.Sprintf("s%d", s)
		spec := SiteSpec{Name: name, Dialect: dialects[s], Setup: []string{
			`CREATE TABLE parts (pid INTEGER PRIMARY KEY, pname TEXT NOT NULL, weight FLOAT, price FLOAT, category TEXT)`,
			`CREATE TABLE acct (id INTEGER PRIMARY KEY, owner TEXT, bal INTEGER NOT NULL)`,
		}, Exports: []gateway.Export{{Name: "PART", LocalTable: "parts"}, {Name: "ACCT", LocalTable: "acct"}}}
		switch s {
		case 0:
			spec.Setup = append(spec.Setup, `CREATE TABLE customers (cid INTEGER PRIMARY KEY, cname TEXT NOT NULL, tier TEXT, region TEXT)`)
			spec.Exports = append(spec.Exports, gateway.Export{Name: "CUSTOMER", LocalTable: "customers"})
		case 1:
			spec.Setup = append(spec.Setup, `CREATE TABLE orders (oid INTEGER PRIMARY KEY, cust INTEGER NOT NULL, amount FLOAT, item TEXT)`,
				`CREATE INDEX orders_cust ON orders (cust)`)
			spec.Exports = append(spec.Exports, gateway.Export{Name: "ORDER_T", LocalTable: "orders"})
		}
		specs = append(specs, spec)
		lit := "'" + name + "'"
		partSrc = append(partSrc, catalog.SourceDef{Site: name, Export: "PART", ColumnMap: map[string]string{
			"id": "pid", "name": "pname", "weight": "weight", "price": "price", "category": "category", "site": lit}})
		acctSrc = append(acctSrc, catalog.SourceDef{Site: name, Export: "ACCT", ColumnMap: map[string]string{
			"branch": lit, "id": "id", "owner": "owner", "bal": "bal"}})
	}
	same := func(cols ...string) map[string]string {
		m := make(map[string]string, len(cols))
		for _, c := range cols {
			m[c] = c
		}
		return m
	}
	col := func(name string, t schema.Type) schema.Column { return schema.Column{Name: name, Type: t} }
	defs := []*catalog.IntegratedDef{
		{Name: "PARTS", Key: []string{"id"}, Combine: integration.UnionAll, Sources: partSrc, Columns: []schema.Column{
			col("id", schema.TInt), col("name", schema.TText), col("weight", schema.TFloat),
			col("price", schema.TFloat), col("category", schema.TText), col("site", schema.TText)}},
		{Name: "ACCOUNTS", Combine: integration.UnionAll, Sources: acctSrc, Columns: []schema.Column{
			col("branch", schema.TText), col("id", schema.TInt), col("owner", schema.TText), col("bal", schema.TInt)}},
		{Name: "CUSTOMERS", Key: []string{"cid"}, Combine: integration.UnionAll,
			Sources: []catalog.SourceDef{{Site: "s0", Export: "CUSTOMER", ColumnMap: same("cid", "cname", "tier", "region")}},
			Columns: []schema.Column{col("cid", schema.TInt), col("cname", schema.TText), col("tier", schema.TText), col("region", schema.TText)}},
		{Name: "ORDERS", Key: []string{"oid"}, Combine: integration.UnionAll,
			Sources: []catalog.SourceDef{{Site: "s1", Export: "ORDER_T", ColumnMap: same("oid", "cust", "amount", "item")}},
			Columns: []schema.Column{col("oid", schema.TInt), col("cust", schema.TInt), col("amount", schema.TFloat), col("item", schema.TText)}},
	}
	fx := New(t, specs, defs)
	for s := 0; s < 3; s++ {
		var parts, accts []schema.Row
		for i := 0; i < perSite; i++ {
			id := s*perSite + i
			parts = append(parts, schema.Row{value.NewInt(int64(id)), value.NewText(fmt.Sprintf("part-%d", id)),
				value.NewFloat(float64((id*37)%1000) + 0.5), value.NewFloat(float64(id)*1.5 + 0.25),
				value.NewText(fmt.Sprintf("cat%02d", id%7))})
		}
		for i := 0; i < 20; i++ {
			accts = append(accts, schema.Row{value.NewInt(int64(i)), value.NewText(fmt.Sprintf("own-%d", i)), value.NewInt(1000)})
		}
		fx.LoadRows(t, fmt.Sprintf("s%d", s), "parts", parts)
		fx.LoadRows(t, fmt.Sprintf("s%d", s), "acct", accts)
	}
	var custs, orders []schema.Row
	for c := 0; c < 40; c++ {
		tier := "std"
		if c%5 == 0 {
			tier = "gold"
		}
		custs = append(custs, schema.Row{value.NewInt(int64(c)), value.NewText(fmt.Sprintf("cust-%d", c)),
			value.NewText(tier), value.NewText(fmt.Sprintf("r%d", c%4))})
	}
	for o := 0; o < 400; o++ {
		orders = append(orders, schema.Row{value.NewInt(int64(o)), value.NewInt(int64(o % 40)),
			value.NewFloat(float64((o*37)%500) + 0.5), value.NewText(fmt.Sprintf("item-%d", o%9))})
	}
	fx.LoadRows(t, "s0", "customers", custs)
	fx.LoadRows(t, "s1", "orders", orders)
	return fx
}

// benchShapes draws n statements of each fedbench read workload's shape
// from rng, with the benchmark's literal ranges scaled to the fixture.
func benchShapes(rng *rand.Rand, n int) map[string][]string {
	out := map[string][]string{}
	for i := 0; i < n; i++ {
		a := rng.Intn(1000 - 100 + 1)
		s := rng.Intn(1000 - 333 + 1)
		out["point_read"] = append(out["point_read"], fmt.Sprintf("SELECT id, name, price FROM PARTS WHERE id = %d", rng.Intn(330)))
		out["bulk_scan"] = append(out["bulk_scan"], fmt.Sprintf("SELECT id, name, weight, price, category FROM PARTS WHERE weight >= %d AND weight < %d", a, a+100))
		out["join_agg"] = append(out["join_agg"], fmt.Sprintf("SELECT c.region, COUNT(*), SUM(o.amount) FROM CUSTOMERS c JOIN ORDERS o ON c.cid = o.cust "+
			"WHERE c.tier = 'gold' AND o.amount > %d GROUP BY c.region ORDER BY c.region", 300+rng.Intn(150)))
		out["sort_spill"] = append(out["sort_spill"], fmt.Sprintf("SELECT id, name, price FROM PARTS WHERE weight >= %d AND weight < %d ORDER BY price", s, s+333))
	}
	return out
}

// perturb rewrites sql's literals through its shape: variant k shifts
// every integer (far enough, for some k, to leave a fragment's
// [min, max] and so prune a different set of sites), scales floats and
// rotates texts through the generated corpus's domains. The result
// shares sql's shape by construction.
func perturb(t *testing.T, sql string, k int) string {
	t.Helper()
	key, args, err := sqlparser.Shape(sql)
	if err != nil {
		t.Fatal(err)
	}
	shifts := []int64{1, 150, -60, 37}
	for i, a := range args {
		switch a.K {
		case value.KindInt:
			args[i] = value.NewInt(a.RawInt() + shifts[k%len(shifts)])
		case value.KindFloat:
			args[i] = value.NewFloat(a.RawFloat() * float64(k+2) / 2)
		case value.KindText:
			for _, domain := range [][]string{genDepts, genNotes, {"gold", "std"}} {
				if j := slices.Index(domain, a.S); j >= 0 {
					args[i] = value.NewText(domain[(j+k+1)%len(domain)])
				}
			}
		}
	}
	tmpl, err := sqlparser.Parse(key)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sqlparser.Bind(tmpl, args)
	if err != nil {
		t.Fatal(err)
	}
	return bound.String()
}

// prunedSites lists a plan's pruned scans, for comparing variants.
func prunedSites(p interface{ Describe() string }) string {
	var out []string
	for _, line := range strings.Split(p.Describe(), "\n") {
		if strings.Contains(line, ": pruned (") {
			out = append(out, strings.TrimSpace(line[:strings.Index(line, ":")]))
		}
	}
	return strings.Join(out, " ")
}

// checkPlanIdentity runs sql and its perturbed variants under both
// strategies: each cached plan must Describe exactly as a plan built
// from nothing, and each answer must match the oracle. It reports
// whether some variant pruned a different set of sites than sql.
func checkPlanIdentity(t *testing.T, fx *Fixture, oracle *Oracle, sql string) (prunedDiffer bool) {
	t.Helper()
	ctx := context.Background()
	for _, strategy := range []core.Strategy{core.StrategyCostBased, core.StrategySimple} {
		base := ""
		for k := -1; k < 4; k++ {
			q := sql
			if k >= 0 {
				q = perturb(t, sql, k)
			}
			cached, err := fx.Fed.Plan(ctx, q, strategy)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			fresh, err := fx.Plan(ctx, q, strategy)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if cached.Describe() != fresh.Describe() {
				t.Fatalf("%v: %s\ncached plan:\n%s\nfresh plan:\n%s", strategy, q, cached.Describe(), fresh.Describe())
			}
			if k < 0 {
				base = prunedSites(cached)
			} else if prunedSites(cached) != base {
				prunedDiffer = true
			}
			got, _, err := fx.Fed.QueryMetered(ctx, q, strategy)
			if err != nil {
				t.Fatalf("%v: %s: %v", strategy, q, err)
			}
			if err := oracle.Check(ctx, q, got); err != nil {
				t.Fatalf("%v: %s: %v", strategy, q, err)
			}
		}
	}
	return prunedDiffer
}

// TestCachedPlansMatchFreshPlans re-runs the generated corpus and the
// benchmark's query shapes with perturbed literals through the plan
// cache: every cached plan equals a plan from an empty cache, every
// answer is oracle-checked, and some perturbation prunes a different
// set of sites than the statement it came from.
func TestCachedPlansMatchFreshPlans(t *testing.T) {
	t.Run("generated", func(t *testing.T) {
		fx := generatedFixture(t)
		oracle := fx.Oracle(t)
		g := &queryGen{rng: rand.New(rand.NewSource(genSeed))}
		differ := 0
		for i := 0; i < genQueries; i++ {
			if checkPlanIdentity(t, fx, oracle, g.query()) {
				differ++
			}
		}
		if differ == 0 {
			t.Fatal("no perturbation pruned a different set of sites")
		}
	})
	t.Run("bench", func(t *testing.T) {
		fx := benchShapedFixture(t)
		oracle := fx.Oracle(t)
		differ := 0
		for _, stmts := range benchShapes(rand.New(rand.NewSource(1)), 2) {
			for _, sql := range stmts {
				if checkPlanIdentity(t, fx, oracle, sql) {
					differ++
				}
			}
		}
		if differ == 0 {
			t.Fatal("no perturbation pruned a different set of sites")
		}
	})
}

// cacheDelta snapshots a cache's counters and reports the traffic since.
func cacheDelta(st *sqlparser.CacheStats) func() (hits, misses int64) {
	h, m := st.Hits.Load(), st.Misses.Load()
	return func() (int64, int64) { return st.Hits.Load() - h, st.Misses.Load() - m }
}

// sameIDsFixture integrates R = a.T UNION ALL b.T where both sites hold
// ids 0..99, so no point read prunes either site.
func sameIDsFixture(t *testing.T) *Fixture {
	t.Helper()
	specs := []SiteSpec{
		{Name: "a", Dialect: "oracle", Setup: []string{createT}, Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}},
		{Name: "b", Dialect: "postgres", Setup: []string{createT}, Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}},
	}
	fx := New(t, specs, []*catalog.IntegratedDef{unionDef(integration.UnionAll, "a", "b")})
	fx.LoadRows(t, "a", "t", genRows(0, 100))
	fx.LoadRows(t, "b", "t", genRows(0, 100))
	return fx
}

// checkPointRead checks one point read of sameIDsFixture's R.
func checkPointRead(ctx context.Context, fx *Fixture, id int) error {
	rs, err := fx.Query(ctx, fmt.Sprintf(`SELECT id, v FROM R WHERE id = %d`, id))
	if err != nil {
		return err
	}
	if len(rs.Rows) != 2 {
		return fmt.Errorf("id %d: %d rows, want 2", id, len(rs.Rows))
	}
	for _, r := range rs.Rows {
		if r[0].Text() != fmt.Sprint(id) || r[1].Text() != fmt.Sprint(id%97) {
			return fmt.Errorf("id %d: row %v", id, r)
		}
	}
	return nil
}

// TestPlanCacheHitsAtEachHop: 100 point reads with different ids are
// one miss and 99 hits at the coordinator and at each gateway.
func TestPlanCacheHitsAtEachHop(t *testing.T) {
	fx := sameIDsFixture(t)
	ctx := context.Background()
	fed := cacheDelta(fx.Fed.PlanCacheStats())
	gwA := cacheDelta(fx.Site("a").GW.ShapeCacheStats())
	gwB := cacheDelta(fx.Site("b").GW.ShapeCacheStats())
	for id := 0; id < 100; id++ {
		if err := checkPointRead(ctx, fx, id); err != nil {
			t.Fatal(err)
		}
	}
	for hop, delta := range map[string]func() (int64, int64){"federation": fed, "gateway a": gwA, "gateway b": gwB} {
		if h, m := delta(); h != 99 || m != 1 {
			t.Errorf("%s: %d hits, %d misses; want 99 and 1", hop, h, m)
		}
	}
}

// TestPlanCacheConcurrentLiterals runs one shape from 8 goroutines with
// different literals through both hops and checks every answer (run
// under -race).
func TestPlanCacheConcurrentLiterals(t *testing.T) {
	fx := sameIDsFixture(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := checkPointRead(ctx, fx, (w*25+i)%100); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPlanCacheInvalidation: between two executions of one shape, a
// catalog Define or Drop, a DefineExport, and a committed write that
// widens a pruning bound each change the plan or translation exactly as
// they change a fresh one.
func TestPlanCacheInvalidation(t *testing.T) {
	ctx := context.Background()
	fx := twoSiteUnion(t, integration.UnionAll, 100, 100, false, 0) // a: ids 0..99, b: 1000000..
	samePlan := func(sql string) string {
		t.Helper()
		cached, err := fx.Fed.Plan(ctx, sql, core.StrategyCostBased)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := fx.Plan(ctx, sql, core.StrategyCostBased)
		if err != nil {
			t.Fatal(err)
		}
		if cached.Describe() != fresh.Describe() {
			t.Fatalf("%s\ncached plan:\n%s\nfresh plan:\n%s", sql, cached.Describe(), fresh.Describe())
		}
		return cached.Describe()
	}

	t.Run("define and drop", func(t *testing.T) {
		both := samePlan(`SELECT id, v FROM R WHERE v = 3`)
		if err := fx.Fed.DefineIntegrated(unionDef(integration.UnionAll, "a")); err != nil {
			t.Fatal(err)
		}
		onlyA := samePlan(`SELECT id, v FROM R WHERE v = 4`)
		if both == onlyA || strings.Contains(onlyA, "@b") {
			t.Fatalf("redefinition did not reach the plan:\n%s", onlyA)
		}
		if err := fx.Fed.Catalog().Drop("R"); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.Fed.Plan(ctx, `SELECT id, v FROM R WHERE v = 5`, core.StrategyCostBased); err == nil {
			t.Fatal("planned a dropped relation")
		}
		if err := fx.Fed.DefineIntegrated(unionDef(integration.UnionAll, "a", "b")); err != nil {
			t.Fatal(err)
		}
		if again := samePlan(`SELECT id, v FROM R WHERE v = 6`); !strings.Contains(again, "@b") {
			t.Fatalf("redefinition did not reach the plan:\n%s", again)
		}
	})

	t.Run("define export", func(t *testing.T) {
		gw := fx.Site("a").GW
		sql := `SELECT id, v FROM T WHERE id = 98`
		rs, err := queryGateway(ctx, gw, sql)
		if err != nil || len(rs.Rows) != 1 || rs.Rows[0][1].Text() != "1" {
			t.Fatalf("before: %v %v", rs, err)
		}
		swapped := gateway.Export{Name: "T", LocalTable: "t", Columns: []gateway.ExportColumn{{Export: "id", Local: "v"}, {Export: "v", Local: "id"}}}
		if err := gw.DefineExport(swapped); err != nil {
			t.Fatal(err)
		}
		fresh := gateway.New("a", fx.Site("a").DB, nil)
		if err := fresh.DefineExport(swapped); err != nil {
			t.Fatal(err)
		}
		sql = `SELECT id, v FROM T WHERE id = 1`
		got, err := queryGateway(ctx, gw, sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := queryGateway(ctx, fresh, sql)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) || len(got.Rows) != 2 {
			t.Fatalf("after DefineExport: %v, fresh gateway %v", got.Rows, want.Rows)
		}
	})

	t.Run("write widens a bound", func(t *testing.T) {
		if err := fx.Site("a").GW.DefineExport(gateway.Export{Name: "T", LocalTable: "t"}); err != nil {
			t.Fatal(err)
		}
		before := samePlan(`SELECT id, v FROM R WHERE id = 500`)
		if prunedSites(planDescriber(before)) != "@a @b" {
			t.Fatalf("id 500 should prune both fragments:\n%s", before)
		}
		txn := fx.Fed.Begin()
		if _, err := txn.ExecSite(ctx, "a", `INSERT INTO T (id, v) VALUES (500, 7)`); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		after := samePlan(`SELECT id, v FROM R WHERE id = 500`)
		if prunedSites(planDescriber(after)) != "@b" {
			t.Fatalf("the insert did not widen a's bound:\n%s", after)
		}
		rs, err := fx.Query(ctx, `SELECT id, v FROM R WHERE id = 500`)
		if err != nil || len(rs.Rows) != 1 {
			t.Fatalf("after the insert: %v %v", rs, err)
		}
	})
}

// planDescriber adapts a rendered plan to prunedSites.
type planDescriber string

func (d planDescriber) Describe() string { return string(d) }

// queryGateway runs sql at one gateway and drains the result.
func queryGateway(ctx context.Context, gw *gateway.Gateway, sql string) (*schema.ResultSet, error) {
	rows, err := gw.QueryStream(ctx, 0, sql)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	return schema.DrainStream(ctx, rows)
}
