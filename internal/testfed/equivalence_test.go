package testfed

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"myriad/internal/catalog"
	"myriad/internal/core"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/schema"
)

// equivalenceFixture builds a federation with every combinator in play
// and overlapping data so dedup and conflict resolution do real work:
//
//	R = a.T UNION ALL b.T
//	D = a.T UNION b.T        (distinct; ids 0..299 identical at both)
//	M = a.T ⟗ b.T on id      (outer merge, v resolved with max)
func equivalenceFixture(t testing.TB) *Fixture {
	t.Helper()
	specs := []SiteSpec{
		{Name: "a", Dialect: "oracle", Setup: []string{createT},
			Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}},
		{Name: "b", Dialect: "postgres", Setup: []string{createT},
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
	// b shares rows 0..299 verbatim with a (real duplicates for D, real
	// conflicts for M) and contributes 1000..1699 of its own.
	fx.LoadRows(t, "b", "t", append(genRows(0, 300), genRows(1000, 700)...))
	return fx
}

// equivalenceCorpus is the federated query corpus the streaming path
// must answer exactly like the oracle.
var equivalenceCorpus = []string{
	`SELECT id, v FROM R ORDER BY id, v`,
	`SELECT id, v FROM R WHERE v > 50 ORDER BY id`,
	`SELECT id, v FROM R ORDER BY v DESC, id LIMIT 25`,
	`SELECT id, v FROM R ORDER BY id LIMIT 10 OFFSET 995`,
	`SELECT id, v FROM R LIMIT 7`,
	`SELECT v, COUNT(*) AS n, SUM(id) AS s FROM R GROUP BY v ORDER BY v`,
	`SELECT COUNT(*) AS n FROM R`,
	`SELECT DISTINCT v FROM R ORDER BY v`,
	`SELECT id, v FROM D ORDER BY id, v`,
	`SELECT id, v FROM D ORDER BY id LIMIT 12`,
	`SELECT COUNT(*) AS n FROM D`,
	`SELECT id, v FROM M ORDER BY id`,
	`SELECT id, v FROM M WHERE id < 350 ORDER BY id LIMIT 20`,
	`SELECT m.id, m.v, r.v AS rv FROM M m, R r WHERE m.id = r.id AND m.v > 90 ORDER BY m.id, rv`,
	`SELECT id FROM R WHERE v = 1 UNION SELECT id FROM M WHERE v = 2 ORDER BY id`,
	`SELECT r.id, d.v FROM R r, D d WHERE r.id = d.id AND r.v < 5 ORDER BY r.id, d.v`,
	// Bare projections with a WHERE: the bypass filters inline on the
	// fan-in (under simple the predicate stays residual; under cost it
	// may push down — both must agree with the oracle). The LIMIT
	// exceeds the matching rows so every fan-in mode returns the same
	// multiset.
	`SELECT id AS ident, v FROM R WHERE v >= 90`,
	`SELECT id, v FROM R WHERE v > 90 LIMIT 500`,
	`SELECT id, v FROM D WHERE v < 3`,
	// Cross-site equi-joins with a selective side: under the cost-based
	// strategy these may plan as bind joins (shipping key batches to
	// the probe sites), and must still match the oracle.
	`SELECT r.id, d.v FROM R r JOIN D d ON r.id = d.id WHERE d.v = 7 ORDER BY r.id`,
	`SELECT d.id, r.id AS rid, r.v FROM D d JOIN R r ON d.v = r.v WHERE d.id < 5 ORDER BY d.id, rid, r.v`,
}

// TestStreamingMatchesOracle holds the streaming executor to the
// single-database oracle for the whole corpus, under both optimizer
// strategies and both fan-in policies: row for row where the query's
// ORDER BY fixes the order, as a multiset where SQL leaves it open.
// An answer the bypass serves — every shape fedserver may relay as the
// sites' batches — is checked again as read from fedserver over TCP.
func TestStreamingMatchesOracle(t *testing.T) {
	fx := equivalenceFixture(t)
	oracle := fx.Oracle(t)
	cl := relayClient(t, fx)
	ctx := context.Background()
	for _, policy := range []core.FanInPolicy{core.FanInAuto, core.FanInInterleave} {
		fx.Fed.FanIn = policy
		for _, strategy := range []core.Strategy{core.StrategyCostBased, core.StrategySimple} {
			for _, sql := range equivalenceCorpus {
				t.Run(fmt.Sprintf("%v/%v/%s", policy, strategy, sql), func(t *testing.T) {
					got, m, err := fx.Fed.QueryMetered(ctx, sql, strategy)
					if err != nil {
						t.Fatalf("streaming: %v", err)
					}
					if err := oracle.Check(ctx, sql, got); err != nil {
						t.Fatal(err)
					}
					if !m.ScratchBypassed {
						return
					}
					if got, err = cl.Query(ctx, strategyPrefix(strategy)+sql); err != nil {
						t.Fatalf("through fedserver: %v", err)
					}
					if err := oracle.Check(ctx, sql, got); err != nil {
						t.Fatalf("through fedserver: %v", err)
					}
				})
			}
		}
	}
	fx.Fed.FanIn = core.FanInAuto
}

func assertSameResult(t *testing.T, want, got *schema.ResultSet) {
	t.Helper()
	if len(want.Columns) != len(got.Columns) {
		t.Fatalf("column count: want %v, got %v", want.Columns, got.Columns)
	}
	for i := range want.Columns {
		if want.Columns[i] != got.Columns[i] {
			t.Fatalf("column %d: want %q, got %q", i, want.Columns[i], got.Columns[i])
		}
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("row count: want %d, got %d", len(want.Rows), len(got.Rows))
	}
	for ri, wr := range want.Rows {
		gr := got.Rows[ri]
		for ci := range wr {
			wv, gv := wr[ci], gr[ci]
			if wv.IsNull() != gv.IsNull() || (!wv.IsNull() && (wv.K != gv.K || wv.Text() != gv.Text())) {
				t.Fatalf("row %d col %d: want %s, got %s", ri, ci, wv, gv)
			}
		}
	}
}

// assertSameResultUnordered compares columns exactly and rows as a
// multiset (both sides sorted on an encoded key first).
func assertSameResultUnordered(t *testing.T, want, got *schema.ResultSet) {
	t.Helper()
	if len(want.Columns) != len(got.Columns) {
		t.Fatalf("column count: want %v, got %v", want.Columns, got.Columns)
	}
	for i := range want.Columns {
		if want.Columns[i] != got.Columns[i] {
			t.Fatalf("column %d: want %q, got %q", i, want.Columns[i], got.Columns[i])
		}
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("row count: want %d, got %d", len(want.Rows), len(got.Rows))
	}
	enc := func(r schema.Row) string {
		var b strings.Builder
		for _, v := range r {
			if v.IsNull() {
				b.WriteByte(0)
			} else {
				b.WriteByte(byte(v.K) + 1)
				b.WriteString(v.Text())
			}
			b.WriteByte(0x1f)
		}
		return b.String()
	}
	keys := func(rows []schema.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = enc(r)
		}
		sort.Strings(out)
		return out
	}
	wk, gk := keys(want.Rows), keys(got.Rows)
	for i := range wk {
		if wk[i] != gk[i] {
			t.Fatalf("row multiset differs at sorted position %d", i)
		}
	}
}

// TestOuterMergeSourceBatches: the blocking OUTERJOIN-MERGE combinator
// reports its fragment handoffs in per-source metrics too (one block
// per source), so operators never read "rows=N batches=0".
func TestOuterMergeSourceBatches(t *testing.T) {
	fx := equivalenceFixture(t)
	_, m, err := fx.Fed.QueryMetered(context.Background(), `SELECT id, v FROM M ORDER BY id`, fx.Fed.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Sources) == 0 {
		t.Fatal("no per-source metrics")
	}
	for _, src := range m.Sources {
		if src.Rows > 0 && src.Batches == 0 {
			t.Fatalf("site %s shipped %d rows in 0 batches", src.Site, src.Rows)
		}
	}
}
