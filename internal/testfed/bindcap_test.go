package testfed

import (
	"context"
	"testing"

	"myriad/internal/core"
	"myriad/internal/planner"
	"myriad/internal/schema"
	"myriad/internal/value"
)

// capFixture is the bind-join fixture with probe rows k = id, 300 per
// site (600 rows, 600 distinct keys, at two live scans: a break-even
// cap of ⌊min(600/4, 600/(2 + 600/600))⌋ = 150 keys), and the given
// driving rows.
func capFixture(t *testing.T, driving []schema.Row) *Fixture {
	t.Helper()
	fx := bindJoinFixture(t, 0, 0, false)
	probe := func(base int) []schema.Row {
		rows := make([]schema.Row, 300)
		for i := range rows {
			g := int64(base + i)
			rows[i] = schema.Row{value.NewInt(g), value.NewInt(g), value.NewText("t0"), value.NewInt(g % 100)}
		}
		return rows
	}
	fx.LoadRows(t, "a", "p", probe(0))
	fx.LoadRows(t, "b", "p", probe(300))
	fx.LoadRows(t, "b", "d", driving)
	return fx
}

// tagRows builds n driving rows with k = step·i and tag 'gold' where
// gold(i), else 'std': a two-valued column the planner estimates at
// one half whatever its real split.
func tagRows(n int, step int64, gold func(i int) bool) []schema.Row {
	rows := make([]schema.Row, n)
	for i := range rows {
		tag := "std"
		if gold(i) {
			tag = "gold"
		}
		rows[i] = schema.Row{value.NewInt(int64(i)), value.NewInt(step * int64(i)), value.NewText("t0"), value.NewText(tag)}
	}
	return rows
}

// nominatedProbe returns the plan's bind-join probe set, failing the
// test when the planner nominated none.
func nominatedProbe(t *testing.T, plan *planner.Plan) *planner.ScanSet {
	t.Helper()
	for _, ss := range plan.ScanSets {
		if ss.SemiFrom != "" {
			return ss
		}
	}
	t.Fatalf("planner nominated no bind join:\n%s", plan.Describe())
	return nil
}

const goldJoin = `SELECT d.id, p.id AS pid FROM DRV d JOIN P p ON d.k = p.k WHERE d.tag = 'gold' ORDER BY d.id, pid`

// TestBindJoinBindsOnActualKeys: the planner estimates the gold build
// side at half of its 400 rows, 200 keys, over the probe's 150-key cap;
// only 20 rows (5%) are gold. Decided on the exact count, the join
// ships those 20 keys and gets back only the probe rows they match.
func TestBindJoinBindsOnActualKeys(t *testing.T) {
	fx := capFixture(t, tagRows(400, 2, func(i int) bool { return i%20 == 0 }))
	ctx := context.Background()
	plan, err := fx.Plan(ctx, goldJoin, core.StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	if ss := nominatedProbe(t, plan); ss.EstKeys < 10*20 || float64(ss.BindMaxKeys) >= ss.EstKeys {
		t.Fatalf("want an estimate ~10x the 20 actual keys and over the cap:\n%s", plan.Describe())
	}
	rs, m, err := fx.Fed.QueryMetered(ctx, goldJoin, core.StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	if !m.SemijoinUsed || m.SemijoinSkip {
		t.Fatalf("bind join not used: used=%v skip=%v", m.SemijoinUsed, m.SemijoinSkip)
	}
	// Gold keys 0, 40, ..., 760; the 15 below 600 match one probe row
	// each. The 20 gold build rows ship too.
	if len(rs.Rows) != 15 || m.RowsShipped > 20+15 {
		t.Fatalf("%d rows, %d shipped; want 15 rows and at most 35 shipped", len(rs.Rows), m.RowsShipped)
	}
	if err := fx.Oracle(t).Check(ctx, goldJoin, rs); err != nil {
		t.Fatal(err)
	}
}

// TestBindJoinFallsBackOnActualKeys is the reverse: the gold build side
// is estimated at 125 keys, under the probe's 150-key cap, but 95% of
// its 250 rows are gold. Its 237 actual keys are over the cap, so the
// probe ships whole and the answer is the oracle's.
func TestBindJoinFallsBackOnActualKeys(t *testing.T) {
	fx := capFixture(t, tagRows(250, 1, func(i int) bool { return i%20 != 0 }))
	ctx := context.Background()
	plan, err := fx.Plan(ctx, goldJoin, core.StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	if ss := nominatedProbe(t, plan); ss.EstKeys > float64(ss.BindMaxKeys) || ss.BindMaxKeys >= 237 {
		t.Fatalf("want an estimate under the cap and the 237 actual keys over it:\n%s", plan.Describe())
	}
	rs, m, err := fx.Fed.QueryMetered(ctx, goldJoin, core.StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	if m.SemijoinUsed || !m.SemijoinSkip || m.ShippedKeys != 0 {
		t.Fatalf("no fallback: used=%v skip=%v keys=%d", m.SemijoinUsed, m.SemijoinSkip, m.ShippedKeys)
	}
	if len(rs.Rows) != 237 {
		t.Fatalf("%d rows, want 237", len(rs.Rows))
	}
	if err := fx.Oracle(t).Check(ctx, goldJoin, rs); err != nil {
		t.Fatal(err)
	}
}
