package testfed

import (
	"context"
	"math"
	"testing"

	"myriad/internal/catalog"
	"myriad/internal/core"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/schema"
	"myriad/internal/value"
)

// TestUnionKeepsTextHoldingKeySeparator: the rows ('a\x1f\x04b', 'c')
// at one site and ('a', 'b\x1f\x04c') at the other differ, though
// concatenating their texts with the row key's separator and TEXT tag
// unescaped would make them one key. Both the integrated UNION and a
// SQL-level UNION across the two sites must keep both rows, as the
// oracle does.
func TestUnionKeepsTextHoldingKeySeparator(t *testing.T) {
	const create = `CREATE TABLE s (a TEXT, b TEXT)`
	specs := []SiteSpec{
		{Name: "x", Setup: []string{create}, Exports: []gateway.Export{{Name: "S", LocalTable: "s"}}},
		{Name: "y", Setup: []string{create}, Exports: []gateway.Export{{Name: "S", LocalTable: "s"}}},
	}
	def := func(name string, kind integration.CombineKind, sites ...string) *catalog.IntegratedDef {
		d := &catalog.IntegratedDef{
			Name:    name,
			Columns: []schema.Column{{Name: "a", Type: schema.TText}, {Name: "b", Type: schema.TText}},
			Combine: kind,
		}
		for _, s := range sites {
			d.Sources = append(d.Sources, catalog.SourceDef{
				Site: s, Export: "S", ColumnMap: map[string]string{"a": "a", "b": "b"},
			})
		}
		return d
	}
	fx := New(t, specs, []*catalog.IntegratedDef{
		def("U", integration.UnionDistinct, "x", "y"),
		def("X", integration.UnionAll, "x"),
		def("Y", integration.UnionAll, "y"),
	})
	fx.LoadRows(t, "x", "s", []schema.Row{{value.NewText("a\x1f\x04b"), value.NewText("c")}})
	fx.LoadRows(t, "y", "s", []schema.Row{{value.NewText("a"), value.NewText("b\x1f\x04c")}})
	oracle := fx.Oracle(t)
	ctx := context.Background()
	for _, sql := range []string{
		`SELECT a, b FROM U`,
		`SELECT a, b FROM X UNION SELECT a, b FROM Y`,
		`SELECT DISTINCT a, b FROM U`,
	} {
		for _, strategy := range []core.Strategy{core.StrategyCostBased, core.StrategySimple} {
			got, _, err := fx.Fed.QueryMetered(ctx, sql, strategy)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if len(got.Rows) != 2 {
				t.Fatalf("%s (%v): %d rows, want 2: %v", sql, strategy, len(got.Rows), got.Rows)
			}
			if err := oracle.Check(ctx, sql, got); err != nil {
				t.Fatalf("%s (%v): %v", sql, strategy, err)
			}
		}
	}
}

// TestUnionFoldsSignedZero: -0.0 = 0.0 in SQL, so an integrated UNION,
// a SQL UNION and DISTINCT across two sites holding both keep one zero,
// and a GROUP BY counts them as one group, as the oracle does. Each
// site's first zero is 0.0, so whichever site's rows arrive first the
// zero kept is 0.0.
func TestUnionFoldsSignedZero(t *testing.T) {
	const create = `CREATE TABLE z (f FLOAT)`
	specs := []SiteSpec{
		{Name: "x", Setup: []string{create}, Exports: []gateway.Export{{Name: "Z", LocalTable: "z"}}},
		{Name: "y", Setup: []string{create}, Exports: []gateway.Export{{Name: "Z", LocalTable: "z"}}},
	}
	def := func(name string, kind integration.CombineKind, sites ...string) *catalog.IntegratedDef {
		d := &catalog.IntegratedDef{
			Name:    name,
			Columns: []schema.Column{{Name: "f", Type: schema.TFloat}},
			Combine: kind,
		}
		for _, s := range sites {
			d.Sources = append(d.Sources, catalog.SourceDef{Site: s, Export: "Z", ColumnMap: map[string]string{"f": "f"}})
		}
		return d
	}
	fx := New(t, specs, []*catalog.IntegratedDef{
		def("U", integration.UnionDistinct, "x", "y"),
		def("A", integration.UnionAll, "x", "y"),
		def("X", integration.UnionAll, "x"),
		def("Y", integration.UnionAll, "y"),
	})
	negZero := value.NewFloat(math.Copysign(0, -1))
	fx.LoadRows(t, "x", "z", []schema.Row{{value.NewFloat(0)}, {negZero}, {value.NewFloat(1.5)}})
	fx.LoadRows(t, "y", "z", []schema.Row{{value.NewFloat(0)}, {negZero}, {negZero}, {value.NewFloat(2.5)}})
	oracle := fx.Oracle(t)
	ctx := context.Background()
	for _, tc := range []struct {
		sql  string
		rows int
	}{
		{`SELECT f FROM U`, 3},
		{`SELECT f FROM X UNION SELECT f FROM Y`, 3},
		{`SELECT DISTINCT f FROM A`, 3},
		{`SELECT f, COUNT(*) AS n FROM A GROUP BY f ORDER BY f`, 3},
	} {
		for _, strategy := range []core.Strategy{core.StrategyCostBased, core.StrategySimple} {
			got, _, err := fx.Fed.QueryMetered(ctx, tc.sql, strategy)
			if err != nil {
				t.Fatalf("%s: %v", tc.sql, err)
			}
			if len(got.Rows) != tc.rows {
				t.Fatalf("%s (%v): %d rows, want %d: %v", tc.sql, strategy, len(got.Rows), tc.rows, got.Rows)
			}
			if err := oracle.Check(ctx, tc.sql, got); err != nil {
				t.Fatalf("%s (%v): %v", tc.sql, strategy, err)
			}
		}
	}
}
