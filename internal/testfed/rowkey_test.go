package testfed

import (
	"context"
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
