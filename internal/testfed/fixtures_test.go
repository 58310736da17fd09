package testfed

import (
	"context"
	"testing"
	"time"

	"myriad/internal/catalog"
	"myriad/internal/executor"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/planner"
	"myriad/internal/schema"
	"myriad/internal/value"
)

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

const createT = `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`

// genRows builds n (id, v) rows with ids starting at base and a small
// repeating v domain (for aggregates and duplicate-heavy unions).
func genRows(base, n int) []schema.Row {
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{value.NewInt(int64(base + i)), value.NewInt(int64(i % 97))}
	}
	return rows
}

// unionDef integrates sites' T exports as R(id, v) with the given
// combinator.
func unionDef(kind integration.CombineKind, sites ...string) *catalog.IntegratedDef {
	def := &catalog.IntegratedDef{
		Name: "R",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "v", Type: schema.TInt},
		},
		Key:     []string{"id"},
		Combine: kind,
	}
	for _, s := range sites {
		def.Sources = append(def.Sources, catalog.SourceDef{
			Site: s, Export: "T", ColumnMap: map[string]string{"id": "id", "v": "v"},
		})
	}
	return def
}

// twoSiteUnion boots sites a and b with rowsA/rowsB rows each,
// integrated as R = a.T UNION ALL b.T; site b is optionally faulty.
func twoSiteUnion(t testing.TB, kind integration.CombineKind, rowsA, rowsB int, faultyB bool, timeout time.Duration) *Fixture {
	return twoSiteUnionFaults(t, kind, rowsA, rowsB, false, faultyB, timeout)
}

// twoSiteUnionFaults is twoSiteUnion with either site routable through
// a fault proxy — faults on site a (source index 0) are what expose
// source-order head-of-line blocking.
func twoSiteUnionFaults(t testing.TB, kind integration.CombineKind, rowsA, rowsB int, faultyA, faultyB bool, timeout time.Duration) *Fixture {
	t.Helper()
	specs := []SiteSpec{
		{Name: "a", Setup: []string{createT},
			Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}, Faulty: faultyA, Timeout: timeout},
		{Name: "b", Setup: []string{createT},
			Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}, Faulty: faultyB, Timeout: timeout},
	}
	fx := New(t, specs, []*catalog.IntegratedDef{unionDef(kind, "a", "b")})
	fx.LoadRows(t, "a", "t", genRows(0, rowsA))
	fx.LoadRows(t, "b", "t", genRows(1_000_000, rowsB))
	return fx
}
