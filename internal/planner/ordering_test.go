package planner

import (
	"slices"
	"strings"
	"testing"

	"myriad/internal/catalog"
	"myriad/internal/integration"
	"myriad/internal/schema"
)

// TestScanOrderingAnnotation: the pushed-down ORDER BY is declared as
// per-source stream ordering (in schema column indexes) exactly when
// every key is a plain column of the scan set.
func TestScanOrderingAnnotation(t *testing.T) {
	p := New(testCatalog(t), nil)

	// Multi-source top-K pushdown: every source ships sorted.
	plan := mustPlan(t, p, `SELECT id, name FROM S ORDER BY name DESC, id LIMIT 5`, CostBased)
	ss := plan.ScanSets[0]
	// Needed columns are [id, name] in integrated definition order.
	want := []schema.SortKey{{Col: 1, Desc: true}, {Col: 0}}
	if len(ss.ScanOrdering) != len(want) {
		t.Fatalf("ScanOrdering = %v, want %v", ss.ScanOrdering, want)
	}
	for i := range want {
		if ss.ScanOrdering[i] != want[i] {
			t.Fatalf("ScanOrdering = %v, want %v", ss.ScanOrdering, want)
		}
	}

	// Single-source exact pushdown also records the ordering.
	plan = mustPlan(t, p, `SELECT sid FROM E ORDER BY sid LIMIT 3`, CostBased)
	if got := plan.ScanSets[0].ScanOrdering; len(got) != 1 || got[0] != (schema.SortKey{Col: 0}) {
		t.Fatalf("single-source ScanOrdering = %v", got)
	}

	// No ORDER BY: pushdown happens, ordering does not.
	plan = mustPlan(t, p, `SELECT id FROM S LIMIT 5`, CostBased)
	if got := plan.ScanSets[0].ScanOrdering; got != nil {
		t.Fatalf("orderless LIMIT claimed ordering %v", got)
	}

	// Simple strategy never pushes, never orders.
	plan = mustPlan(t, p, `SELECT id FROM S ORDER BY id LIMIT 5`, Simple)
	if got := plan.ScanSets[0].ScanOrdering; got != nil {
		t.Fatalf("simple strategy claimed ordering %v", got)
	}

	// An expression key disables the annotation (the merge cannot
	// compare what the shipped rows do not carry as a column).
	plan = mustPlan(t, p, `SELECT id, gpa FROM S ORDER BY gpa + 1 LIMIT 5`, CostBased)
	if got := plan.ScanSets[0].ScanOrdering; got != nil {
		t.Fatalf("expression ORDER BY claimed ordering %v", got)
	}
}

// TestTopKOrderShipsOnlyAlikeKeys: a top-K ORDER BY ships to every
// source scan, and the scan set declares the ordering, only when each
// key is a column every source stores with the integrated column's
// type; a site picking its candidates by another order returns the
// wrong ones. A bare ORDER BY stays at the coordinator.
func TestTopKOrderShipsOnlyAlikeKeys(t *testing.T) {
	cat := testCatalog(t)
	// K reads STUDENT at both sites with keys whose source columns are
	// of another type (code: TEXT under INTEGER at east; score: FLOAT
	// under INTEGER) or computed (twice).
	err := cat.Define(&catalog.IntegratedDef{
		Name: "K",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt}, {Name: "code", Type: schema.TInt},
			{Name: "score", Type: schema.TInt}, {Name: "twice", Type: schema.TInt},
		},
		Combine: integration.UnionAll,
		Sources: []catalog.SourceDef{
			{Site: "east", Export: "STUDENT", ColumnMap: map[string]string{"id": "id", "code": "name", "score": "gpa", "twice": "id * 2"}},
			{Site: "west", Export: "STUDENT", ColumnMap: map[string]string{"id": "id", "code": "id", "score": "gpa", "twice": "id * 2"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := New(cat, nil)

	plan := mustPlan(t, p, `SELECT id, name FROM S WHERE gpa > 2 ORDER BY name DESC, id LIMIT 5`, CostBased)
	ss := plan.ScanSets[0]
	if want := []schema.SortKey{{Col: 1, Desc: true}, {Col: 0}}; !slices.Equal(ss.ScanOrdering, want) {
		t.Fatalf("ScanOrdering = %v, want %v", ss.ScanOrdering, want)
	}
	for _, sc := range ss.Scans {
		if sql := sc.SQL(); !strings.Contains(sql, "ORDER BY name DESC, id") {
			t.Fatalf("scan at %s: %s", sc.Site, sql)
		}
	}

	for _, c := range []struct {
		sql string
		why string
	}{
		{`SELECT id, name FROM S ORDER BY name`, "no LIMIT"},
		{`SELECT id FROM K ORDER BY code LIMIT 3`, "TEXT under INTEGER"},
		{`SELECT id FROM K ORDER BY score DESC LIMIT 3`, "FLOAT under INTEGER"},
		{`SELECT id FROM K ORDER BY twice LIMIT 3`, "mapped expression"},
		{`SELECT id FROM K ORDER BY twice + 1 LIMIT 3`, "expression over a mapped expression"},
		{`SELECT name, id FROM S ORDER BY 1 LIMIT 3`, "ordinal"},
	} {
		plan := mustPlan(t, p, c.sql, CostBased)
		for _, ss := range plan.ScanSets {
			if ss.ScanOrdering != nil || strings.Contains(scanSQL(plan), "ORDER BY") {
				t.Errorf("%s: ORDER BY shipped (%v):\n%s", c.why, ss.ScanOrdering, scanSQL(plan))
			}
		}
	}
}
