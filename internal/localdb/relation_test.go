package localdb

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/spill"
	"myriad/internal/sqlparser"
	"myriad/internal/value"
)

// closeCounter is a row stream that records how often it was closed.
type closeCounter struct {
	schema.RowStream
	closes int
}

func (c *closeCounter) Close() error {
	c.closes++
	return c.RowStream.Close()
}

func relFixture() (*schema.Schema, []schema.Row, *schema.Schema, []schema.Row) {
	rs := &schema.Schema{Table: "r", Columns: []schema.Column{
		{Name: "id", Type: schema.TInt}, {Name: "g", Type: schema.TText}, {Name: "v", Type: schema.TFloat},
	}}
	ss := &schema.Schema{Table: "s", Columns: []schema.Column{
		{Name: "g", Type: schema.TText}, {Name: "label", Type: schema.TText},
	}}
	var rRows, sRows []schema.Row
	for i := 0; i < 300; i++ {
		// v arrives as an integer: the relation coerces it to FLOAT the
		// way a heap insert would.
		rRows = append(rRows, schema.Row{value.NewInt(int64(i)), value.NewText(fmt.Sprintf("g%d", i%7)), value.NewInt(int64(i % 11))})
	}
	for i := 0; i < 5; i++ {
		sRows = append(sRows, schema.Row{value.NewText(fmt.Sprintf("g%d", i)), value.NewText(fmt.Sprintf("label %d", i))})
	}
	return rs, rRows, ss, sRows
}

func parseSelect(t *testing.T, sql string) *sqlparser.Select {
	t.Helper()
	st, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sqlparser.Select)
}

func streamOf(sc *schema.Schema, rows []schema.Row) *closeCounter {
	return &closeCounter{RowStream: sliceOf(sc, rows)}
}

func sliceOf(sc *schema.Schema, rows []schema.Row) schema.RowStream {
	cols := make([]string, len(sc.Columns))
	for i, c := range sc.Columns {
		cols[i] = c.Name
	}
	return schema.StreamOf(&schema.ResultSet{Columns: cols, Rows: rows})
}

// TestQueryRelationsMatchesHeapTables: a residual compiled against
// stream relations answers exactly what the same SQL answers over heap
// tables holding the same rows in the same order — joins, grouping,
// DISTINCT and stable ORDER BY ties included, in memory and spilling.
func TestQueryRelationsMatchesHeapTables(t *testing.T) {
	ctx := context.Background()
	rs, rRows, ss, sRows := relFixture()
	heap := NewScratch(nil)
	for _, tb := range []struct {
		sc   *schema.Schema
		rows []schema.Row
	}{{rs, rRows}, {ss, sRows}} {
		if err := heap.CreateTableDirect(tb.sc); err != nil {
			t.Fatal(err)
		}
		if err := heap.Load(tb.sc.Table, tb.rows); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		`SELECT id, v FROM r ORDER BY v`,
		`SELECT id + 0 AS id, g FROM r WHERE v > 3 ORDER BY g DESC LIMIT 17 OFFSET 3`,
		`SELECT DISTINCT g, v FROM r`,
		`SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g ORDER BY g`,
		`SELECT r.id, s.label FROM r, s WHERE r.g = s.g ORDER BY s.label, r.id`,
		`SELECT s.label, COUNT(*) FROM s JOIN r ON r.g = s.g GROUP BY s.label ORDER BY s.label`,
		`SELECT r.id, s.label FROM r LEFT JOIN s ON r.g = s.g WHERE r.id < 20 ORDER BY r.id`,
	}
	for _, sql := range queries {
		want, err := heap.Query(ctx, sql)
		if err != nil {
			t.Fatalf("%s: heap: %v", sql, err)
		}
		for _, budget := range []*spill.Budget{nil, spill.NewBudget(512, t.TempDir())} {
			rStream, sStream := streamOf(rs, rRows), streamOf(ss, sRows)
			rows, err := QueryRelations(ctx, parseSelect(t, sql), []*StreamRelation{
				NewStreamRelation(rs, 300, rStream), NewStreamRelation(ss, 5, sStream),
			}, budget)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			got, err := schema.DrainStream(ctx, rows)
			rows.Close()
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if fmt.Sprint(got.Columns) != fmt.Sprint(want.Columns) || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				t.Fatalf("%s (budget %d):\n got %v %v\nwant %v %v", sql, budget.Limit(), got.Columns, got.Rows, want.Columns, want.Rows)
			}
			if rStream.closes != 1 || sStream.closes != 1 {
				t.Fatalf("%s: streams closed %d and %d times, want once each", sql, rStream.closes, sStream.closes)
			}
		}
	}
}

// TestStreamRelationReadOnce: a relation the residual names twice
// cannot be read twice — the compile fails instead of the second read
// coming back empty — and every stream is closed all the same.
func TestStreamRelationReadOnce(t *testing.T) {
	rs, rRows, ss, sRows := relFixture()
	rStream, sStream := streamOf(rs, rRows), streamOf(ss, sRows)
	_, err := QueryRelations(context.Background(), parseSelect(t, `SELECT a.id FROM r a, r b WHERE a.id = b.id`),
		[]*StreamRelation{NewStreamRelation(rs, 300, rStream), NewStreamRelation(ss, 5, sStream)}, nil)
	if err == nil || !strings.Contains(err.Error(), "read twice") {
		t.Fatalf("self-join over one stream relation: err = %v", err)
	}
	if rStream.closes != 1 || sStream.closes != 1 {
		t.Fatalf("failed compile closed the streams %d and %d times, want once each", rStream.closes, sStream.closes)
	}
}

// TestStreamRelationLimitClosesEarly: a satisfied LIMIT stops pulling
// the stream — the residual reads only what it returns.
func TestStreamRelationLimitClosesEarly(t *testing.T) {
	ctx := context.Background()
	rs, rRows, _, _ := relFixture()
	pulled := &pullCounter{RowStream: sliceOf(rs, rRows)}
	rows, err := QueryRelations(ctx, parseSelect(t, `SELECT id * 2 FROM r LIMIT 5`),
		[]*StreamRelation{NewStreamRelation(rs, 300, pulled)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := schema.DrainStream(ctx, rows)
	rows.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 5 || pulled.n > 5 {
		t.Fatalf("LIMIT 5 returned %d rows after %d pulls", len(got.Rows), pulled.n)
	}
}

type pullCounter struct {
	schema.RowStream
	n int
}

func (p *pullCounter) Next(ctx context.Context) (schema.Row, error) {
	p.n++
	return p.RowStream.Next(ctx)
}
