package gateway

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"myriad/internal/dialect"
	"myriad/internal/sqlparser"
)

// roundTrip is the gateway's front half without the shape cache:
// parse, translate, render in the dialect, re-parse.
func roundTrip(t *testing.T, g *Gateway, sql string) string {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	translated, err := g.translateSelect(stmt.(*sqlparser.Select))
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := g.dialect.Parse(g.dialect.Render(translated))
	if err != nil {
		t.Fatal(err)
	}
	return sqlparser.FormatStatement(reparsed, nil)
}

// TestBoundTemplateMatchesRoundTrip: at every dialect, the bound
// translation of a shape prints exactly as the statement's own parse →
// translate → render → re-parse does, on a miss and on a hit.
func TestBoundTemplateMatchesRoundTrip(t *testing.T) {
	stmts := []string{
		`SELECT id, name FROM STUDENT WHERE id = 2`,
		`SELECT id, name FROM STUDENT WHERE id = -2 OR gpa > -3.5 OR gpa < 1e3`,
		`SELECT name || '''s' AS n FROM STUDENT WHERE name LIKE 'a%' AND name <> 'it''s'`,
		`SELECT * FROM STUDENT WHERE id IN (1, 3, -7) AND gpa BETWEEN 2.5 AND 4 ORDER BY gpa DESC LIMIT 2 OFFSET 1`,
		`SELECT s.id, t.name FROM STUDENT s JOIN STUDENT t ON s.id = t.id + 0 WHERE s.gpa >= 3 AND TRUE`,
		`SELECT COUNT(*), MAX(gpa) FROM STUDENT WHERE name IS NOT NULL GROUP BY id HAVING COUNT(*) > 0`,
		`SELECT id FROM STUDENT WHERE gpa > 3 UNION ALL SELECT sid FROM HONORS WHERE sid < 10 ORDER BY sid`,
		`SELECT CASE WHEN gpa > 3 THEN 'hi' ELSE 'lo' END, - -id, 9223372036854775808 FROM STUDENT WHERE NOT id = 1`,
	}
	for _, d := range []*dialect.Dialect{dialect.Canonical(), dialect.Oracle(), dialect.Postgres()} {
		g, _ := testGateway(t, d)
		if err := g.DefineExport(Export{Name: "HONORS", LocalTable: "students", Predicate: "gpa > 3.5 AND sname <> 'x'"}); err != nil {
			t.Fatal(err)
		}
		for _, sql := range stmts {
			want := roundTrip(t, g, sql)
			for pass := 0; pass < 2; pass++ {
				_, relSel, err := g.prepareSelect(sql)
				if err != nil {
					t.Fatalf("%s: %s: %v", d.Name, sql, err)
				}
				if got := sqlparser.FormatStatement(relSel, nil); got != want {
					t.Fatalf("%s pass %d: %s\n got: %s\nwant: %s", d.Name, pass, sql, got, want)
				}
			}
		}
	}
}

// TestShapeCacheCountsAndRedefinition: one shape with different
// literals is one miss, then hits; DefineExport retires the
// translation, so the next execution reads the new mapping exactly as
// a fresh gateway does.
func TestShapeCacheCountsAndRedefinition(t *testing.T) {
	ctx := context.Background()
	g, db := testGateway(t, dialect.Postgres())
	st := g.ShapeCacheStats()
	for i := 0; i < 100; i++ {
		rs, err := query(ctx, g, 0, fmt.Sprintf(`SELECT name FROM STUDENT WHERE id = %d`, i%3+1))
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 1 {
			t.Fatalf("id %d: %d rows", i%3+1, len(rs.Rows))
		}
	}
	if h, m := st.Hits.Load(), st.Misses.Load(); h != 99 || m != 1 {
		t.Fatalf("hits %d misses %d, want 99 and 1", h, m)
	}

	redefined := Export{Name: "STUDENT", LocalTable: "students", Columns: []ExportColumn{
		{Export: "id", Local: "yr"}, {Export: "name", Local: "sname"}}}
	if err := g.DefineExport(redefined); err != nil {
		t.Fatal(err)
	}
	fresh := New("east", db, dialect.Postgres())
	if err := fresh.DefineExport(redefined); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT name FROM STUDENT WHERE id = 3`
	got, err := query(ctx, g, 0, sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := query(ctx, fresh, 0, sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0][0].Text() != "cy" || want.Rows[0][0].Text() != "cy" {
		t.Fatalf("after DefineExport: got %v, fresh gateway %v, want [cy]", got.Rows, want.Rows)
	}
	if m := st.Misses.Load(); m != 2 {
		t.Fatalf("misses %d after DefineExport, want 2", m)
	}
}

// TestShapeCacheConcurrentLiterals runs one shape from 8 goroutines with
// different literals and checks every answer (run under -race).
func TestShapeCacheConcurrentLiterals(t *testing.T) {
	ctx := context.Background()
	g, _ := testGateway(t, dialect.Oracle())
	names := map[int]string{1: "ann", 2: "bo", 3: "cy"}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := (w+i)%4 + 1 // id 4 matches nothing
				rs, err := query(ctx, g, 0, fmt.Sprintf(`SELECT id, name FROM STUDENT WHERE id = %d AND name <> 'zz'`, id))
				if err != nil {
					errs <- err
					return
				}
				want, ok := names[id]
				if ok != (len(rs.Rows) == 1) || (ok && (rs.Rows[0][1].Text() != want || rs.Rows[0][0].Text() != fmt.Sprint(id))) {
					errs <- fmt.Errorf("id %d: rows %v", id, rs.Rows)
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
