package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"myriad/internal/catalog"
	"myriad/internal/dialect"
	"myriad/internal/gateway"
	"myriad/internal/gtm"
	"myriad/internal/integration"
	"myriad/internal/localdb"
	"myriad/internal/schema"
)

// buildUniversity assembles the canonical two-campus test federation:
// an Oracle-like site with students/employees and a Postgres-like site
// with its own student body, integrated via union-all and outer-merge.
func buildUniversity(t testing.TB) (*Federation, *localdb.DB, *localdb.DB) {
	t.Helper()

	east := localdb.New("east")
	east.MustExec(`CREATE TABLE students (sid INTEGER PRIMARY KEY, sname TEXT NOT NULL, gpa FLOAT, yr INTEGER)`)
	east.MustExec(`INSERT INTO students VALUES
		(1, 'ann', 3.9, 1), (2, 'bo', 3.1, 2), (3, 'cy', 2.5, 3), (4, 'di', 3.7, 2)`)
	east.MustExec(`CREATE TABLE courses (cid TEXT PRIMARY KEY, title TEXT, credits INTEGER)`)
	east.MustExec(`INSERT INTO courses VALUES ('db', 'Databases', 4), ('os', 'Systems', 4), ('ai', 'AI', 3)`)

	west := localdb.New("west")
	west.MustExec(`CREATE TABLE pupils (id INTEGER PRIMARY KEY, full_name TEXT NOT NULL, grade FLOAT, level INTEGER)`)
	west.MustExec(`INSERT INTO pupils VALUES
		(101, 'ed', 3.2, 1), (102, 'fay', 3.8, 3), (103, 'gil', 2.9, 2)`)
	west.MustExec(`CREATE TABLE enrolled (id INTEGER, course TEXT, PRIMARY KEY (id, course))`)
	west.MustExec(`INSERT INTO enrolled VALUES (101, 'db'), (102, 'db'), (102, 'ai'), (103, 'os')`)

	gwEast := gateway.New("east", east, dialect.Oracle())
	if err := gwEast.DefineExport(gateway.Export{
		Name: "STUDENT", LocalTable: "students",
		Columns: []gateway.ExportColumn{
			{Export: "id", Local: "sid"},
			{Export: "name", Local: "sname"},
			{Export: "gpa", Local: "gpa"},
			{Export: "year", Local: "yr"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := gwEast.DefineExport(gateway.Export{Name: "COURSE", LocalTable: "courses"}); err != nil {
		t.Fatal(err)
	}

	gwWest := gateway.New("west", west, dialect.Postgres())
	if err := gwWest.DefineExport(gateway.Export{
		Name: "STUDENT", LocalTable: "pupils",
		Columns: []gateway.ExportColumn{
			{Export: "id", Local: "id"},
			{Export: "name", Local: "full_name"},
			{Export: "gpa", Local: "grade"},
			{Export: "year", Local: "level"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := gwWest.DefineExport(gateway.Export{Name: "ENROLLED", LocalTable: "enrolled"}); err != nil {
		t.Fatal(err)
	}

	fed := New("university")
	ctx := context.Background()
	if err := fed.AttachSite(ctx, &gateway.LocalConn{G: gwEast}); err != nil {
		t.Fatal(err)
	}
	if err := fed.AttachSite(ctx, &gateway.LocalConn{G: gwWest}); err != nil {
		t.Fatal(err)
	}

	if err := fed.DefineIntegrated(&catalog.IntegratedDef{
		Name: "ALL_STUDENTS",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "name", Type: schema.TText},
			{Name: "gpa", Type: schema.TFloat},
			{Name: "year", Type: schema.TInt},
			{Name: "campus", Type: schema.TText},
		},
		Key:     []string{"id"},
		Combine: integration.UnionAll,
		Sources: []catalog.SourceDef{
			{Site: "east", Export: "STUDENT", ColumnMap: map[string]string{
				"id": "id", "name": "name", "gpa": "gpa", "year": "year", "campus": "'east'",
			}},
			{Site: "west", Export: "STUDENT", ColumnMap: map[string]string{
				"id": "id", "name": "name", "gpa": "gpa", "year": "year", "campus": "'west'",
			}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := fed.DefineIntegrated(&catalog.IntegratedDef{
		Name: "ENROLLMENT",
		Columns: []schema.Column{
			{Name: "sid", Type: schema.TInt},
			{Name: "course", Type: schema.TText},
		},
		Combine: integration.UnionAll,
		Sources: []catalog.SourceDef{
			{Site: "west", Export: "ENROLLED", ColumnMap: map[string]string{"sid": "id", "course": "course"}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := fed.DefineIntegrated(&catalog.IntegratedDef{
		Name: "COURSES",
		Columns: []schema.Column{
			{Name: "cid", Type: schema.TText},
			{Name: "title", Type: schema.TText},
			{Name: "credits", Type: schema.TInt},
		},
		Key:     []string{"cid"},
		Combine: integration.UnionAll,
		Sources: []catalog.SourceDef{
			{Site: "east", Export: "COURSE", ColumnMap: map[string]string{"cid": "cid", "title": "title", "credits": "credits"}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return fed, east, west
}

func rows(t *testing.T, rs *schema.ResultSet) string {
	t.Helper()
	parts := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.Text()
		}
		parts[i] = strings.Join(cells, ",")
	}
	return strings.Join(parts, ";")
}

func TestGlobalQueryBothStrategies(t *testing.T) {
	fed, _, _ := buildUniversity(t)
	ctx := context.Background()

	queries := []struct {
		sql  string
		want string
	}{
		{`SELECT COUNT(*) FROM ALL_STUDENTS`, "7"},
		{`SELECT name FROM ALL_STUDENTS WHERE gpa >= 3.7 ORDER BY name`, "ann;di;fay"},
		{`SELECT campus, COUNT(*) FROM ALL_STUDENTS GROUP BY campus ORDER BY campus`, "east,4;west,3"},
		{`SELECT s.name, e.course FROM ALL_STUDENTS s JOIN ENROLLMENT e ON s.id = e.sid WHERE e.course = 'db' ORDER BY s.name`,
			"ed;fay"},
		{`SELECT name FROM ALL_STUDENTS WHERE year = 2 ORDER BY gpa DESC LIMIT 1`, "di"},
		{`SELECT ROUND(AVG(gpa), 2) FROM ALL_STUDENTS WHERE campus = 'west'`, "3.3"},
	}
	for _, strat := range []Strategy{StrategySimple, StrategyCostBased} {
		for _, q := range queries {
			rs, _, err := fed.QueryMetered(ctx, q.sql, strat)
			if err != nil {
				t.Fatalf("[%v] %s: %v", strat, q.sql, err)
			}
			got := rows(t, rs)
			// The join query returns two columns; compare only names.
			if strings.Contains(q.sql, "ENROLLMENT") {
				var names []string
				for _, r := range rs.Rows {
					names = append(names, r[0].Text())
				}
				got = strings.Join(names, ";")
			}
			if got != q.want {
				t.Errorf("[%v] %s:\n got %q\nwant %q", strat, q.sql, got, q.want)
			}
		}
	}
}

func TestCostBasedShipsFewerRows(t *testing.T) {
	fed, _, _ := buildUniversity(t)
	ctx := context.Background()
	sql := `SELECT name FROM ALL_STUDENTS WHERE gpa >= 3.7`

	_, mSimple, err := fed.QueryMetered(ctx, sql, StrategySimple)
	if err != nil {
		t.Fatal(err)
	}
	_, mCost, err := fed.QueryMetered(ctx, sql, StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	if mSimple.RowsShipped != 7 {
		t.Errorf("simple shipped %d rows, want 7 (whole relations)", mSimple.RowsShipped)
	}
	if mCost.RowsShipped >= mSimple.RowsShipped {
		t.Errorf("cost-based shipped %d rows, want < %d", mCost.RowsShipped, mSimple.RowsShipped)
	}
	if mCost.RowsShipped != 3 {
		t.Errorf("cost-based shipped %d rows, want 3 (pushed predicate)", mCost.RowsShipped)
	}
}

func TestMergeOuterIntegration(t *testing.T) {
	fed, east, west := buildUniversity(t)
	ctx := context.Background()

	// Same student ids exist at both campuses with conflicting data.
	east.MustExec(`CREATE TABLE person (pid INTEGER PRIMARY KEY, email TEXT, phone TEXT)`)
	east.MustExec(`INSERT INTO person VALUES (1, 'ann@east', NULL), (2, NULL, '555-1'), (3, 'cy@east', '555-3')`)
	west.MustExec(`CREATE TABLE contact (pid INTEGER PRIMARY KEY, email TEXT, phone TEXT)`)
	west.MustExec(`INSERT INTO contact VALUES (1, 'ann@west', '555-9'), (2, 'bo@west', NULL), (4, 'di@west', '555-4')`)

	gwEast, _ := fed.Conn("east")
	gwWest, _ := fed.Conn("west")
	if err := gwEast.(*gateway.LocalConn).G.DefineExport(gateway.Export{Name: "PERSON", LocalTable: "person"}); err != nil {
		t.Fatal(err)
	}
	if err := gwWest.(*gateway.LocalConn).G.DefineExport(gateway.Export{Name: "PERSON", LocalTable: "contact"}); err != nil {
		t.Fatal(err)
	}
	if err := fed.RefreshSite(ctx, "east"); err != nil {
		t.Fatal(err)
	}
	if err := fed.RefreshSite(ctx, "west"); err != nil {
		t.Fatal(err)
	}

	if err := fed.DefineIntegrated(&catalog.IntegratedDef{
		Name: "DIRECTORY",
		Columns: []schema.Column{
			{Name: "pid", Type: schema.TInt},
			{Name: "email", Type: schema.TText},
			{Name: "phone", Type: schema.TText},
		},
		Key:     []string{"pid"},
		Combine: integration.MergeOuter,
		Sources: []catalog.SourceDef{
			{Site: "east", Export: "PERSON", ColumnMap: map[string]string{"pid": "pid", "email": "email", "phone": "phone"}},
			{Site: "west", Export: "PERSON", ColumnMap: map[string]string{"pid": "pid", "email": "email", "phone": "phone"}},
		},
		Resolvers: map[string]string{"email": "first", "phone": "concat"},
	}); err != nil {
		t.Fatal(err)
	}

	rs, err := fed.Query(ctx, `SELECT pid, email, phone FROM DIRECTORY ORDER BY pid`)
	if err != nil {
		t.Fatal(err)
	}
	got := rows(t, rs)
	want := "1,ann@east,555-9;2,bo@west,555-1;3,cy@east,555-3;4,di@west,555-4"
	if got != want {
		t.Errorf("merge-outer:\n got %q\nwant %q", got, want)
	}

	// Key predicates push through MergeOuter under the cost-based plan.
	rs, _, err = fed.QueryMetered(ctx, `SELECT email FROM DIRECTORY WHERE pid = 2`, StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	if rows(t, rs) != "bo@west" {
		t.Errorf("key pushdown result: %q", rows(t, rs))
	}
}

func TestGlobalTransaction2PC(t *testing.T) {
	fed, east, west := buildUniversity(t)
	ctx := context.Background()

	east.MustExec(`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER NOT NULL)`)
	east.MustExec(`INSERT INTO acct VALUES (1, 100), (2, 50)`)
	west.MustExec(`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER NOT NULL)`)
	west.MustExec(`INSERT INTO acct VALUES (7, 10)`)

	ge, _ := fed.Conn("east")
	gw, _ := fed.Conn("west")
	if err := ge.(*gateway.LocalConn).G.DefineExport(gateway.Export{Name: "ACCT", LocalTable: "acct"}); err != nil {
		t.Fatal(err)
	}
	if err := gw.(*gateway.LocalConn).G.DefineExport(gateway.Export{Name: "ACCT", LocalTable: "acct"}); err != nil {
		t.Fatal(err)
	}

	// Committed cross-site transfer.
	err := fed.Transfer(ctx,
		"east", `UPDATE ACCT SET bal = bal - 30 WHERE id = 1`,
		"west", `UPDATE ACCT SET bal = bal + 30 WHERE id = 7`)
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := east.Query(ctx, `SELECT bal FROM acct WHERE id = 1`)
	if rs.Rows[0][0].Text() != "70" {
		t.Errorf("east balance %s, want 70", rs.Rows[0][0].Text())
	}
	rs, _ = west.Query(ctx, `SELECT bal FROM acct WHERE id = 7`)
	if rs.Rows[0][0].Text() != "40" {
		t.Errorf("west balance %s, want 40", rs.Rows[0][0].Text())
	}

	// Aborted transfer rolls back both sites.
	txn := fed.Begin()
	if _, err := txn.ExecSite(ctx, "east", `UPDATE ACCT SET bal = bal - 70 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.ExecSite(ctx, "west", `UPDATE ACCT SET bal = bal + 70 WHERE id = 7`); err != nil {
		t.Fatal(err)
	}
	txn.Abort(ctx)
	rs, _ = east.Query(ctx, `SELECT bal FROM acct WHERE id = 1`)
	if rs.Rows[0][0].Text() != "70" {
		t.Errorf("east balance after abort %s, want 70", rs.Rows[0][0].Text())
	}

	st := fed.Coordinator()
	if got := st.Stats.Committed.Load(); got != 1 {
		t.Errorf("committed %d, want 1", got)
	}
	if got := st.Stats.Aborted.Load(); got != 1 {
		t.Errorf("aborted %d, want 1", got)
	}
}

func TestGlobalDeadlockTimeoutAbort(t *testing.T) {
	fed, east, west := buildUniversity(t)
	ctx := context.Background()
	// This test pins the LAST tier of the deadlock scheme — the lock-wait
	// timeout backstop — so the wound-wait fast path (which would resolve
	// the cycle before any wait parks) is switched off at both sites.
	east.SetWoundWait(false)
	west.SetWoundWait(false)

	east.MustExec(`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER NOT NULL)`)
	east.MustExec(`INSERT INTO acct VALUES (1, 100)`)
	west.MustExec(`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER NOT NULL)`)
	west.MustExec(`INSERT INTO acct VALUES (1, 100)`)
	ge, _ := fed.Conn("east")
	gw, _ := fed.Conn("west")
	if err := ge.(*gateway.LocalConn).G.DefineExport(gateway.Export{Name: "ACCT", LocalTable: "acct"}); err != nil {
		t.Fatal(err)
	}
	if err := gw.(*gateway.LocalConn).G.DefineExport(gateway.Export{Name: "ACCT", LocalTable: "acct"}); err != nil {
		t.Fatal(err)
	}

	fed.SetLocalQueryTimeout(150 * time.Millisecond)

	// T1 locks east.acct#1 then wants west.acct#1; T2 does the reverse:
	// a global deadlock no single site can see.
	t1, t2 := fed.Begin(), fed.Begin()
	if _, err := t1.ExecSite(ctx, "east", `UPDATE ACCT SET bal = bal - 1 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.ExecSite(ctx, "west", `UPDATE ACCT SET bal = bal - 1 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errs[0] = t1.ExecSite(ctx, "west", `UPDATE ACCT SET bal = bal + 1 WHERE id = 1`)
	}()
	go func() {
		defer wg.Done()
		_, errs[1] = t2.ExecSite(ctx, "east", `UPDATE ACCT SET bal = bal + 1 WHERE id = 1`)
	}()
	wg.Wait()

	deadlocked := 0
	for _, err := range errs {
		if errors.Is(err, gtm.ErrDeadlockAbort) {
			deadlocked++
		}
	}
	if deadlocked == 0 {
		t.Fatalf("expected a timeout-aborted transaction, got %v / %v", errs[0], errs[1])
	}
	if fed.Coordinator().Stats.TimeoutAborts.Load() == 0 {
		t.Error("timeout abort not counted")
	}
	// Clean up whichever transaction survived.
	t1.Abort(ctx)
	t2.Abort(ctx)

	// Both sites must be back to their initial balances.
	rs, _ := east.Query(ctx, `SELECT bal FROM acct WHERE id = 1`)
	if rs.Rows[0][0].Text() != "100" {
		t.Errorf("east balance %s after deadlock resolution, want 100", rs.Rows[0][0].Text())
	}
	rs, _ = west.Query(ctx, `SELECT bal FROM acct WHERE id = 1`)
	if rs.Rows[0][0].Text() != "100" {
		t.Errorf("west balance %s after deadlock resolution, want 100", rs.Rows[0][0].Text())
	}
}

func TestExplain(t *testing.T) {
	fed, _, _ := buildUniversity(t)
	out, err := fed.Explain(context.Background(), `SELECT name FROM ALL_STUDENTS WHERE gpa > 3`, StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cost-based") || !strings.Contains(out, "@east") || !strings.Contains(out, "@west") {
		t.Errorf("explain output missing pieces:\n%s", out)
	}
}

func TestUnionQueryAcrossIntegratedRelations(t *testing.T) {
	fed, _, _ := buildUniversity(t)
	rs, err := fed.Query(context.Background(),
		`SELECT name FROM ALL_STUDENTS WHERE year = 1 UNION SELECT title FROM COURSES WHERE credits = 3 ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(t, rs); got != "AI;ann;ed" {
		t.Errorf("union: %q", got)
	}
}
