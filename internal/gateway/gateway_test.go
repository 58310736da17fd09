package gateway

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"myriad/internal/comm"
	"myriad/internal/dialect"
	"myriad/internal/localdb"
	"myriad/internal/schema"
)

// query runs sql through QueryStream — the only query entry point of a
// Gateway or a Conn — and materializes the result.
func query(ctx context.Context, q interface {
	QueryStream(context.Context, uint64, string) (schema.RowStream, error)
}, txn uint64, sql string) (*schema.ResultSet, error) {
	rows, err := q.QueryStream(ctx, txn, sql)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	return schema.DrainStream(ctx, rows)
}

func testGateway(t *testing.T, d *dialect.Dialect) (*Gateway, *localdb.DB) {
	t.Helper()
	db := localdb.New("east")
	db.MustExec(`CREATE TABLE students (sid INTEGER PRIMARY KEY, sname TEXT NOT NULL, gpa FLOAT, yr INTEGER)`)
	db.MustExec(`INSERT INTO students VALUES (1, 'ann', 3.9, 1), (2, 'bo', 3.1, 2), (3, 'cy', 2.5, 3)`)
	db.MustExec(`CREATE TABLE secrets (id INTEGER PRIMARY KEY, code TEXT)`)
	g := New("east", db, d)
	if err := g.DefineExport(Export{
		Name: "STUDENT", LocalTable: "students",
		Columns: []ExportColumn{
			{Export: "id", Local: "sid"},
			{Export: "name", Local: "sname"},
			{Export: "gpa", Local: "gpa"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return g, db
}

func TestExportSchemas(t *testing.T) {
	g, _ := testGateway(t, dialect.Oracle())
	scs, err := g.ExportSchemas()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 {
		t.Fatalf("%d exports", len(scs))
	}
	sc := scs[0]
	if sc.Table != "STUDENT" || len(sc.Columns) != 3 {
		t.Fatalf("schema: %v", sc)
	}
	if sc.ColIndex("name") != 1 {
		t.Error("renamed column missing")
	}
	// yr is not exported.
	if sc.ColIndex("yr") != -1 {
		t.Error("unexported column leaked")
	}
	// Key carries through the rename.
	if len(sc.Key) != 1 || sc.Key[0] != "id" {
		t.Errorf("export key: %v", sc.Key)
	}
}

func TestExportValidation(t *testing.T) {
	g, _ := testGateway(t, nil)
	if err := g.DefineExport(Export{Name: "", LocalTable: "students"}); err == nil {
		t.Error("nameless export accepted")
	}
	if err := g.DefineExport(Export{Name: "X", LocalTable: "ghost"}); err == nil {
		t.Error("export of missing table accepted")
	}
	if err := g.DefineExport(Export{Name: "X", LocalTable: "students",
		Columns: []ExportColumn{{Export: "a", Local: "ghost"}}}); err == nil {
		t.Error("export of missing column accepted")
	}
	if err := g.DefineExport(Export{Name: "X", LocalTable: "students", Predicate: "gpa >"}); err == nil {
		t.Error("bad predicate accepted")
	}
}

func TestQueryTranslation(t *testing.T) {
	for _, d := range []*dialect.Dialect{dialect.Oracle(), dialect.Postgres(), dialect.Canonical()} {
		g, _ := testGateway(t, d)
		ctx := context.Background()

		rs, err := query(ctx, g, 0, `SELECT name FROM STUDENT WHERE id = 2`)
		if err != nil {
			t.Fatalf("[%s] %v", d.Name, err)
		}
		if len(rs.Rows) != 1 || rs.Rows[0][0].Text() != "bo" {
			t.Errorf("[%s] point query: %v", d.Name, rs.Rows)
		}
		// Output headers use export names.
		if rs.Columns[0] != "name" {
			t.Errorf("[%s] header: %v", d.Name, rs.Columns)
		}

		rs, err = query(ctx, g, 0, `SELECT * FROM STUDENT ORDER BY gpa DESC LIMIT 2`)
		if err != nil {
			t.Fatalf("[%s] star: %v", d.Name, err)
		}
		if len(rs.Rows) != 2 || rs.Columns[0] != "id" || rs.Rows[0][1].Text() != "ann" {
			t.Errorf("[%s] star+limit: %v %v", d.Name, rs.Columns, rs.Rows)
		}

		rs, err = query(ctx, g, 0, `SELECT COUNT(*) AS n, ROUND(AVG(gpa), 2) AS avg FROM STUDENT WHERE gpa > 3`)
		if err != nil {
			t.Fatalf("[%s] agg: %v", d.Name, err)
		}
		if rs.Rows[0][0].Text() != "2" || rs.Rows[0][1].Text() != "3.5" {
			t.Errorf("[%s] agg: %v", d.Name, rs.Rows)
		}

		// Self-join through aliases.
		rs, err = query(ctx, g, 0, `SELECT a.name, b.name FROM STUDENT a JOIN STUDENT b ON a.id = b.id - 1 WHERE a.id = 1`)
		if err != nil {
			t.Fatalf("[%s] join: %v", d.Name, err)
		}
		if len(rs.Rows) != 1 || rs.Rows[0][1].Text() != "bo" {
			t.Errorf("[%s] join: %v", d.Name, rs.Rows)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	g, _ := testGateway(t, dialect.Oracle())
	ctx := context.Background()
	if _, err := query(ctx, g, 0, `SELECT x FROM GHOST`); err == nil {
		t.Error("unknown export accepted")
	}
	if _, err := query(ctx, g, 0, `SELECT ghost FROM STUDENT`); err == nil {
		t.Error("unknown export column accepted")
	}
	if _, err := query(ctx, g, 0, `SELECT yr FROM STUDENT`); err == nil {
		t.Error("unexported column accessible")
	}
	if _, err := query(ctx, g, 0, `UPDATE STUDENT SET gpa = 4`); err == nil {
		t.Error("Query accepted DML")
	}
	if _, err := query(ctx, g, 99, `SELECT name FROM STUDENT`); err == nil {
		t.Error("unknown txn accepted")
	}
}

func TestPredicatedExport(t *testing.T) {
	g, db := testGateway(t, dialect.Postgres())
	ctx := context.Background()
	if err := g.DefineExport(Export{
		Name: "HONOR_STUDENT", LocalTable: "students",
		Columns:   []ExportColumn{{Export: "id", Local: "sid"}, {Export: "name", Local: "sname"}},
		Predicate: `gpa >= 3.5`,
	}); err != nil {
		t.Fatal(err)
	}
	rs, err := query(ctx, g, 0, `SELECT name FROM HONOR_STUDENT`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Text() != "ann" {
		t.Errorf("predicate not applied: %v", rs.Rows)
	}
	// Predicated exports are read-only.
	if _, err := g.Exec(ctx, 0, `DELETE FROM HONOR_STUDENT`); err == nil {
		t.Error("write to predicated export accepted")
	}
	// The predicate applies per-alias in joins.
	rs, err = query(ctx, g, 0, `SELECT COUNT(*) FROM HONOR_STUDENT h JOIN STUDENT s ON h.id = s.id`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Text() != "1" {
		t.Errorf("join with predicated export: %v", rs.Rows)
	}
	_ = db
}

func TestExecTranslation(t *testing.T) {
	g, db := testGateway(t, dialect.Oracle())
	ctx := context.Background()

	n, err := g.Exec(ctx, 0, `INSERT INTO STUDENT (id, name, gpa) VALUES (9, 'zed', 2.0)`)
	if err != nil || n != 1 {
		t.Fatalf("insert: %d %v", n, err)
	}
	rs, _ := db.Query(ctx, `SELECT sname FROM students WHERE sid = 9`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Text() != "zed" {
		t.Errorf("insert not visible locally: %v", rs.Rows)
	}

	n, err = g.Exec(ctx, 0, `UPDATE STUDENT SET gpa = gpa + 1 WHERE name = 'zed'`)
	if err != nil || n != 1 {
		t.Fatalf("update: %d %v", n, err)
	}
	n, err = g.Exec(ctx, 0, `DELETE FROM STUDENT WHERE id = 9`)
	if err != nil || n != 1 {
		t.Fatalf("delete: %d %v", n, err)
	}
	// NOT NULL column missing -> statement fails cleanly.
	if _, err := g.Exec(ctx, 0, `INSERT INTO STUDENT (id, gpa) VALUES (10, 1.0)`); err == nil {
		t.Error("insert without NOT NULL column accepted")
	}
}

func TestTransactionBranch2PC(t *testing.T) {
	g, db := testGateway(t, dialect.Postgres())
	ctx := context.Background()

	txn, err := g.Begin(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Exec(ctx, txn, `UPDATE STUDENT SET gpa = 0 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	// Not visible outside the branch (the branch holds X locks, so read
	// a different key to avoid blocking).
	rs, _ := db.Query(ctx, `SELECT gpa FROM students WHERE sid = 2`)
	if rs.Rows[0][0].Text() != "3.1" {
		t.Error("unrelated row changed")
	}
	if err := g.Prepare(ctx, txn); err != nil {
		t.Fatal(err)
	}
	if err := g.Commit(ctx, txn); err != nil {
		t.Fatal(err)
	}
	rs, _ = db.Query(ctx, `SELECT gpa FROM students WHERE sid = 1`)
	if rs.Rows[0][0].Text() != "0" {
		t.Error("prepared commit lost")
	}

	// Abort path.
	txn2, _ := g.Begin(ctx, 0)
	if _, err := g.Exec(ctx, txn2, `DELETE FROM STUDENT WHERE id = 2`); err != nil {
		t.Fatal(err)
	}
	if err := g.Abort(ctx, txn2); err != nil {
		t.Fatal(err)
	}
	rs, _ = db.Query(ctx, `SELECT COUNT(*) FROM students`)
	if rs.Rows[0][0].Text() != "3" {
		t.Error("abort did not restore row")
	}
	// Abort is idempotent, even for unknown branches.
	if err := g.Abort(ctx, txn2); err != nil {
		t.Error(err)
	}
	if err := g.Abort(ctx, 424242); err != nil {
		t.Error(err)
	}
}

func TestTimeoutMapsToErrTimeout(t *testing.T) {
	g, db := testGateway(t, nil)
	ctx := context.Background()

	// A local transaction holds the lock...
	blocker := db.Begin()
	if _, err := blocker.Exec(ctx, `UPDATE students SET gpa = 1 WHERE sid = 1`); err != nil {
		t.Fatal(err)
	}
	defer blocker.Rollback()

	// ...and the gateway's default timeout fires.
	g.DefaultTimeout = 30 * time.Millisecond
	txn, _ := g.Begin(ctx, 0)
	_, err := g.Exec(ctx, txn, `UPDATE STUDENT SET gpa = 2 WHERE id = 1`)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if err := g.Abort(ctx, txn); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	g, _ := testGateway(t, nil)
	ts, err := g.Stats("STUDENT")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Table != "STUDENT" || ts.Rows != 3 {
		t.Errorf("stats: %+v", ts)
	}
	// Columns renamed to export names; unexported ones absent.
	if _, ok := ts.Col("name"); !ok {
		t.Error("no stats for renamed column")
	}
	if _, ok := ts.Col("yr"); ok {
		t.Error("stats leaked for unexported column")
	}
	if _, err := g.Stats("GHOST"); err == nil {
		t.Error("stats for unknown export")
	}
}

func TestHandleProtocol(t *testing.T) {
	g, _ := testGateway(t, dialect.Oracle())
	ctx := context.Background()

	resp := g.Handle(ctx, &comm.Request{Op: comm.OpPing})
	if resp.AsError() != nil {
		t.Fatal(resp.AsError())
	}
	resp = g.Handle(ctx, &comm.Request{Op: comm.OpSchema})
	if len(resp.Schemas) != 1 {
		t.Errorf("schemas: %v", resp.Schemas)
	}
	// Queries only ever stream (HandleStream); Handle refuses them.
	resp = g.Handle(ctx, &comm.Request{Op: comm.OpQuery, SQL: `SELECT name FROM STUDENT WHERE id = 1`})
	if resp.AsError() == nil {
		t.Errorf("Handle served a query: %v", resp.Rows)
	}
	resp = g.Handle(ctx, &comm.Request{Op: comm.OpStats, Table: "STUDENT"})
	if resp.Stats == nil || resp.Stats.Rows != 3 {
		t.Errorf("stats: %+v", resp.Stats)
	}
	resp = g.Handle(ctx, &comm.Request{Op: "bogus"})
	if resp.AsError() == nil {
		t.Error("bogus op accepted")
	}

	// Full txn cycle through the protocol.
	resp = g.Handle(ctx, &comm.Request{Op: comm.OpBegin})
	txn := resp.TxnID
	resp = g.Handle(ctx, &comm.Request{Op: comm.OpExec, TxnID: txn, SQL: `UPDATE STUDENT SET gpa = 4 WHERE id = 3`})
	if resp.AsError() != nil || resp.Affected != 1 {
		t.Fatalf("exec: %v %d", resp.Err, resp.Affected)
	}
	resp = g.Handle(ctx, &comm.Request{Op: comm.OpPrepare, TxnID: txn})
	if resp.AsError() != nil {
		t.Fatal(resp.AsError())
	}
	resp = g.Handle(ctx, &comm.Request{Op: comm.OpCommit, TxnID: txn})
	if resp.AsError() != nil {
		t.Fatal(resp.AsError())
	}
}

func TestRemoteConnOverTCP(t *testing.T) {
	g, _ := testGateway(t, dialect.Postgres())
	srv := comm.NewServer(g)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck

	conn := DialRemote("east", addr, 2)
	defer conn.Close() //nolint:errcheck
	ctx := context.Background()

	scs, err := conn.ExportSchemas(ctx)
	if err != nil || len(scs) != 1 {
		t.Fatalf("schemas over TCP: %v %v", scs, err)
	}
	rs, err := query(ctx, conn, 0, `SELECT name FROM STUDENT ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 || rs.Rows[0][0].Text() != "ann" {
		t.Errorf("rows over TCP: %v", rs.Rows)
	}
	ts, err := conn.Stats(ctx, "STUDENT")
	if err != nil || ts.Rows != 3 {
		t.Errorf("stats over TCP: %+v %v", ts, err)
	}

	// Distributed txn branch over TCP.
	txn, err := conn.Begin(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(ctx, txn, `UPDATE STUDENT SET gpa = 1.1 WHERE id = 2`); err != nil {
		t.Fatal(err)
	}
	// A branch read streams over TCP and sees the branch's own write.
	rs, err = query(ctx, conn, txn, `SELECT gpa FROM STUDENT WHERE id = 2`)
	if err != nil || rs.Rows[0][0].Text() != "1.1" {
		t.Errorf("branch read over TCP: %v %v", rs, err)
	}
	if err := conn.Prepare(ctx, txn); err != nil {
		t.Fatal(err)
	}
	if err := conn.Commit(ctx, txn); err != nil {
		t.Fatal(err)
	}
	rs, err = query(ctx, conn, 0, `SELECT gpa FROM STUDENT WHERE id = 2`)
	if err != nil || rs.Rows[0][0].Text() != "1.1" {
		t.Errorf("committed value over TCP: %v %v", rs.Rows, err)
	}

	// Timeout classification crosses the wire.
	g.DefaultTimeout = 30 * time.Millisecond
	blockTxn, _ := conn.Begin(ctx, 0)
	if _, err := conn.Exec(ctx, blockTxn, `UPDATE STUDENT SET gpa = 9 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	other, _ := conn.Begin(ctx, 0)
	_, err = conn.Exec(ctx, other, `UPDATE STUDENT SET gpa = 8 WHERE id = 1`)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("timeout over TCP: %v", err)
	}
	conn.Abort(ctx, blockTxn) //nolint:errcheck
	conn.Abort(ctx, other)    //nolint:errcheck
}

func TestDialectRoundTripPreservesStrings(t *testing.T) {
	g, _ := testGateway(t, dialect.Oracle())
	ctx := context.Background()
	if _, err := g.Exec(ctx, 0, `INSERT INTO STUDENT (id, name, gpa) VALUES (20, 'o''brien', 3.0)`); err != nil {
		t.Fatal(err)
	}
	rs, err := query(ctx, g, 0, `SELECT name FROM STUDENT WHERE id = 20`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Text() != "o'brien" {
		t.Errorf("quote mangled in translation: %q", rs.Rows[0][0].Text())
	}
	if !strings.Contains(g.Dialect(), "oracle") {
		t.Errorf("dialect name: %s", g.Dialect())
	}
}

func TestQueryLimitPushdownAcrossDialects(t *testing.T) {
	// ORDER BY + LIMIT must survive translation and the dialect round
	// trip (LIMIT/OFFSET vs FETCH FIRST) so the component engine's
	// top-K executor sees the bound instead of sorting everything and
	// truncating at the federation.
	for _, d := range []*dialect.Dialect{dialect.Canonical(), dialect.Postgres(), dialect.Oracle()} {
		g, _ := testGateway(t, d)
		ctx := context.Background()
		rs, err := query(ctx, g, 0, `SELECT name FROM STUDENT ORDER BY gpa DESC LIMIT 2`)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if len(rs.Rows) != 2 {
			t.Fatalf("%s: got %d rows, want 2 (limit lost in round trip)", d.Name, len(rs.Rows))
		}
		if rs.Rows[0][0].Text() != "ann" || rs.Rows[1][0].Text() != "bo" {
			t.Errorf("%s: top-2 order wrong: %v", d.Name, rs.Rows)
		}
		// OFFSET too.
		rs, err = query(ctx, g, 0, `SELECT name FROM STUDENT ORDER BY gpa DESC LIMIT 2 OFFSET 1`)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if len(rs.Rows) != 2 || rs.Rows[0][0].Text() != "bo" || rs.Rows[1][0].Text() != "cy" {
			t.Errorf("%s: offset window wrong: %v", d.Name, rs.Rows)
		}
	}
}
