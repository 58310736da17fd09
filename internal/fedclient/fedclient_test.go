package fedclient_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"myriad/internal/catalog"
	"myriad/internal/comm"
	"myriad/internal/core"
	"myriad/internal/dialect"
	"myriad/internal/fedclient"
	"myriad/internal/fedserver"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/localdb"
	"myriad/internal/schema"
)

// startFederation serves a small two-site federation over TCP and
// returns a connected client.
func startFederation(t *testing.T) (*fedclient.Client, *core.Federation) {
	t.Helper()
	ctx := context.Background()
	fed := core.New("wire")

	for i, site := range []string{"s0", "s1"} {
		db := localdb.New(site)
		db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
		db.MustExec(`INSERT INTO kv VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
		d := dialect.Oracle()
		if i == 1 {
			d = dialect.Postgres()
		}
		gw := gateway.New(site, db, d)
		if err := gw.DefineExport(gateway.Export{Name: "KV", LocalTable: "kv"}); err != nil {
			t.Fatal(err)
		}
		if err := fed.AttachSite(ctx, &gateway.LocalConn{G: gw}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fed.DefineIntegrated(&catalog.IntegratedDef{
		Name: "ALL_KV",
		Columns: []schema.Column{
			{Name: "k", Type: schema.TInt},
			{Name: "v", Type: schema.TText},
			{Name: "site", Type: schema.TText},
		},
		Combine: integration.UnionAll,
		Sources: []catalog.SourceDef{
			{Site: "s0", Export: "KV", ColumnMap: map[string]string{"k": "k", "v": "v", "site": "'s0'"}},
			{Site: "s1", Export: "KV", ColumnMap: map[string]string{"k": "k", "v": "v", "site": "'s1'"}},
		},
	}); err != nil {
		t.Fatal(err)
	}

	srv := comm.NewServer(fedserver.New(fed))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck

	client := fedclient.Dial(addr, 2)
	t.Cleanup(func() { client.Close() }) //nolint:errcheck
	return client, fed
}

func TestPingAndQuery(t *testing.T) {
	client, _ := startFederation(t)
	ctx := context.Background()
	if err := client.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	rs, err := client.Query(ctx, `SELECT COUNT(*) FROM ALL_KV`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Text() != "6" {
		t.Errorf("count = %s", rs.Rows[0][0].Text())
	}
	if _, err := client.Query(ctx, `SELECT broken FROM`); err == nil {
		t.Error("syntax error swallowed")
	}
}

func TestExplainAndCatalog(t *testing.T) {
	client, _ := startFederation(t)
	ctx := context.Background()
	out, err := client.Explain(ctx, `SELECT v FROM ALL_KV WHERE k = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cost-based") {
		t.Errorf("explain: %s", out)
	}
	out, err = client.Explain(ctx, `simple:SELECT v FROM ALL_KV WHERE k = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "simple") {
		t.Errorf("simple explain: %s", out)
	}
	cat, err := client.Catalog(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"federation wire", "site s0", "integrated ALL_KV"} {
		if !strings.Contains(cat, want) {
			t.Errorf("catalog missing %q:\n%s", want, cat)
		}
	}
	scs, err := client.IntegratedSchemas(ctx)
	if err != nil || len(scs) != 1 || scs[0].Table != "ALL_KV" {
		t.Errorf("schemas: %v %v", scs, err)
	}
}

func TestDefineOverWire(t *testing.T) {
	client, _ := startFederation(t)
	ctx := context.Background()
	err := client.Define(ctx, &fedserver.IntegratedDefJSON{
		Name: "KV0",
		Columns: []fedserver.ColumnJSON{
			{Name: "k", Type: "INTEGER"}, {Name: "v", Type: "TEXT"},
		},
		Combine: "union all",
		Sources: []fedserver.SourceJSON{
			{Site: "s0", Export: "KV", Map: map[string]string{"k": "k", "v": "v"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := client.Query(ctx, `SELECT v FROM KV0 WHERE k = 2`)
	if err != nil || rs.Rows[0][0].Text() != "b" {
		t.Errorf("query new relation: %v %v", rs, err)
	}
	// Bad definitions are rejected remotely.
	if err := client.Define(ctx, &fedserver.IntegratedDefJSON{Name: "BAD", Combine: "zap"}); err == nil {
		t.Error("bad combine accepted")
	}

	// Drop over the wire.
	if err := client.Drop(ctx, "KV0"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query(ctx, `SELECT v FROM KV0`); err == nil {
		t.Error("dropped relation still queryable")
	}
	if err := client.Drop(ctx, "KV0"); err == nil {
		t.Error("double drop accepted")
	}
}

func TestGlobalTxnOverWire(t *testing.T) {
	client, fed := startFederation(t)
	ctx := context.Background()

	txn, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.ExecSite(ctx, "s0", `UPDATE KV SET v = 'mod' WHERE k = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.ExecSite(ctx, "s1", `UPDATE KV SET v = 'mod' WHERE k = 1`); err != nil {
		t.Fatal(err)
	}
	// Transactional read sees own writes.
	rs, err := txn.Query(ctx, `SELECT COUNT(*) FROM ALL_KV WHERE v = 'mod'`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Text() != "2" {
		t.Errorf("own writes invisible: %s", rs.Rows[0][0].Text())
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	rs, err = client.Query(ctx, `SELECT COUNT(*) FROM ALL_KV WHERE v = 'mod'`)
	if err != nil || rs.Rows[0][0].Text() != "2" {
		t.Errorf("committed writes: %v %v", rs, err)
	}

	// Abort path.
	txn2, _ := client.Begin(ctx)
	if _, err := txn2.ExecSite(ctx, "s0", `DELETE FROM KV WHERE k = 3`); err != nil {
		t.Fatal(err)
	}
	if err := txn2.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	rs, _ = client.Query(ctx, `SELECT COUNT(*) FROM ALL_KV`)
	if rs.Rows[0][0].Text() != "6" {
		t.Errorf("abort lost a row: %s", rs.Rows[0][0].Text())
	}

	// Unknown txn ids are rejected.
	if _, err := txn2.ExecSite(ctx, "s0", `DELETE FROM KV`); err == nil {
		t.Error("exec on finished txn accepted")
	}
	_ = fed
}

func TestDeadlockAbortCrossesWire(t *testing.T) {
	client, fed := startFederation(t)
	fed.SetLocalQueryTimeout(100 * time.Millisecond)
	ctx := context.Background()

	t1, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t1.ExecSite(ctx, "s0", `UPDATE KV SET v = 'x' WHERE k = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.ExecSite(ctx, "s1", `UPDATE KV SET v = 'x' WHERE k = 1`); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errs[0] = t1.ExecSite(ctx, "s1", `UPDATE KV SET v = 'y' WHERE k = 1`)
	}()
	go func() {
		defer wg.Done()
		_, errs[1] = t2.ExecSite(ctx, "s0", `UPDATE KV SET v = 'y' WHERE k = 1`)
	}()
	wg.Wait()

	// The cycle resolves either by the sites' wound-wait fast path
	// (ErrWounded) or the timeout backstop (ErrDeadlockAbort); both must
	// cross the wire typed, and the victim must read as dead.
	sawDeadlock := false
	for i, err := range errs {
		if errors.Is(err, fedclient.ErrDeadlockAbort) || errors.Is(err, fedclient.ErrWounded) {
			sawDeadlock = true
			if ts := []*fedclient.Txn{t1, t2}[i]; ts.AliveAfter(err) {
				t.Error("AliveAfter reports alive after deadlock abort")
			}
		}
	}
	if !sawDeadlock {
		t.Fatalf("no deadlock abort crossed the wire: %v / %v", errs[0], errs[1])
	}
	t1.Abort(ctx) //nolint:errcheck
	t2.Abort(ctx) //nolint:errcheck
}

// TestTxnQueryStreamsLikeAutocommit: a transactional read travels the
// same frame stream as an autocommit one and returns the same rows, and
// its read locks still block a writer until the transaction commits
// (strict 2PL is unchanged by streaming).
func TestTxnQueryStreamsLikeAutocommit(t *testing.T) {
	client, _ := startFederation(t)
	ctx := context.Background()
	const sql = `SELECT k, v, site FROM ALL_KV ORDER BY site, k`
	want, err := client.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}

	// The writer is older than the reader, so it parks behind the
	// reader's locks instead of being refused by wound-wait.
	writer, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reader.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) || len(got.Rows) != 6 {
		t.Fatalf("txn read %d rows, autocommit %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if got.Rows[i][j].Text() != want.Rows[i][j].Text() {
				t.Fatalf("row %d: txn %v, autocommit %v", i, got.Rows[i], want.Rows[i])
			}
		}
	}

	done := make(chan error, 1)
	go func() {
		_, err := writer.ExecSite(ctx, "s0", `UPDATE KV SET v = 'w' WHERE k = 1`)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("writer not blocked by the transactional read: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := reader.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("writer after reader commit: %v", err)
	}
	if err := writer.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestTxnQueryLockTimeoutAborts: a transactional read blocked past
// LocalQueryTimeout is a presumed deadlock — it aborts the transaction
// and crosses the wire as ErrDeadlockAbort.
func TestTxnQueryLockTimeoutAborts(t *testing.T) {
	client, fed := startFederation(t)
	fed.SetLocalQueryTimeout(100 * time.Millisecond)
	ctx := context.Background()
	// The reader is older than the writer, so it waits (and times out)
	// rather than being refused by wound-wait.
	reader, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Abort(ctx) //nolint:errcheck
	if _, err := writer.ExecSite(ctx, "s0", `UPDATE KV SET v = 'w' WHERE k = 1`); err != nil {
		t.Fatal(err)
	}
	_, err = reader.Query(ctx, `SELECT COUNT(*) FROM ALL_KV`)
	if !errors.Is(err, fedclient.ErrDeadlockAbort) {
		t.Fatalf("want ErrDeadlockAbort, got %v", err)
	}
	if reader.AliveAfter(err) {
		t.Error("AliveAfter reports alive after a lock-timeout abort")
	}
}

// shippedConn counts the rows a site ships to the federation.
type shippedConn struct {
	gateway.Conn
	rows *atomic.Int64
}

func (c shippedConn) QueryStream(ctx context.Context, txn uint64, sql string) (schema.RowStream, error) {
	st, err := c.Conn.QueryStream(ctx, txn, sql)
	if err != nil {
		return nil, err
	}
	return &countedStream{RowStream: st, n: c.rows}, nil
}

type countedStream struct {
	schema.RowStream
	n *atomic.Int64
}

func (s *countedStream) Next(ctx context.Context) (schema.Row, error) {
	r, err := s.RowStream.Next(ctx)
	if r != nil {
		s.n.Add(1)
	}
	return r, err
}

// TestTxnQueryHonorsStrategyPrefix: the "simple:" prefix selects the
// simple strategy inside a transaction too — the whole fragments ship —
// while the default cost-based plan pushes the filter down.
func TestTxnQueryHonorsStrategyPrefix(t *testing.T) {
	client, fed := startFederation(t)
	ctx := context.Background()
	var shipped atomic.Int64
	for _, site := range fed.Sites() {
		conn, _ := fed.Conn(site)
		if err := fed.AttachSite(ctx, shippedConn{Conn: conn, rows: &shipped}); err != nil {
			t.Fatal(err)
		}
	}
	txn, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort(ctx) //nolint:errcheck
	for _, tc := range []struct {
		sql     string
		shipped int64
	}{
		{`SELECT v FROM ALL_KV WHERE k = 1`, 2},        // k = 1 pushed to both sites
		{`simple:SELECT v FROM ALL_KV WHERE k = 1`, 6}, // both exports whole
	} {
		shipped.Store(0)
		rs, err := txn.Query(ctx, tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if len(rs.Rows) != 2 {
			t.Errorf("%s: %d rows, want 2", tc.sql, len(rs.Rows))
		}
		if got := shipped.Load(); got != tc.shipped {
			t.Errorf("%s: sites shipped %d rows, want %d", tc.sql, got, tc.shipped)
		}
	}
}
