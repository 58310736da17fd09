package testfed

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"myriad/internal/catalog"
	"myriad/internal/comm"
	"myriad/internal/core"
	"myriad/internal/fedclient"
	"myriad/internal/fedserver"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/schema"
	"myriad/internal/value"
)

// The relay: a result that is a plain scan of one UNION ALL relation
// leaves the federation server as the sites' batch payloads, checked,
// coerced only where a batch needs it, and filtered where they lie.
// These tests drive it the way clients meet it — fedserver over TCP,
// read by fedclient or a raw comm stream — and hold it to the oracle.

// relayServer serves fx's federation through fedserver over TCP, as
// myriadd does. It returns the server's address and the fedserver (for
// its metrics log).
func relayServer(t testing.TB, fx *Fixture) (string, *fedserver.Server) {
	t.Helper()
	fs := fedserver.New(fx.Fed)
	srv := comm.NewServer(fs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	return addr, fs
}

// relayClient is a fedclient of a relay server over fx.
func relayClient(t testing.TB, fx *Fixture) *fedclient.Client {
	t.Helper()
	addr, _ := relayServer(t, fx)
	cl := fedclient.Dial(addr, 2)
	t.Cleanup(func() { cl.Close() }) //nolint:errcheck
	return cl
}

// strategyPrefix selects strategy for one query sent to a fedserver.
func strategyPrefix(s core.Strategy) string {
	if s == core.StrategySimple {
		return "simple:"
	}
	return "cost:"
}

// relayFixture integrates R(id INTEGER, w FLOAT, s TEXT) over two sites
// with NULL-bearing columns and more rows than a batch:
//
//   - site a's w is INTEGER, so every batch it sends needs coercion;
//   - site b maps w to CASE WHEN k < 300 THEN 1 ELSE w END over a FLOAT
//     column: its first two batches (k < 512) hold INTEGER 1s and need
//     coercion, its third already has the declared kinds.
//
// Site b is reached through a fault proxy.
func relayFixture(t testing.TB) *Fixture {
	t.Helper()
	specs := []SiteSpec{
		{Name: "a", Setup: []string{`CREATE TABLE t (id INTEGER PRIMARY KEY, w INTEGER, s TEXT)`},
			Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}},
		{Name: "b", Dialect: "postgres", Setup: []string{`CREATE TABLE u (k INTEGER PRIMARY KEY, w FLOAT, s TEXT)`},
			Exports: []gateway.Export{{Name: "U", LocalTable: "u"}}, Faulty: true},
	}
	def := &catalog.IntegratedDef{
		Name: "R",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt}, {Name: "w", Type: schema.TFloat}, {Name: "s", Type: schema.TText}},
		Combine: integration.UnionAll,
		Sources: []catalog.SourceDef{
			{Site: "a", Export: "T", ColumnMap: map[string]string{"id": "id", "w": "w", "s": "s"}},
			{Site: "b", Export: "U", ColumnMap: map[string]string{
				"id": "k + 100000", "w": "CASE WHEN k < 300 THEN 1 ELSE w END", "s": "s"}},
		},
	}
	fx := New(t, specs, []*catalog.IntegratedDef{def})
	fx.LoadRows(t, "a", "t", relayRows(700))
	fx.LoadRows(t, "b", "u", relayRows(600))
	return fx
}

// relayRows builds n (id, w, s) rows with NULLs sprinkled in w and s.
func relayRows(n int) []schema.Row {
	rows := make([]schema.Row, n)
	for i := range rows {
		w, s := value.NewInt(int64(i%89)), value.NewText(fmt.Sprintf("s%d", i%17))
		if i%13 == 0 {
			w = value.Null()
		}
		if i%9 == 0 {
			s = value.Null()
		}
		rows[i] = schema.Row{value.NewInt(int64(i)), w, s}
	}
	return rows
}

// relayCorpus covers the relayed shapes: identity with and without a
// WHERE, OFFSET and LIMIT that cut inside and across batches, NULLs,
// batches that need coercion beside ones that do not, a source pruned
// or left empty by the WHERE, and (for contrast) projections that keep
// decoding.
var relayCorpus = []string{
	`SELECT id, w, s FROM R`,
	`SELECT * FROM R WHERE w > 40`,
	`SELECT id, w, s FROM R WHERE w IS NULL OR s = 's3'`,
	`SELECT id, w, s FROM R WHERE id < 500`,
	`SELECT id, w, s FROM R WHERE id >= 100000 AND w = 1`,
	`SELECT id, w, s FROM R WHERE id < 0`,
	`SELECT id, w, s FROM R LIMIT 300 OFFSET 250`,
	`SELECT id, w, s FROM R WHERE w < 30 LIMIT 400 OFFSET 100`,
	`SELECT id, w, s FROM R LIMIT 1`,
	`SELECT id, w, s FROM R LIMIT 0`,
	`SELECT id, w, s FROM R ORDER BY id LIMIT 20`,
	`SELECT w, id FROM R WHERE s IS NULL`,
}

// TestRelayMatchesOracle: every relayed shape, read by fedclient over
// TCP under both strategies and both fan-in policies, equals the
// oracle's answer kind-exactly — site a's INTEGERs and site b's mixed
// batches arrive as the declared FLOAT — and no pool slot or spill file
// is left behind.
func TestRelayMatchesOracle(t *testing.T) {
	fx := relayFixture(t)
	oracle := fx.Oracle(t)
	cl := relayClient(t, fx)
	dir := budgetFed(t, fx, 1<<20)
	ctx := context.Background()
	defer func() { fx.Fed.FanIn = core.FanInAuto }()
	for _, policy := range []core.FanInPolicy{core.FanInAuto, core.FanInInterleave} {
		fx.Fed.FanIn = policy
		for _, strategy := range []core.Strategy{core.StrategyCostBased, core.StrategySimple} {
			for _, sql := range relayCorpus {
				t.Run(fmt.Sprintf("%v/%v/%s", policy, strategy, sql), func(t *testing.T) {
					got, err := cl.Query(ctx, strategyPrefix(strategy)+sql)
					if err != nil {
						t.Fatal(err)
					}
					if err := oracle.Check(ctx, sql, got); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
	assertNoSpillFiles(t, dir)
	assertPoolsFree(t, fx)
}

// assertPoolsFree opens sitePool result streams at once, each holding a
// pooled connection at every site until it is closed: a pool slot some
// earlier query leaked leaves one of them waiting past the deadline.
func assertPoolsFree(t *testing.T, fx *Fixture) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var open []schema.RowStream
	defer func() {
		for _, st := range open {
			st.Close()
		}
	}()
	for i := 0; i < sitePool; i++ {
		rows, _, err := fx.Fed.QueryStreamMetered(ctx, `SELECT id, w, s FROM R`, core.StrategySimple)
		if err != nil {
			t.Fatalf("stream %d of %d: %v (a pool slot leaked?)", i+1, sitePool, err)
		}
		open = append(open, rows)
		if _, err := rows.Next(ctx); err != nil {
			t.Fatalf("stream %d of %d: %v (a pool slot leaked?)", i+1, sitePool, err)
		}
	}
}

// firstTagOffset is where, in a site's response to a scan with these
// header columns whose first batch holds these rows, the tag of the
// first row's first value lies (PROTOCOL.md's envelope and frame
// layout): after the header frame and the batch frame's length prefix,
// kind, nil column list, row count and payload length, and the row's
// column count.
func firstTagOffset(cols []string, batch []schema.Row) int64 {
	uv := func(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }
	header := 1 + uv(len(cols)+1) + 5 // kind, columns, then N, payload, error, error kind, count
	for _, c := range cols {
		header += uv(len(c)) + len(c)
	}
	payload := 0
	for _, r := range batch {
		payload += len(value.AppendRow(nil, r))
	}
	n := len(binary.AppendVarint(nil, int64(len(batch))))
	body := 1 + 1 + n + uv(payload+1) + payload + 3
	return int64(uv(header) + header + uv(body) + 1 + 1 + n + uv(payload+1) + uv(len(cols)))
}

// TestRelayGarbledBatch: a byte flipped inside a batch site b sends
// fails the query at the federation, not at the client. The client
// reads an error trailer whose text names the site and the protocol
// error — not a decode failure of its own — the site's connection is
// closed rather than pooled, and nothing leaks.
func TestRelayGarbledBatch(t *testing.T) {
	fx := relayFixture(t)
	cl := relayClient(t, fx)
	ctx := context.Background()
	const sql = `simple:SELECT id, w, s FROM R WHERE id >= 100000`
	// Cycle through every pool slot, so each holds a live connection.
	for i := 0; i < sitePool; i++ {
		if _, err := cl.Query(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}
	proxy := fx.Site("b").Proxy
	before := proxy.ActiveConns()
	if before != sitePool {
		t.Fatalf("site b has %d connections, want a full pool of %d", before, sitePool)
	}

	first := make([]schema.Row, comm.DefaultBatchRows)
	for i, r := range relayRows(len(first)) {
		first[i] = schema.Row{value.NewInt(r[0].RawInt() + 100000), value.NewInt(1), r[2]}
	}
	proxy.GarbleAfter(firstTagOffset([]string{"id", "w", "s"}, first))
	_, err := cl.Query(ctx, sql)
	proxy.GarbleAfter(-1)
	if err == nil {
		t.Fatal("a garbled site batch reached the client as rows")
	}
	if errors.Is(err, comm.ProtocolError) {
		t.Fatalf("the client failed decoding on its own: %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "protocol error") || !strings.Contains(msg, "gateway b") {
		t.Fatalf("trailer does not name the site's protocol error: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for proxy.ActiveConns() >= before {
		if time.Now().After(deadline) {
			t.Fatalf("site b keeps %d connections (%d before): the garbled one went back to the pool", proxy.ActiveConns(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := cl.Query(ctx, sql); err != nil {
		t.Fatalf("after the garbled batch: %v", err)
	}
	assertPoolsFree(t, fx)
}

// TestRelayFrames pins what a relayed result looks like on the wire
// from the federation server: a one-row point read is one batch frame;
// a 769-row scan arrives in the 4 frames its site sent, with the trailer
// counting 769; and a LIMIT that ends inside a batch returns exactly its
// rows while the site streams close early. That a forwarded batch of at
// most BatchRows rows leaves with its header and trailer in one socket
// write is comm's TestSocketWritesPerExchange (":batches").
func TestRelayFrames(t *testing.T) {
	fx := twoSiteUnion(t, integration.UnionAll, 769, 40_000, false, 0)
	addr, fs := relayServer(t, fx)
	var mu sync.Mutex // Logf runs on the server's goroutine
	var logged []string
	fs.Logf = func(format string, v ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, v...))
	}
	c := comm.Dial(addr, 1)
	defer c.Close()
	ctx := context.Background()
	stream := func(sql string) (frames, rows, count int) {
		t.Helper()
		st, err := c.DoStream(ctx, &comm.Request{Op: comm.OpQuery, SQL: sql})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for {
			b, err := st.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b.N == 0 {
				return frames, rows, st.RowCount()
			}
			frames++
			rows += b.N
		}
	}

	if frames, rows, count := stream(`SELECT id, v FROM R WHERE id = 7`); frames != 1 || rows != 1 || count != 1 {
		t.Fatalf("point read: %d frames, %d rows, trailer count %d; want 1, 1, 1", frames, rows, count)
	}

	if frames, rows, count := stream(`SELECT id, v FROM R WHERE id < 1000`); frames != 4 || rows != 769 || count != 769 {
		t.Fatalf("769-row scan: %d frames, %d rows, trailer count %d; want 4, 769, 769", frames, rows, count)
	}

	mu.Lock()
	logged = nil
	mu.Unlock()
	if _, rows, count := stream(`simple:SELECT id, v FROM R LIMIT 1000`); rows != 1000 || count != 1000 {
		t.Fatalf("LIMIT 1000: %d rows, trailer count %d", rows, count)
	}
	var shipped int
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logged {
		if i := strings.Index(line, "shipped="); i >= 0 {
			fmt.Sscanf(line[i:], "shipped=%d", &shipped) //nolint:errcheck
		}
	}
	if shipped == 0 || shipped >= 769+40_000 {
		t.Fatalf("LIMIT 1000 shipped %d of %d rows: the site streams were not closed early (log %q)", shipped, 769+40_000, logged)
	}
}
