package testfed

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"myriad/internal/core"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/schema"
)

// queryResult carries a federated query outcome across a goroutine.
type queryResult struct {
	rs  *schema.ResultSet
	err error
}

// runAsync executes the query in the background so tests can bound how
// long a wounded federation may take to answer.
func runAsync(ctx context.Context, fx *Fixture, sql string) <-chan queryResult {
	ch := make(chan queryResult, 1)
	go func() {
		rs, err := fx.Query(ctx, sql)
		ch <- queryResult{rs: rs, err: err}
	}()
	return ch
}

// await fails the test if the query does not settle within limit — a
// wounded site must never hang the federation.
func await(t *testing.T, ch <-chan queryResult, limit time.Duration) queryResult {
	t.Helper()
	select {
	case res := <-ch:
		return res
	case <-time.After(limit):
		t.Fatal("federated query hung")
		return queryResult{}
	}
}

// warm runs one cheap query so export statistics are cached and the
// armed fault hits the result stream, not planner metadata traffic.
func warm(t testing.TB, fx *Fixture) {
	t.Helper()
	if _, err := fx.Query(context.Background(), `SELECT id FROM R WHERE id = 0`); err != nil {
		t.Fatalf("warmup query: %v", err)
	}
}

// TestMidStreamDropSurfacesError wounds site b after ~50KB of response
// bytes: the federation must report a query error — not hang, and not
// return a partial result as if it were complete.
func TestMidStreamDropSurfacesError(t *testing.T) {
	fx := twoSiteUnion(t, integration.UnionAll, 1000, 30_000, true, 0)
	warm(t, fx)
	fx.Site("b").Proxy.DropAfter(50_000)

	res := await(t, runAsync(context.Background(), fx, `SELECT id, v FROM R`), 30*time.Second)
	if res.err == nil {
		t.Fatalf("mid-stream drop returned %d rows with no error (partial silent result)", len(res.rs.Rows))
	}
	if !strings.Contains(res.err.Error(), "b") {
		t.Logf("error does not name the wounded site (acceptable, informational): %v", res.err)
	}
}

// TestGarbledStreamSurfacesError flips a byte near the start of site
// b's response stream; the gob framing desynchronizes and the
// federation must surface an error.
func TestGarbledStreamSurfacesError(t *testing.T) {
	fx := twoSiteUnion(t, integration.UnionAll, 1000, 30_000, true, 0)
	warm(t, fx)
	fx.Site("b").Proxy.GarbleAfter(2)

	res := await(t, runAsync(context.Background(), fx, `SELECT id, v FROM R`), 30*time.Second)
	if res.err == nil {
		t.Fatalf("garbled stream returned %d rows with no error", len(res.rs.Rows))
	}
}

// TestCancellationTearsDownRemoteStreams cancels a federated query
// while a slow site is still streaming and verifies (1) the query
// returns promptly with an error, and (2) the remote scan's locks are
// released — i.e. the server-side stream was torn down, not leaked.
func TestCancellationTearsDownRemoteStreams(t *testing.T) {
	fx := twoSiteUnion(t, integration.UnionAll, 1000, 50_000, true, 0)
	warm(t, fx)
	fx.Site("b").Proxy.SetDelay(5 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	ch := runAsync(ctx, fx, `SELECT id, v FROM R`)
	time.Sleep(200 * time.Millisecond)
	cancel()

	res := await(t, ch, 15*time.Second)
	if res.err == nil {
		t.Fatal("cancelled query reported success")
	}

	// The scan at site b held a table S lock; teardown must release it
	// or this writer (needing a conflicting lock) blocks until timeout.
	fx.Site("b").Proxy.SetDelay(0)
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if _, err := fx.Site("b").DB.Exec(wctx, `INSERT INTO t VALUES (9999999, 1)`); err != nil {
		t.Fatalf("site b still locked after cancellation (stream leaked): %v", err)
	}

	// And the wire-level streams close: the proxied connection count
	// must drop back to the idle pool (no live stream conns).
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().After(deadline) == false {
		if fx.Site("b").Proxy.ActiveConns() <= 4 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("proxied connections never settled: %d still active", fx.Site("b").Proxy.ActiveConns())
}

// TestSlowSiteDoesNotBlockFastSite proves pipelining: with site b
// delayed, the fast site's fragment is fully consumed long before the
// query finishes. Observable end-to-end: the query still returns the
// complete union (prefetch windows keep the fast feed draining).
func TestSlowSiteDoesNotBlockFastSite(t *testing.T) {
	fx := twoSiteUnion(t, integration.UnionAll, 5000, 5000, true, 0)
	warm(t, fx)
	fx.Site("b").Proxy.SetDelay(time.Millisecond)

	res := await(t, runAsync(context.Background(), fx, `SELECT id, v FROM R`), 60*time.Second)
	if res.err != nil {
		t.Fatalf("union over slow site failed: %v", res.err)
	}
	if got := len(res.rs.Rows); got != 10000 {
		t.Fatalf("union returned %d rows, want 10000", got)
	}
}

// TestLimitStreamsEarlyTermination is the acceptance scenario: a
// federated LIMIT 10 over a 100k-row remote site must produce its rows
// without the gateway materializing (or even scanning) the full table.
func TestLimitStreamsEarlyTermination(t *testing.T) {
	fx := twoSiteUnion(t, integration.UnionAll, 0, 100_000, false, 0)
	warm(t, fx)

	before := fx.Site("b").DB.ScannedRows()
	rs, m, err := fx.Fed.QueryMetered(context.Background(), `SELECT id, v FROM R LIMIT 10`, fx.Fed.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rs.Rows))
	}
	if m.RowsShipped > 100 {
		t.Fatalf("LIMIT 10 shipped %d rows over the wire; transport is materializing", m.RowsShipped)
	}
	scanned := fx.Site("b").DB.ScannedRows() - before
	if scanned > 5000 {
		t.Fatalf("LIMIT 10 scanned %d rows at the site; pushdown did not terminate the scan early", scanned)
	}
}

// TestUnpushableLimitHalfClosesStreams covers the early half-close:
// UNION (distinct) blocks per-site LIMIT pushdown, so each site starts
// streaming its full 50k rows — the executor must stop pulling after
// the residual LIMIT is satisfiable and close both remote streams
// mid-flight rather than drain 100k rows.
func TestUnpushableLimitHalfClosesStreams(t *testing.T) {
	fx := twoSiteUnion(t, integration.UnionDistinct, 50_000, 50_000, false, 0)
	warm(t, fx)

	rs, m, err := fx.Fed.QueryMetered(context.Background(), `SELECT id, v FROM R LIMIT 10`, fx.Fed.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rs.Rows))
	}
	// Prefetch windows mean a few batches per site are in flight when
	// the bound hits; anything near the 100k total means no half-close.
	if m.RowsShipped > 20_000 {
		t.Fatalf("unpushable LIMIT shipped %d rows; remote streams were not half-closed", m.RowsShipped)
	}
}

// TestSatisfiedLimitNotBlockedByStalledSite: site b wedges silently
// mid-stream (stops forwarding, connection stays open), but the
// residual LIMIT 10 is satisfiable from site a alone. The executor
// must half-close b's stalled stream — cancelling the scan-set context
// to expire the blocked wire read — instead of waiting on b forever.
// UNION (distinct) keeps the LIMIT out of the per-site scans, so both
// sites genuinely start streaming their 50k rows.
func TestSatisfiedLimitNotBlockedByStalledSite(t *testing.T) {
	fx := twoSiteUnion(t, integration.UnionDistinct, 50_000, 50_000, true, 0)
	warm(t, fx)
	// Stall just past the stream header, mid first batch: site b's
	// feeder is left blocked in a wire read with an empty prefetch
	// window — the posture only a context cancellation can unblock.
	fx.Site("b").Proxy.StallAfter(2_000)

	res := await(t, runAsync(context.Background(), fx, `SELECT id, v FROM R LIMIT 10`), 30*time.Second)
	if res.err != nil {
		t.Fatalf("query blocked behind a stalled site it did not need: %v", res.err)
	}
	if len(res.rs.Rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(res.rs.Rows))
	}
}

// TestSiteTimeoutSurfacesAsTimeout keeps the paper's deadlock knob
// intact through the streaming path: a gateway whose per-query timeout
// expires while its scan is still producing batches must surface the
// failure with timeout semantics (presumed deadlock), not as a generic
// error — and not as a truncated success.
func TestSiteTimeoutSurfacesAsTimeout(t *testing.T) {
	fx := twoSiteUnion(t, integration.UnionAll, 100, 150_000, false, time.Millisecond)

	res := await(t, runAsync(context.Background(), fx, `SELECT id, v FROM R`), 30*time.Second)
	if res.err == nil {
		t.Fatal("timed-out site reported success")
	}
	if !errors.Is(res.err, gateway.ErrTimeout) {
		t.Fatalf("mid-stream timeout lost its timeout kind: %v", res.err)
	}
}

// TestStalledSiteDoesNotGateUnorderedFirstRow is the fan-in acceptance
// fault case: site a — source index 0, the one source order would emit
// first — wedges silently just after its stream header, while site b
// streams normally. Under the interleave policy the first row must
// still arrive (from b), and closing the stream must tear down the
// wedged scan promptly instead of waiting on a's dead wire.
func TestStalledSiteDoesNotGateUnorderedFirstRow(t *testing.T) {
	fx := twoSiteUnionFaults(t, integration.UnionAll, 50_000, 50_000, true, false, 0)
	warm(t, fx)
	fx.Fed.FanIn = core.FanInInterleave
	// Stall just past the stream header, mid first batch: source 0's
	// feeder blocks in a wire read with nothing delivered — the exact
	// posture that head-of-line blocks a source-ordered fan-in.
	fx.Site("a").Proxy.StallAfter(2_000)

	type firstRow struct {
		row schema.Row
		err error
	}
	ch := make(chan firstRow, 1)
	closed := make(chan error, 1)
	go func() {
		rows, _, err := fx.Fed.QueryStreamMetered(context.Background(), `SELECT id, v FROM R`, fx.Fed.Strategy)
		if err != nil {
			ch <- firstRow{err: err}
			return
		}
		r, err := rows.Next(context.Background())
		ch <- firstRow{row: r, err: err}
		closed <- rows.Close()
	}()

	select {
	case fr := <-ch:
		if fr.err != nil {
			t.Fatalf("first row errored: %v", fr.err)
		}
		if fr.row == nil {
			t.Fatal("stream ended with no rows")
		}
		// The only live source is b (ids start at 1,000,000).
		if id, _ := fr.row[0].Int(); id < 1_000_000 {
			t.Fatalf("first row id=%d claims to be from the stalled site", id)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stalled site gated unordered first-row delivery")
	}
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("closing the stream hung on the stalled site")
	}
}
