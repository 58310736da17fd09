package testfed

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"myriad/internal/core"
	"myriad/internal/integration"
	"myriad/internal/schema"
)

// TestResidualMemoryBounded: a federated ORDER BY without LIMIT and a
// DISTINCT, each over one scan set holding over 50x the query's
// 256 KB budget, drain with the live heap growing by no more than a few
// budgets plus a fixed allowance for the fan-in windows and the spill
// merge's cursors. The residual reads the fan-in directly, so nothing
// holds a copy of the input; every row is checked against the oracle as
// it arrives (the answers are fixed by ORDER BY, or by source order for
// the auto fan-in's DISTINCT). The heap is sampled every 8,192 rows
// drained and at the end, so every sample falls after the input has
// been consumed — the ORDER BY emits nothing before that, the DISTINCT
// only the first occurrences its in-memory phase admits (about 4,000
// rows under this budget) — which is when a copy of the input would be
// at its largest, and when the in-process sites, whose memory is their
// own processes' outside tests, have stopped shipping.
func TestResidualMemoryBounded(t *testing.T) {
	const (
		budget  = 256 << 10
		perSite = 82_000
		// Peak live-heap growth allowed while draining: the sorts' and
		// the dedup's budgeted buffers, one 128-row batch per merged
		// spill run (at most 64 at a time, per merge), the fan-in
		// windows, and slack for heap fragmentation. Copying the input
		// into a table grows the heap by about 15 MB.
		bound = 4*budget + 4<<20
	)
	fx := twoSiteUnion(t, integration.UnionAll, perSite, perSite, false, 0)
	warm(t, fx)
	oracle := fx.Oracle(t)
	if input := int64(2*perSite) * schema.RowBytes(genRows(0, 1)[0]); input < 50*budget {
		t.Fatalf("input is %d bytes, under 50x the %d byte budget", input, budget)
	}
	dir := budgetFed(t, fx, budget)
	ctx := context.Background()
	for _, sql := range []string{
		`SELECT id, v * 2 AS w FROM R ORDER BY w DESC, id`,
		`SELECT DISTINCT id, v FROM R`,
	} {
		t.Run(sql, func(t *testing.T) {
			want, err := oracle.db.Query(ctx, sql)
			if err != nil {
				t.Fatal(err)
			}
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			base, peak := ms.HeapInuse, uint64(0)
			sample := func() {
				runtime.GC()
				runtime.ReadMemStats(&ms)
				if ms.HeapInuse > base {
					peak = max(peak, ms.HeapInuse-base)
				}

			}

			rows, m, err := fx.Fed.QueryStreamMetered(ctx, sql, fx.Fed.Strategy)
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()
			n := 0
			for ; ; n++ {
				r, err := rows.Next(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if r == nil {
					break
				}
				if n >= len(want.Rows) || kindKey(r) != kindKey(want.Rows[n]) {
					t.Fatalf("row %d: federation %v, oracle has %d rows", n, r, len(want.Rows))
				}
				if n > 0 && n%8192 == 0 {
					sample()
				}
			}
			sample()
			rows.Close()
			if n != len(want.Rows) {
				t.Fatalf("federation returned %d rows, oracle %d", n, len(want.Rows))
			}
			if m.ScratchBypassed || m.SpillRuns == 0 {
				t.Fatalf("residual did not run spilling: bypassed=%v spill runs=%d", m.ScratchBypassed, m.SpillRuns)
			}
			t.Logf("peak live-heap growth %d KB (bound %d KB)", peak>>10, bound>>10)
			if peak > bound {
				t.Fatalf("live heap grew %d KB while draining, over the %d KB bound", peak>>10, bound>>10)
			}
		})
	}
	assertNoSpillFiles(t, dir)
}

// TestResidualFirstRowAndLimit runs a residual the bypass refuses (a
// computed projection) over a two-site UNION ALL whose source 0 sits
// behind a slow link. Under the interleave policy the first row must
// arrive — and the client be able to close — while the slow site is
// still shipping: nothing waits for a fragment to load. With LIMIT 5
// the sites ship a small fraction of their fragments, and once the
// client closes, both site streams are closed.
func TestResidualFirstRowAndLimit(t *testing.T) {
	const perSite = 20_000
	fx := twoSiteUnionFaults(t, integration.UnionAll, perSite, perSite, true, false, 0)
	warm(t, fx)
	oracle := fx.Oracle(t)
	fx.Fed.FanIn = core.FanInInterleave
	t.Cleanup(func() { fx.Fed.FanIn = core.FanInAuto })
	// Each response chunk from site a waits 100 ms: its fragment spans
	// dozens of chunks, so it cannot finish in under a couple of seconds.
	fx.Site("a").Proxy.SetDelay(100 * time.Millisecond)
	ctx := context.Background()

	t.Run("first row", func(t *testing.T) {
		rows, m, err := fx.Fed.QueryStreamMetered(ctx, `SELECT id + 0 AS id, v FROM R`, fx.Fed.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		r, err := rows.Next(ctx)
		if err != nil || r == nil {
			rows.Close()
			t.Fatalf("first row: %v, %v", r, err)
		}
		rows.Close()
		if m.ScratchBypassed {
			t.Fatal("computed projection took the bypass")
		}
		slow := -1
		for _, src := range m.Sources {
			if src.Site == "a" {
				slow = src.Rows
			}
		}
		if slow < 0 || slow >= perSite {
			t.Fatalf("the slow site's stream shipped %d rows before the first row (-1: never closed)", slow)
		}
	})

	t.Run("limit", func(t *testing.T) {
		const sql = `SELECT id + 0 AS id, v FROM R LIMIT 5`
		rows, m, err := fx.Fed.QueryStreamMetered(ctx, sql, fx.Fed.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		got, err := schema.DrainStream(ctx, rows)
		rows.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Check(ctx, sql, got); err != nil {
			t.Fatal(err)
		}
		if m.RowsShipped > perSite/10 {
			t.Fatalf("LIMIT 5 shipped %d rows of a %d-row fragment", m.RowsShipped, perSite)
		}
		if len(m.Sources) != 2 {
			t.Fatalf("%d site streams closed after the client closed, want 2", len(m.Sources))
		}
	})
}

// TestResidualTeardownAfterCancel cancels the client mid-stream — over
// a spilling ORDER BY, and over a bind join whose build side spooled to
// disk — and then requires a clean federation: no spill file left, the
// goroutine count back to where it was within a second, and every
// pooled site connection idle.
func TestResidualTeardownAfterCancel(t *testing.T) {
	cases := []struct {
		name string
		fx   func(t *testing.T) *Fixture
		sql  string
		// export is a relation every site exports.
		export string
	}{
		{
			name: "spilling order by",
			fx: func(t *testing.T) *Fixture {
				return twoSiteUnion(t, integration.UnionAll, 20_000, 20_000, false, 0)
			},
			sql:    `SELECT id, v * 2 AS w FROM R ORDER BY w, id`,
			export: "T",
		},
		{
			name: "spooled bind join",
			fx: func(t *testing.T) *Fixture {
				return bindJoinFixture(t, 5000, 200, false)
			},
			sql:    `SELECT d.id, p.id AS pid, p.pv FROM DRV d JOIN P p ON d.k = p.k ORDER BY d.id, pid`,
			export: "P",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := tc.fx(t)
			dir := budgetFed(t, fx, 4096)
			ctx := context.Background()
			if _, _, err := fx.Fed.QueryMetered(ctx, tc.sql, fx.Fed.Strategy); err != nil {
				t.Fatal(err)
			}
			// With every pool slot dialed, a torn-down query can only
			// close connections, never add their server goroutines.
			fillPools(t, fx, tc.export)
			baseline := runtime.NumGoroutine()

			qctx, cancel := context.WithCancel(ctx)
			defer cancel()
			rows, m, err := fx.Fed.QueryStreamMetered(qctx, tc.sql, fx.Fed.Strategy)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if r, err := rows.Next(qctx); err != nil || r == nil {
					rows.Close()
					t.Fatalf("row %d: %v, %v", i, r, err)
				}
			}
			cancel()
			rows.Next(qctx) //nolint:errcheck // the pull after cancellation may fail or not
			rows.Close()

			if m.SpillRuns == 0 {
				t.Fatal("query did not spill")
			}
			if tc.name == "spooled bind join" && !m.SemijoinUsed {
				t.Fatal("the plan did not bind-join")
			}
			assertNoSpillFiles(t, dir)
			deadline := time.Now().Add(time.Second)
			for n := runtime.NumGoroutine(); n > baseline; n = runtime.NumGoroutine() {
				if time.Now().After(deadline) {
					t.Fatalf("a second after cancellation: %d goroutines, baseline %d", n, baseline)
				}
				time.Sleep(10 * time.Millisecond)
			}
			for _, site := range []string{"a", "b"} {
				if !poolIdle(fx, site, tc.export) {
					t.Fatalf("site %s: a pooled connection is still held after the query closed", site)
				}
			}
		})
	}
}

// fillPools dials every pooled connection to sites a and b: it holds
// sitePool streams over export open at once, then drains each, so every
// connection returns to its pool healthy.
func fillPools(t *testing.T, fx *Fixture, export string) {
	t.Helper()
	ctx := context.Background()
	for _, site := range []string{"a", "b"} {
		conn, _ := fx.Fed.Conn(site)
		var streams []schema.RowStream
		for i := 0; i < sitePool; i++ {
			st, err := conn.QueryStream(ctx, 0, `SELECT id FROM `+export+` WHERE id < 10`)
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, st)
		}
		for _, st := range streams {
			_, err := schema.DrainStream(ctx, st)
			st.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// poolIdle reports whether every pooled connection to site is free: it
// opens sitePool streams over export at once, all of which must get a
// connection within half a second, then drains and closes them.
func poolIdle(fx *Fixture, site, export string) bool {
	conn, _ := fx.Fed.Conn(site)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	var streams []schema.RowStream
	defer func() {
		for _, st := range streams {
			st.Close()
		}
	}()
	for i := 0; i < sitePool; i++ {
		st, err := conn.QueryStream(ctx, 0, `SELECT id FROM `+export+` WHERE id < 10`)
		if err != nil {
			return false
		}
		streams = append(streams, st)
	}
	for _, st := range streams {
		if _, err := schema.DrainStream(ctx, st); err != nil {
			return false
		}
	}
	return true
}

// TestResidualPoolExhaustion: a query holds a site's pooled connections
// only for the relation its residual is reading. A join over more scan
// sets at each site than the site's pool holds, and as many concurrent
// two-relation joins as the pool has connections, both finish within a
// deadline with the oracle's answers.
func TestResidualPoolExhaustion(t *testing.T) {
	fx := twoSiteUnion(t, integration.UnionAll, 300, 300, false, 0)
	warm(t, fx)
	oracle := fx.Oracle(t)
	run := func(ctx context.Context, sql string) error {
		got, _, err := fx.Fed.QueryMetered(ctx, sql, core.StrategySimple)
		if err != nil {
			return err
		}
		return oracle.Check(ctx, sql, got)
	}

	t.Run("more scan sets than the pool", func(t *testing.T) {
		var sb strings.Builder
		sb.WriteString("SELECT r0.id, r0.v FROM R r0")
		for i := 1; i <= sitePool; i++ {
			fmt.Fprintf(&sb, " JOIN R r%d ON r%d.id = r0.id", i, i)
		}
		sb.WriteString(" ORDER BY r0.id")
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := run(ctx, sb.String()); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("concurrent joins", func(t *testing.T) {
		const sql = `SELECT x.id, y.v FROM R x JOIN R y ON x.id = y.id ORDER BY x.id`
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		errs := make(chan error, sitePool)
		for c := 0; c < sitePool; c++ {
			go func() {
				var err error
				for i := 0; i < 10 && err == nil; i++ {
					err = run(ctx, sql)
				}
				errs <- err
			}()
		}
		for c := 0; c < sitePool; c++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	})
}
