package core

import (
	"context"
	"testing"
	"time"

	"myriad/internal/gateway"
	"myriad/internal/gtm"
	"myriad/internal/schema"
	"myriad/internal/storage"
)

// blockingConn is a gateway.Conn whose Stats announces each pull on
// started and blocks until the test sends the answer's row count on
// release. Only Site, ExportSchemas and Stats are ever called.
type blockingConn struct {
	gateway.Conn
	site    string
	started chan string
	release chan int
}

func (c *blockingConn) Site() string { return c.site }

func (c *blockingConn) ExportSchemas(context.Context) ([]*schema.Schema, error) { return nil, nil }

func (c *blockingConn) Stats(ctx context.Context, export string) (*storage.TableStats, error) {
	c.started <- export
	select {
	case rows := <-c.release:
		return &storage.TableStats{Table: export, Rows: int64(rows)}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func newBlockingFed(t *testing.T) (*Federation, *blockingConn) {
	t.Helper()
	conn := &blockingConn{site: "s", started: make(chan string), release: make(chan int)}
	f := New("stats")
	if err := f.AttachSite(context.Background(), conn); err != nil {
		t.Fatal(err)
	}
	return f, conn
}

// statsAsync runs one Stats call on its own goroutine.
func statsAsync(f *Federation, export string) <-chan *storage.TableStats {
	out := make(chan *storage.TableStats, 1)
	go func() {
		ts, _ := f.Stats(context.Background(), "s", export)
		out <- ts
	}()
	return out
}

// fill caches export's stats at c's site through one answered pull.
func fill(f *Federation, c *blockingConn, export string) {
	done := make(chan struct{})
	go func() {
		f.Stats(context.Background(), c.site, export) //nolint:errcheck
		close(done)
	}()
	<-c.started
	c.release <- 1
	<-done
}

// waitFor polls an atomic counter until it reaches want: the event a
// goroutine parked on a shared pull leaves behind.
func waitFor(t *testing.T, what string, get func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for get() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", what, get(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func expectCounters(t *testing.T, f *Federation, hits, misses, pulls, shared, invalidations, discarded int64) {
	t.Helper()
	c := f.StatsCacheStats()
	got := [6]int64{c.Hits.Load(), c.Misses.Load(), c.Pulls.Load(), c.SharedPulls.Load(), c.Invalidations.Load(), c.DiscardedPulls.Load()}
	want := [6]int64{hits, misses, pulls, shared, invalidations, discarded}
	if got != want {
		t.Fatalf("hits/misses/pulls/shared/invalidations/discarded = %v, want %v", got, want)
	}
}

// TestStatsSingleFlight: N callers missing the same key cause exactly
// one pull, and all of them get its answer.
func TestStatsSingleFlight(t *testing.T) {
	f, conn := newBlockingFed(t)
	const n = 8
	results := []<-chan *storage.TableStats{statsAsync(f, "T")}
	<-conn.started
	for i := 1; i < n; i++ {
		results = append(results, statsAsync(f, "T"))
	}
	waitFor(t, "shared pulls", f.StatsCacheStats().SharedPulls.Load, n-1)
	conn.release <- 42
	for _, r := range results {
		if ts := <-r; ts == nil || ts.Rows != 42 {
			t.Fatalf("caller got %+v, want the shared pull's 42 rows", ts)
		}
	}
	if ts, ok := f.Stats(context.Background(), "s", "T"); !ok || ts.Rows != 42 {
		t.Fatalf("after the pull: %+v %v, want a cached hit", ts, ok)
	}
	expectCounters(t, f, 1, n, 1, n-1, 0, 0)
}

// TestStatsRacedInvalidationNotInstalled: a pull that sees its key
// invalidated before it returns hands its answer to its own caller but
// caches nothing. A caller arriving after the invalidation starts a
// fresh pull instead of joining the stale one, and its answer is cached.
func TestStatsRacedInvalidationNotInstalled(t *testing.T) {
	f, conn := newBlockingFed(t)
	stale := statsAsync(f, "T")
	<-conn.started
	f.invalidateWrites([]gtm.Write{{Site: "S", Export: "t"}}) // names match case-insensitively

	fresh := statsAsync(f, "T")
	<-conn.started // a second pull, not a shared wait
	conn.release <- 1
	conn.release <- 2
	a, b := <-stale, <-fresh
	if a.Rows+b.Rows != 3 {
		t.Fatalf("pull answers %d and %d, want 1 and 2 in some order", a.Rows, b.Rows)
	}
	// Whichever pull finished first, only the fresh one may be cached.
	ts, ok := f.Stats(context.Background(), "s", "T")
	if !ok || ts != b {
		t.Fatalf("cached %+v, want the post-invalidation pull's %+v", ts, b)
	}
	expectCounters(t, f, 1, 2, 2, 0, 1, 1)
}

// TestStatsInvalidationOfOtherKeyKeepsPull: invalidating a different
// export, or another site's, does not discard an in-flight pull.
func TestStatsInvalidationOfOtherKeyKeepsPull(t *testing.T) {
	f, conn := newBlockingFed(t)
	r := statsAsync(f, "T")
	<-conn.started
	f.invalidateWrites([]gtm.Write{{Site: "s", Export: "U"}, {Site: "other"}})
	conn.release <- 7
	if ts := <-r; ts == nil || ts.Rows != 7 {
		t.Fatalf("pull answered %+v", ts)
	}
	if _, ok := f.Stats(context.Background(), "s", "T"); !ok {
		t.Fatal("pull was not cached")
	}
	expectCounters(t, f, 1, 1, 1, 0, 0, 0)
}

// TestStatsWildcardAndFailedPull: a wildcard Write drops every export at
// its site and nothing elsewhere; a failed pull caches nothing, so the
// next call pulls again.
func TestStatsWildcardAndFailedPull(t *testing.T) {
	f, conn := newBlockingFed(t)
	other := &blockingConn{site: "o", started: make(chan string), release: make(chan int)}
	if err := f.AttachSite(context.Background(), other); err != nil {
		t.Fatal(err)
	}
	fill(f, conn, "T")
	fill(f, conn, "U")
	fill(f, other, "T")
	f.invalidateWrites([]gtm.Write{{Site: "s"}})
	expectCounters(t, f, 0, 3, 3, 0, 2, 0)
	if _, ok := f.Stats(context.Background(), "o", "T"); !ok {
		t.Fatal("wildcard at s dropped o's stats")
	}

	ctx, cancel := context.WithCancel(context.Background())
	failed := make(chan bool, 1)
	go func() {
		_, ok := f.Stats(ctx, "s", "T")
		failed <- ok
	}()
	<-conn.started
	cancel()
	if <-failed {
		t.Fatal("a cancelled pull reported stats")
	}
	fill(f, conn, "T") // pulls again: the failure was not cached
	expectCounters(t, f, 1, 5, 5, 0, 2, 0)
}

// TestStatsHitAllocatesNothing: the cache-hit path takes one lock and
// allocates nothing, counters included.
func TestStatsHitAllocatesNothing(t *testing.T) {
	f, conn := newBlockingFed(t)
	fill(f, conn, "PART")
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() { f.Stats(ctx, "s", "PART") }); n != 0 { //nolint:errcheck
		t.Fatalf("cache hit allocates %v times", n)
	}
}
