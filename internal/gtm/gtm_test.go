package gtm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"myriad/internal/comm"
	"myriad/internal/gateway"
	"myriad/internal/schema"
	"myriad/internal/storage"
	"myriad/internal/value"
)

// fakeConn is a scriptable gateway.Conn for coordinator fault injection.
type fakeConn struct {
	site string

	mu       sync.Mutex
	nextTxn  uint64
	prepared map[uint64]bool
	commits  int
	aborts   int

	failPrepare bool
	failExec    error // Exec, and QueryStream at open
	failNext    error // QueryStream mid-stream: one row, then this error
	failCommit  error
	// waits and waitErr script this site's WaitGraph answer for
	// detector tests.
	waits   []comm.WaitEdge
	waitErr error
	// stallPrepare makes Prepare block until its context expires — a
	// wedged participant, from the coordinator's point of view.
	stallPrepare bool
	// prepareStarted (closed on entry) and prepareHold (waited on) let a
	// test freeze the coordinator mid-phase-one. Single-use.
	prepareStarted chan struct{}
	prepareHold    chan struct{}
	// execStarted/execHold and abortStarted/abortHold freeze Exec and
	// Abort the same way. Single-use.
	execStarted  chan struct{}
	execHold     chan struct{}
	abortStarted chan struct{}
	abortHold    chan struct{}
}

var _ gateway.Conn = (*fakeConn)(nil)

func newFake(site string) *fakeConn {
	return &fakeConn{site: site, prepared: make(map[uint64]bool)}
}

func (f *fakeConn) Site() string { return f.site }
func (f *fakeConn) ExportSchemas(context.Context) ([]*schema.Schema, error) {
	return nil, nil
}
func (f *fakeConn) Stats(context.Context, string) (*storage.TableStats, error) {
	return &storage.TableStats{}, nil
}
func (f *fakeConn) Explain(context.Context, string) (string, error) { return "", nil }
func (f *fakeConn) QueryStream(ctx context.Context, txn uint64, sql string) (schema.RowStream, error) {
	if f.failExec != nil {
		return nil, f.failExec
	}
	if f.failNext != nil {
		return &failingStream{err: f.failNext}, nil
	}
	return schema.StreamOf(&schema.ResultSet{}), nil
}
func (f *fakeConn) Exec(ctx context.Context, txn uint64, sql string) (int, error) {
	if f.execStarted != nil {
		close(f.execStarted)
		<-f.execHold
	}
	if f.failExec != nil {
		return 0, f.failExec
	}
	return 1, nil
}
func (f *fakeConn) Begin(context.Context, uint64) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextTxn++
	return f.nextTxn, nil
}
func (f *fakeConn) WaitGraph(context.Context) ([]comm.WaitEdge, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.waits, f.waitErr
}
func (f *fakeConn) Prepare(ctx context.Context, txn uint64) error {
	f.mu.Lock()
	started, hold, stall := f.prepareStarted, f.prepareHold, f.stallPrepare
	f.mu.Unlock()
	if started != nil {
		close(started)
	}
	if hold != nil {
		<-hold
	}
	if stall {
		<-ctx.Done()
		return ctx.Err()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failPrepare {
		return fmt.Errorf("fake %s: prepare refused", f.site)
	}
	f.prepared[txn] = true
	return nil
}
func (f *fakeConn) Commit(_ context.Context, txn uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failCommit != nil {
		return f.failCommit
	}
	f.commits++
	return nil
}
func (f *fakeConn) Abort(_ context.Context, txn uint64) error {
	if f.abortStarted != nil {
		close(f.abortStarted)
		<-f.abortHold
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.aborts++
	return nil
}
func (f *fakeConn) Close() error { return nil }

// failingStream yields one row, then fails every Next with err.
type failingStream struct {
	err  error
	sent bool
}

func (s *failingStream) Columns() []string { return []string{"x"} }
func (s *failingStream) Next(context.Context) (schema.Row, error) {
	if !s.sent {
		s.sent = true
		return schema.Row{value.NewInt(1)}, nil
	}
	return nil, s.err
}
func (s *failingStream) Close() error { return nil }

// querySite runs one transactional subquery to completion.
func querySite(ctx context.Context, txn *Txn, site, sql string) error {
	rows, err := txn.QuerySite(ctx, site, sql)
	if err != nil {
		return err
	}
	defer rows.Close()
	_, err = schema.DrainStream(ctx, rows)
	return err
}

type fakeProvider map[string]*fakeConn

func (p fakeProvider) Conn(site string) (gateway.Conn, bool) {
	c, ok := p[site]
	return c, ok
}

func twoSites() (fakeProvider, *Coordinator) {
	p := fakeProvider{"a": newFake("a"), "b": newFake("b")}
	return p, New(p)
}

func TestCommitTwoPhase(t *testing.T) {
	p, c := twoSites()
	ctx := context.Background()
	txn := c.Begin()
	if _, err := txn.ExecSite(ctx, "a", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.ExecSite(ctx, "b", "x"); err != nil {
		t.Fatal(err)
	}
	if got := len(txn.Sites()); got != 2 {
		t.Errorf("sites = %d", got)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if len(p["a"].prepared) != 1 || len(p["b"].prepared) != 1 {
		t.Error("prepare not sent to both sites")
	}
	if p["a"].commits != 1 || p["b"].commits != 1 {
		t.Error("commit not sent to both sites")
	}
	if c.Stats.Committed.Load() != 1 {
		t.Error("commit not counted")
	}
	// Double commit fails.
	if err := txn.Commit(ctx); err == nil {
		t.Error("double commit accepted")
	}
}

func TestOnePhaseForSingleSite(t *testing.T) {
	p, c := twoSites()
	ctx := context.Background()
	txn := c.Begin()
	if _, err := txn.ExecSite(ctx, "a", "x"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if len(p["a"].prepared) != 0 {
		t.Error("single-site commit used two phases")
	}
	if p["a"].commits != 1 {
		t.Error("commit not sent")
	}
}

func TestEmptyCommit(t *testing.T) {
	_, c := twoSites()
	txn := c.Begin()
	if err := txn.Commit(context.Background()); err != nil {
		t.Fatalf("empty commit: %v", err)
	}
}

func TestPrepareNoAbortsEverywhere(t *testing.T) {
	p, c := twoSites()
	p["b"].failPrepare = true
	ctx := context.Background()
	txn := c.Begin()
	txn.ExecSite(ctx, "a", "x") //nolint:errcheck
	txn.ExecSite(ctx, "b", "x") //nolint:errcheck
	err := txn.Commit(ctx)
	if !errors.Is(err, ErrPrepareFailed) {
		t.Fatalf("want ErrPrepareFailed, got %v", err)
	}
	if p["a"].aborts != 1 || p["b"].aborts != 1 {
		t.Errorf("aborts: a=%d b=%d", p["a"].aborts, p["b"].aborts)
	}
	if c.Stats.PrepareNo.Load() != 1 || c.Stats.Aborted.Load() != 1 {
		t.Error("stats not updated")
	}
	// The transaction is dead.
	if _, err := txn.ExecSite(ctx, "a", "x"); !errors.Is(err, ErrAborted) {
		t.Errorf("exec after failed commit: %v", err)
	}
}

func TestTimeoutAbortsGlobally(t *testing.T) {
	p, c := twoSites()
	ctx := context.Background()
	txn := c.Begin()
	if _, err := txn.ExecSite(ctx, "a", "x"); err != nil {
		t.Fatal(err)
	}
	p["b"].failExec = fmt.Errorf("wrapped: %w", gateway.ErrTimeout)
	_, err := txn.ExecSite(ctx, "b", "x")
	if !errors.Is(err, ErrDeadlockAbort) {
		t.Fatalf("want ErrDeadlockAbort, got %v", err)
	}
	// Every branch was rolled back, including site a.
	if p["a"].aborts != 1 {
		t.Error("site a not aborted after timeout at b")
	}
	if c.Stats.TimeoutAborts.Load() != 1 {
		t.Error("timeout abort not counted")
	}
	if txn.Active() {
		t.Error("transaction still active")
	}
	// Later operations report the deadlock abort.
	if err := querySite(ctx, txn, "a", "x"); !errors.Is(err, ErrDeadlockAbort) {
		t.Errorf("post-abort query: %v", err)
	}
}

// TestQueryStreamFailureAbortsTxn: transactional reads stream, and a
// lock timeout or a wound — whether the site reports it when the stream
// opens or mid-Next — aborts the whole global transaction with the
// matching error, rolling back every branch.
func TestQueryStreamFailureAbortsTxn(t *testing.T) {
	for _, tc := range []struct {
		name    string
		siteErr error
		want    error
	}{
		{"lock timeout", gateway.ErrTimeout, ErrDeadlockAbort},
		{"wound", gateway.ErrWounded, ErrWounded},
	} {
		for _, midStream := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/midStream=%v", tc.name, midStream), func(t *testing.T) {
				p, c := twoSites()
				ctx := context.Background()
				txn := c.Begin()
				if err := querySite(ctx, txn, "a", "q"); err != nil {
					t.Fatal(err)
				}
				if midStream {
					p["b"].failNext = fmt.Errorf("site b: %w", tc.siteErr)
				} else {
					p["b"].failExec = fmt.Errorf("site b: %w", tc.siteErr)
				}
				if err := querySite(ctx, txn, "b", "q"); !errors.Is(err, tc.want) {
					t.Fatalf("want %v, got %v", tc.want, err)
				}
				if txn.Active() {
					t.Error("transaction still active")
				}
				if p["a"].aborts != 1 {
					t.Errorf("site a aborts = %d, want 1", p["a"].aborts)
				}
				if err := txn.Commit(ctx); !errors.Is(err, tc.want) {
					t.Errorf("commit after abort: %v", err)
				}
			})
		}
	}
}

// TestConcurrentQueryStreamFailures: scan streams failing at two sites
// at once (the executor reads sites in parallel) abort the transaction
// exactly once, and both readers see the wound.
func TestConcurrentQueryStreamFailures(t *testing.T) {
	p, c := twoSites()
	ctx := context.Background()
	txn := c.Begin()
	for _, site := range []string{"a", "b"} {
		p[site].failNext = fmt.Errorf("site %s: %w", site, gateway.ErrWounded)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, site := range []string{"a", "b"} {
		wg.Add(1)
		go func(i int, site string) {
			defer wg.Done()
			errs[i] = querySite(ctx, txn, site, "q")
		}(i, site)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrWounded) {
			t.Errorf("reader %d: want ErrWounded, got %v", i, err)
		}
	}
	if txn.Active() {
		t.Error("transaction still active")
	}
	if got := c.Stats.Aborted.Load(); got != 1 {
		t.Errorf("aborted %d times, want 1", got)
	}
}

func TestNonTimeoutErrorKeepsTxnAlive(t *testing.T) {
	p, c := twoSites()
	ctx := context.Background()
	txn := c.Begin()
	p["a"].failExec = errors.New("syntax error")
	if _, err := txn.ExecSite(ctx, "a", "x"); err == nil {
		t.Fatal("error swallowed")
	}
	if !txn.Active() {
		t.Error("plain error killed the transaction")
	}
	p["a"].failExec = nil
	if _, err := txn.ExecSite(ctx, "a", "x"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestAbortIdempotent(t *testing.T) {
	p, c := twoSites()
	ctx := context.Background()
	txn := c.Begin()
	txn.ExecSite(ctx, "a", "x") //nolint:errcheck
	txn.Abort(ctx)
	txn.Abort(ctx)
	if p["a"].aborts != 1 {
		t.Errorf("aborts = %d", p["a"].aborts)
	}
	if c.Stats.Aborted.Load() != 1 {
		t.Error("abort double-counted")
	}
}

func TestUnknownSite(t *testing.T) {
	_, c := twoSites()
	txn := c.Begin()
	if _, err := txn.ExecSite(context.Background(), "mars", "x"); err == nil {
		t.Error("unknown site accepted")
	}
}

func TestConcurrentBranchCreation(t *testing.T) {
	_, c := twoSites()
	ctx := context.Background()
	txn := c.Begin()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			site := "a"
			if i%2 == 0 {
				site = "b"
			}
			if err := querySite(ctx, txn, site, "q"); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := len(txn.Sites()); got != 2 {
		t.Errorf("branches = %d, want 2 (one per site)", got)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestVictimWaitsForWoundToFinish: when the detector's Wound claims a
// transaction, the victim's own operation loses the abort claim — it
// must not report ErrWounded until the wound has rolled back every
// branch and counted itself, or a retry would run into the victim's
// still-held locks and callers would read unsettled stats. Covers a
// victim whose site call was in flight (the site refuses it with a
// wound) and one that starts its next operation mid-abort.
func TestVictimWaitsForWoundToFinish(t *testing.T) {
	for _, inFlight := range []bool{true, false} {
		p, c := twoSites()
		ctx := context.Background()
		txn := c.Begin()
		if _, err := txn.ExecSite(ctx, "a", "x"); err != nil {
			t.Fatal(err)
		}
		a := p["a"]
		a.abortStarted, a.abortHold = make(chan struct{}), make(chan struct{})
		if inFlight {
			a.execStarted, a.execHold = make(chan struct{}), make(chan struct{})
			a.failExec = gateway.ErrWounded
		}
		type result struct {
			err     error
			wounded int64
		}
		done := make(chan result, 1)
		victim := func() {
			_, err := txn.ExecSite(ctx, "a", "x")
			done <- result{err, c.Stats.Wounded.Load()}
		}
		if inFlight {
			go victim()
			<-a.execStarted
		}
		go c.Wound(txn.ID())
		<-a.abortStarted // the wound owns the transaction, mid-rollback
		if inFlight {
			close(a.execHold)
		} else {
			go victim()
		}
		select {
		case r := <-done:
			t.Fatalf("inFlight=%v: victim returned %v (Wounded stat %d) before its abort finished", inFlight, r.err, r.wounded)
		case <-time.After(100 * time.Millisecond):
		}
		close(a.abortHold)
		select {
		case r := <-done:
			if !errors.Is(r.err, ErrWounded) {
				t.Fatalf("inFlight=%v: victim err = %v, want ErrWounded", inFlight, r.err)
			}
			if r.wounded != 1 {
				t.Fatalf("inFlight=%v: Wounded stat = %d when the victim returned", inFlight, r.wounded)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("inFlight=%v: victim never returned", inFlight)
		}
	}
}
