package gtm

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// The regression suite for the commit/abort races this package's state
// machine exists to close. Each test encodes a bug that the pre-state-
// machine coordinator exhibited: run them against that code and they
// fail.

// TestAbortDuringCommitIsNoOp: an Abort arriving while Commit is mid
// phase one must not touch the branches. The old coordinator rolled
// them back underneath the prepare fan-out and then reported the
// transaction committed — committed-but-rolled-back, the worst answer a
// transaction manager can give.
func TestAbortDuringCommitIsNoOp(t *testing.T) {
	p, c := twoSites()
	ctx := context.Background()
	txn := c.Begin()
	txn.ExecSite(ctx, "a", "x") //nolint:errcheck
	txn.ExecSite(ctx, "b", "x") //nolint:errcheck

	started := make(chan struct{})
	hold := make(chan struct{})
	p["a"].prepareStarted = started
	p["a"].prepareHold = hold

	commitDone := make(chan error, 1)
	go func() { commitDone <- txn.Commit(ctx) }()

	<-started // phase one is in flight
	txn.Abort(ctx)
	close(hold)

	if err := <-commitDone; err != nil {
		t.Fatalf("Commit = %v, want nil (abort lost the race)", err)
	}
	if got := txn.State(); got != "committed" {
		t.Fatalf("state = %s, want committed", got)
	}
	for _, site := range []string{"a", "b"} {
		if p[site].aborts != 0 {
			t.Fatalf("site %s saw %d abort(s) during a committing transaction", site, p[site].aborts)
		}
		if p[site].commits != 1 {
			t.Fatalf("site %s commits = %d, want 1", site, p[site].commits)
		}
	}
	if a, cm := c.Stats.Aborted.Load(), c.Stats.Committed.Load(); a != 0 || cm != 1 {
		t.Fatalf("stats aborted=%d committed=%d, want 0/1", a, cm)
	}
}

// TestPhaseTwoFailureIsInDoubtNotCommitted: a failed phase-two commit
// used to count the transaction as Committed and report success to the
// caller while a participant still held a prepared branch. It must be
// in-doubt — distinct error, distinct stat — until resolution re-drives
// the durable decision.
func TestPhaseTwoFailureIsInDoubtNotCommitted(t *testing.T) {
	p, c := twoSites()
	ctx := context.Background()
	txn := c.Begin()
	txn.ExecSite(ctx, "a", "x") //nolint:errcheck
	txn.ExecSite(ctx, "b", "x") //nolint:errcheck

	p["b"].failCommit = errors.New("site b unreachable")
	err := txn.Commit(ctx)
	if !errors.Is(err, ErrInDoubt) {
		t.Fatalf("Commit = %v, want ErrInDoubt", err)
	}
	if got := txn.State(); got != "in-doubt" {
		t.Fatalf("state = %s, want in-doubt", got)
	}
	if id, cm := c.Stats.InDoubt.Load(), c.Stats.Committed.Load(); id != 1 || cm != 0 {
		t.Fatalf("stats indoubt=%d committed=%d, want 1/0", id, cm)
	}
	if c.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (entry must survive for resolution)", c.Pending())
	}

	// The participant comes back; resolution finishes the commit and
	// moves the stats bucket.
	p["b"].failCommit = nil
	if err := c.Recover(ctx); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := txn.State(); got != "committed" {
		t.Fatalf("state after resolution = %s, want committed", got)
	}
	if id, cm := c.Stats.InDoubt.Load(), c.Stats.Committed.Load(); id != 0 || cm != 1 {
		t.Fatalf("stats after resolution indoubt=%d committed=%d, want 0/1", id, cm)
	}
	if c.Pending() != 0 {
		t.Fatalf("pending = %d after resolution, want 0", c.Pending())
	}
	if p["b"].commits != 1 {
		t.Fatalf("site b commits = %d, want 1 (resolution re-drove it)", p["b"].commits)
	}
}

// TestPrepareBoundedByOpTimeout: phase one against a wedged participant
// must expire with the coordinator's timeout and abort, not hang. The
// old Prepare RPC ignored OpTimeout entirely.
func TestPrepareBoundedByOpTimeout(t *testing.T) {
	p, c := twoSites()
	c.OpTimeout = 50 * time.Millisecond
	p["b"].stallPrepare = true
	ctx := context.Background()
	txn := c.Begin()
	txn.ExecSite(ctx, "a", "x") //nolint:errcheck
	txn.ExecSite(ctx, "b", "x") //nolint:errcheck

	start := time.Now()
	err := txn.Commit(ctx)
	if !errors.Is(err, ErrPrepareFailed) {
		t.Fatalf("Commit = %v, want ErrPrepareFailed", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("commit against a stalled participant took %v; the phase is unbounded", elapsed)
	}
	if p["a"].aborts != 1 {
		t.Fatalf("site a aborts = %d, want 1", p["a"].aborts)
	}
}

// TestCommitAbortStress hammers one transaction per round with a
// racing Commit, Abort, and query under -race: exactly one terminal
// state, the Commit error agreeing with it, and the stats identity
// Begun == Committed + Aborted + InDoubt holding at the end.
func TestCommitAbortStress(t *testing.T) {
	p, c := twoSites()
	ctx := context.Background()
	const rounds = 100
	for i := 0; i < rounds; i++ {
		txn := c.Begin()
		if _, err := txn.ExecSite(ctx, "a", "x"); err != nil {
			t.Fatal(err)
		}
		if _, err := txn.ExecSite(ctx, "b", "x"); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var commitErr error
		wg.Add(3)
		go func() { defer wg.Done(); commitErr = txn.Commit(ctx) }()
		go func() { defer wg.Done(); txn.Abort(ctx) }()
		go func() {
			defer wg.Done()
			querySite(ctx, txn, "a", "q") //nolint:errcheck
		}()
		wg.Wait()

		st := txn.State()
		if st != "committed" && st != "aborted" {
			t.Fatalf("round %d: terminal state = %s", i, st)
		}
		if (commitErr == nil) != (st == "committed") {
			t.Fatalf("round %d: Commit err %v disagrees with state %s", i, commitErr, st)
		}
		if commitErr != nil && !errors.Is(commitErr, ErrAborted) {
			t.Fatalf("round %d: losing Commit returned %v, want ErrAborted", i, commitErr)
		}
	}
	begun := c.Stats.Begun.Load()
	sum := c.Stats.Committed.Load() + c.Stats.Aborted.Load() + c.Stats.InDoubt.Load()
	if begun != rounds || begun != sum {
		t.Fatalf("stats identity broken: begun=%d committed+aborted+indoubt=%d", begun, sum)
	}
	// Every branch the sites saw was finished exactly once.
	for _, site := range []string{"a", "b"} {
		f := p[site]
		if f.commits+f.aborts < rounds {
			t.Fatalf("site %s finished %d branches, want >= %d", site, f.commits+f.aborts, rounds)
		}
	}
}
