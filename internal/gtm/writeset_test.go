package gtm

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"myriad/internal/gateway"
	"myriad/internal/wal"
)

// finishLog records every write set the OnFinish hook receives.
type finishLog struct {
	mu    sync.Mutex
	calls [][]Write
}

func (l *finishLog) hook(writes []Write) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls = append(l.calls, append([]Write(nil), writes...))
}

// take returns the recorded calls (each sorted) and resets the log.
func (l *finishLog) take() [][]Write {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.calls
	l.calls = nil
	for _, ws := range out {
		sort.Slice(ws, func(i, j int) bool {
			if ws[i].Site != ws[j].Site {
				return ws[i].Site < ws[j].Site
			}
			return ws[i].Export < ws[j].Export
		})
	}
	return out
}

func expectFinished(t *testing.T, l *finishLog, want ...[]Write) {
	t.Helper()
	if got := l.take(); !reflect.DeepEqual(got, want) {
		t.Fatalf("OnFinish calls = %v, want %v", got, want)
	}
}

// TestWriteSetTargets: ExecSite parses each statement's target into the
// write set — deduplicated, in export names as spelled — and anything
// that is not a parseable INSERT/UPDATE/DELETE becomes a whole-site
// wildcard. One-phase and two-phase commits both report the set.
func TestWriteSetTargets(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name  string
		execs [][2]string // site, sql
		want  []Write
	}{
		{"two-phase", [][2]string{
			{"a", `UPDATE ACCT SET bal = bal - 1 WHERE id = 1`},
			{"b", `INSERT INTO part (id) VALUES (7)`},
			{"b", `DELETE FROM Part WHERE id = 8`},
		}, []Write{{"a", "ACCT"}, {"b", "Part"}, {"b", "part"}}},
		{"one-phase, deduplicated", [][2]string{
			{"a", `UPDATE ACCT SET bal = 0 WHERE id = 1`},
			{"a", `UPDATE ACCT SET bal = 1 WHERE id = 2`},
		}, []Write{{"a", "ACCT"}}},
		{"unparseable target", [][2]string{{"a", `x`}}, []Write{{"a", ""}}},
		{"non-DML statement", [][2]string{{"a", `SELECT id FROM acct`}}, []Write{{"a", ""}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c := twoSites()
			var l finishLog
			c.OnFinish = l.hook
			txn := c.Begin()
			for _, e := range tc.execs {
				if _, err := txn.ExecSite(ctx, e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
			if err := txn.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			expectFinished(t, &l, tc.want)
		})
	}
}

// TestReadOnlyReportsNothing: a transaction that never issued ExecSite
// has nothing to invalidate, committed or aborted.
func TestReadOnlyReportsNothing(t *testing.T) {
	ctx := context.Background()
	_, c := twoSites()
	var l finishLog
	c.OnFinish = l.hook
	for _, commit := range []bool{true, false} {
		txn := c.Begin()
		if err := querySite(ctx, txn, "a", `SELECT id FROM acct`); err != nil {
			t.Fatal(err)
		}
		if commit {
			if err := txn.Commit(ctx); err != nil {
				t.Fatal(err)
			}
		} else {
			txn.Abort(ctx)
		}
	}
	expectFinished(t, &l)
}

// TestAbortReportsWriteSet: every way a writing transaction can abort
// reports its write set, since a site may have served the uncommitted
// values while they were in place.
func TestAbortReportsWriteSet(t *testing.T) {
	ctx := context.Background()
	upd := `UPDATE ACCT SET bal = 0 WHERE id = 1`
	want := []Write{{"a", "ACCT"}, {"b", "ACCT"}}
	cases := []struct {
		name string
		run  func(p fakeProvider, c *Coordinator, txn *Txn) error
		want error
	}{
		{"explicit", func(_ fakeProvider, _ *Coordinator, txn *Txn) error {
			txn.Abort(ctx)
			return nil
		}, nil},
		{"prepare failure", func(p fakeProvider, _ *Coordinator, txn *Txn) error {
			p["b"].failPrepare = true
			return txn.Commit(ctx)
		}, ErrPrepareFailed},
		{"timeout", func(p fakeProvider, _ *Coordinator, txn *Txn) error {
			p["b"].failExec = fmt.Errorf("wrapped: %w", gateway.ErrTimeout)
			_, err := txn.ExecSite(ctx, "b", upd)
			return err
		}, ErrDeadlockAbort},
		{"wound", func(_ fakeProvider, c *Coordinator, txn *Txn) error {
			if !c.Wound(txn.ID()) {
				return errors.New("wound found no active transaction")
			}
			return nil
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, c := twoSites()
			var l finishLog
			c.OnFinish = l.hook
			txn := c.Begin()
			for _, site := range []string{"a", "b"} {
				if _, err := txn.ExecSite(ctx, site, upd); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.run(p, c, txn); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			expectFinished(t, &l, want)
		})
	}
}

// TestInDoubtReportsTwice: a decided commit that phase two could not
// finish reports its write set when Commit returns in-doubt (some sites
// may have applied it) and again when Recover finishes it.
func TestInDoubtReportsTwice(t *testing.T) {
	ctx := context.Background()
	p, c := twoSites()
	var l finishLog
	c.OnFinish = l.hook
	txn := c.Begin()
	for _, site := range []string{"a", "b"} {
		if _, err := txn.ExecSite(ctx, site, `UPDATE ACCT SET bal = 0 WHERE id = 1`); err != nil {
			t.Fatal(err)
		}
	}
	p["b"].failCommit = errors.New("site b unreachable")
	if err := txn.Commit(ctx); !errors.Is(err, ErrInDoubt) {
		t.Fatalf("Commit = %v, want ErrInDoubt", err)
	}
	want := []Write{{"a", "ACCT"}, {"b", "ACCT"}}
	expectFinished(t, &l, want)

	p["b"].failCommit = nil
	if err := c.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	expectFinished(t, &l, want)
}

// TestReplayedCommitReportsWildcards: an entry replayed from the log
// after a restart has no live Txn, so Recover reports every export at
// every participant site.
func TestReplayedCommitReportsWildcards(t *testing.T) {
	ctx := context.Background()
	p := fakeProvider{"a": newFake("a"), "b": newFake("b")}
	c := bareCoord(p)
	path := coordLogPath(t)
	if err := c.AttachLog(path, wal.Options{Sync: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}
	var l finishLog
	c.OnFinish = l.hook
	txn := c.Begin()
	for _, site := range []string{"a", "b"} {
		if _, err := txn.ExecSite(ctx, site, `UPDATE ACCT SET bal = 0 WHERE id = 1`); err != nil {
			t.Fatal(err)
		}
	}
	c.ArmKill(KillAfterDecision)
	if err := txn.Commit(ctx); !errors.Is(err, ErrCoordinatorKilled) {
		t.Fatalf("Commit = %v, want ErrCoordinatorKilled", err)
	}
	expectFinished(t, &l)

	c2, err := NewWithLog(p, path, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() }) //nolint:errcheck
	c2.OnFinish = l.hook
	if err := c2.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	expectFinished(t, &l, []Write{{"a", ""}, {"b", ""}})
}
