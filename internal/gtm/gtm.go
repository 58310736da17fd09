// Package gtm implements MYRIAD's global transaction management: global
// transactions spanning component DBMSs, two-phase commit over the
// gateways (so serializable local schedules compose into a serializable
// global schedule under strict 2PL), and the paper's global-deadlock
// policy — a timeout attached to each local query; expiry is presumed to
// be a global deadlock and aborts the entire global transaction.
//
// Commit durability rides a WAL-backed coordinator log (see log.go and
// README.md): the commit decision is fsynced before phase two, a
// restarted coordinator replays the log and re-drives unfinished
// outcomes, and a recovering participant resolves its prepared branches
// by asking the coordinator. The transaction state machine
// (stActive → stPreparing → stCommitting/stAborting → terminal) makes
// Commit, timeout-driven aborts, and recovery mutually exclusive: once
// a transaction leaves stActive exactly one party drives it to exactly
// one terminal state.
package gtm

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"myriad/internal/gateway"
	"myriad/internal/schema"
	"myriad/internal/sqlparser"
	"myriad/internal/wal"
)

// Errors reported by the coordinator.
var (
	// ErrAborted means the global transaction was aborted (possibly
	// automatically after a local timeout).
	ErrAborted = errors.New("gtm: global transaction aborted")
	// ErrDeadlockAbort wraps ErrAborted when the cause was a local
	// query timeout (presumed global deadlock).
	ErrDeadlockAbort = fmt.Errorf("%w: local timeout, presumed global deadlock", ErrAborted)
	// ErrWounded wraps ErrAborted when the transaction was chosen as a
	// deadlock victim — preempted by a site's wound-wait fast path or
	// picked by the coordinator's global detector. Like
	// ErrDeadlockAbort it is retryable: the conflicting transaction has
	// won the conflict and a retry usually finds the locks free.
	ErrWounded = fmt.Errorf("%w: chosen as deadlock victim (wounded)", ErrAborted)
	// ErrPrepareFailed is returned by Commit when a participant voted
	// no; the transaction has been rolled back everywhere.
	ErrPrepareFailed = errors.New("gtm: a participant failed to prepare; transaction rolled back")
	// ErrInDoubt is returned by Commit when the commit decision is
	// durable but at least one participant has not acknowledged it. The
	// transaction WILL commit — the decision is logged and resolution
	// (Coordinator.Recover) re-drives it — but the caller must not
	// assume every site already applied it.
	ErrInDoubt = errors.New("gtm: commit decided but not yet acknowledged everywhere")
	// ErrCoordinatorKilled is returned by Commit when an armed crash
	// point fired (test instrumentation; see ArmKill).
	ErrCoordinatorKilled = errors.New("gtm: coordinator killed at crash point")
)

// ConnProvider resolves a site name to its gateway connection. It is
// consulted afresh for recovery re-drives, so a site restarted at a new
// address resolves to its new connection.
type ConnProvider interface {
	Conn(site string) (gateway.Conn, bool)
}

// SiteLister is optionally implemented by a ConnProvider that knows the
// federation's full site roster. The deadlock detector polls every
// listed site; without it, only sites the live global transactions have
// touched are polled. The fallback still finds every cycle involving
// this coordinator's transactions — a cycle edge touching one of its
// branches can only exist at a site that branch was opened at — but
// sees fewer purely-local edges.
type SiteLister interface {
	Sites() []string
}

// Stats counts transaction outcomes (atomic; safe to read concurrently).
// Every finished transaction lands in exactly one of Committed,
// Aborted, or InDoubt; resolving an in-doubt transaction moves it from
// InDoubt to its final bucket, so Begun == Committed+Aborted+InDoubt
// holds whenever no transaction is mid-flight.
type Stats struct {
	Begun         atomic.Int64
	Committed     atomic.Int64
	Aborted       atomic.Int64
	TimeoutAborts atomic.Int64
	PrepareNo     atomic.Int64
	InDoubt       atomic.Int64
	// Wounded counts aborts where the transaction was chosen as a
	// deadlock victim (site wound-wait fast path or global detector);
	// each is also counted in Aborted.
	Wounded atomic.Int64
}

// KillPoint names a coordinator crash point for the recovery tests.
type KillPoint int32

// The crash points. Killing "after prepare" models a coordinator lost
// between collecting yes votes and logging the decision (recovery must
// presume abort); "after decision" models one lost between the durable
// decision and phase two (recovery must re-drive the commit).
const (
	KillNone KillPoint = iota
	KillAfterPrepare
	KillAfterDecision
)

// defaultPhaseTimeout bounds each 2PC RPC (prepare, commit, abort, and
// recovery re-drives) when no OpTimeout is configured, so one stalled
// site can never pin a commit forever.
const defaultPhaseTimeout = 30 * time.Second

// Coordinator creates and finishes global transactions for one
// federation.
type Coordinator struct {
	provider ConnProvider
	// OpTimeout is attached to every local query/update submitted to a
	// gateway on behalf of a global transaction (paper §2), and bounds
	// each 2PC phase RPC. Zero means no coordinator-imposed timeout on
	// queries and the default phase timeout on 2PC RPCs.
	OpTimeout time.Duration

	// TestHookBetweenPhases, when set, runs after the commit decision is
	// durable and before phase two begins (crash-matrix tests kill a
	// participant here).
	TestHookBetweenPhases func()

	// OnFinish, when set, receives the write set of every global
	// transaction that issued ExecSite, once its writes have settled at
	// the sites: after a commit (one-phase, two-phase, a commit that went
	// in-doubt, and again when resolution finishes it) and after an abort
	// (explicit, timeout, wound, prepare failure) — a site could have
	// served the uncommitted values while they were in place. An entry
	// replayed from the coordinator log has no live Txn and so no write
	// set; when Recover finishes it, OnFinish receives a wildcard Write
	// for every participant site. The federation hooks it to invalidate
	// exactly those entries of its statistics cache: cached per-site
	// stats drive source pruning, so they must not survive writes the
	// federation itself coordinated. Set it before the coordinator
	// begins transactions; the callback must be safe to call from
	// multiple goroutines.
	OnFinish func(writes []Write)

	nextID atomic.Uint64
	Stats  Stats

	// liveMu guards live: every not-yet-terminal transaction by global
	// id, so the deadlock detector (and the wound-wait fast path's error
	// return) can find its victim. Entries retire when the transaction
	// reaches a state the detector must not wound.
	liveMu sync.Mutex
	live   map[uint64]*Txn

	// detMu guards the background detector's lifecycle.
	detMu   sync.Mutex
	detStop chan struct{}
	detDone chan struct{}

	// pendMu guards pend and log appends (the log itself also locks, but
	// pend updates must be atomic with their records).
	pendMu sync.Mutex
	pend   map[uint64]*pendingGlobal
	log    *wal.Log
	path   string
	opts   wal.Options // how the attached log was opened (compaction reuses it)

	// compactBytes, when positive, compacts the coordinator log once it
	// grows past this many bytes (see CompactLog).
	compactBytes int64

	kill atomic.Int32 // armed KillPoint
	dead atomic.Bool  // a kill point fired; the coordinator is frozen
}

// New returns a coordinator resolving sites through provider.
//
// It honors the MYRIAD_TEST_DURABLE env hook the way localdb does: when
// set, the coordinator log is opened in a fresh temp directory with
// always-fsync appends, so a test run forces every federation through
// the durable decision-logging path without touching call sites.
func New(provider ConnProvider) *Coordinator {
	c := &Coordinator{provider: provider, pend: make(map[uint64]*pendingGlobal), live: make(map[uint64]*Txn)}
	if v := os.Getenv("MYRIAD_TEST_DURABLE"); v != "" {
		dir, err := os.MkdirTemp("", "myriad-coordlog-*")
		if err != nil {
			panic(fmt.Sprintf("gtm: MYRIAD_TEST_DURABLE tempdir: %v", err))
		}
		if err := c.AttachLog(filepath.Join(dir, "coord.log"), wal.Options{Sync: wal.SyncAlways}); err != nil {
			panic(fmt.Sprintf("gtm: MYRIAD_TEST_DURABLE coordinator log: %v", err))
		}
	}
	return c
}

// NewWithLog returns a coordinator attached to the coordinator log at
// path, replaying whatever the log holds (skipping the env hook — the
// caller has chosen its log). Used to restart a coordinator over an
// existing log after a crash; pair with Recover to re-drive what the
// replay found unfinished.
func NewWithLog(provider ConnProvider, path string, opts wal.Options) (*Coordinator, error) {
	c := &Coordinator{provider: provider, pend: make(map[uint64]*pendingGlobal), live: make(map[uint64]*Txn)}
	if err := c.AttachLog(path, opts); err != nil {
		return nil, err
	}
	return c, nil
}

type txnState uint8

const (
	stActive txnState = iota
	stPreparing
	stCommitting
	stAborting
	stCommitted
	stAborted
	stInDoubt
)

func (s txnState) String() string {
	switch s {
	case stActive:
		return "active"
	case stPreparing:
		return "preparing"
	case stCommitting:
		return "committing"
	case stAborting:
		return "aborting"
	case stCommitted:
		return "committed"
	case stAborted:
		return "aborted"
	case stInDoubt:
		return "in-doubt"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Write names one export relation a global transaction wrote at one
// site, in export-schema names as the ExecSite statement spelled them.
// An empty Export stands for every export at Site: the coordinator
// could not tell which relation the statement touched.
type Write struct {
	Site, Export string
}

// Txn is one global transaction.
type Txn struct {
	c  *Coordinator
	id uint64

	mu       sync.Mutex
	state    txnState
	branches map[string]branch // by site
	// writes is the write set; it only grows while stActive, so once
	// Commit or an abort has claimed the transaction it is final.
	writes []Write
	// timedOut records that the abort was triggered by a local timeout.
	timedOut bool
	// wounded records that the abort was a deadlock-victim preemption.
	wounded bool
	// aborted is closed once an abort has rolled back every branch and
	// settled the stats. A caller that loses the abort claim to another
	// party (the detector's Wound, say) waits on it, so an ErrWounded it
	// returns means the victim's locks are already released.
	aborted chan struct{}
}

type branch struct {
	conn gateway.Conn
	id   uint64
}

// Begin opens a global transaction. Global ids are handed out
// monotonically, so a smaller id means an older transaction — the
// seniority order wound-wait preemption and victim selection use.
func (c *Coordinator) Begin() *Txn {
	c.Stats.Begun.Add(1)
	t := &Txn{c: c, id: c.nextID.Add(1), branches: make(map[string]branch), aborted: make(chan struct{})}
	c.liveMu.Lock()
	if c.live == nil {
		c.live = make(map[uint64]*Txn)
	}
	c.live[t.id] = t
	c.liveMu.Unlock()
	return t
}

// retire drops a transaction from the live registry once it reaches a
// state the deadlock detector must not wound.
func (c *Coordinator) retire(t *Txn) {
	c.liveMu.Lock()
	delete(c.live, t.id)
	c.liveMu.Unlock()
}

// Wound aborts the live global transaction gid as a deadlock victim.
// It reports whether a still-active transaction was found and claimed;
// once Commit has claimed the transaction the wound is a no-op (the
// transaction is no longer waiting on locks, so it cannot be part of a
// deadlock the detector needs to break).
func (c *Coordinator) Wound(gid uint64) bool {
	c.liveMu.Lock()
	t := c.live[gid]
	c.liveMu.Unlock()
	if t == nil {
		return false
	}
	t.mu.Lock()
	claimed := t.state == stActive
	t.mu.Unlock()
	if !claimed {
		return false
	}
	t.abortInternal(context.Background(), false, true)
	return true
}

// ID returns the global transaction id.
func (t *Txn) ID() uint64 { return t.id }

// State reports the transaction's lifecycle stage (for tests/metrics).
func (t *Txn) State() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state.String()
}

// Sites lists the sites this transaction has touched.
func (t *Txn) Sites() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.branches))
	for s := range t.branches {
		out = append(out, s)
	}
	return out
}

// branchFor lazily opens the local transaction branch at site.
func (t *Txn) branchFor(ctx context.Context, site string) (branch, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != stActive {
		err := t.doneErr()
		if t.state == stAborting {
			t.mu.Unlock()
			t.awaitAbort(ctx)
			t.mu.Lock()
		}
		return branch{}, err
	}
	if br, ok := t.branches[site]; ok {
		return br, nil
	}
	conn, ok := t.c.provider.Conn(site)
	if !ok {
		return branch{}, fmt.Errorf("gtm: unknown site %q", site)
	}
	id, err := conn.Begin(ctx, t.id)
	if err != nil {
		return branch{}, fmt.Errorf("gtm: begin at %s: %w", site, err)
	}
	br := branch{conn: conn, id: id}
	t.branches[site] = br
	return br, nil
}

// doneErr describes why the transaction accepts no further operations;
// callers hold t.mu.
func (t *Txn) doneErr() error {
	switch t.state {
	case stAborting, stAborted:
		if t.wounded {
			return ErrWounded
		}
		if t.timedOut {
			return ErrDeadlockAbort
		}
		return ErrAborted
	case stInDoubt:
		return ErrInDoubt
	case stCommitted:
		return fmt.Errorf("gtm: transaction %d already committed", t.id)
	default:
		return fmt.Errorf("gtm: transaction %d is committing", t.id)
	}
}

// opCtx attaches the coordinator's per-local-query timeout.
func (t *Txn) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if t.c.OpTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, t.c.OpTimeout)
}

// phaseTimeout bounds one 2PC RPC.
func (c *Coordinator) phaseTimeout() time.Duration {
	if c.OpTimeout > 0 {
		return c.OpTimeout
	}
	return defaultPhaseTimeout
}

// handleErr aborts the whole global transaction when a local operation
// was wounded (this transaction lost a deadlock preemption) or timed
// out — the paper's presumed-deadlock rule. The abort only takes
// effect while the transaction is still active: once Commit has begun,
// a stale timeout cannot roll back branches mid-phase.
func (t *Txn) handleErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, gateway.ErrWounded) {
		t.abortInternal(ctx, false, true)
		return fmt.Errorf("%w (site error: %v)", ErrWounded, err)
	}
	if errors.Is(err, gateway.ErrTimeout) || errors.Is(err, context.DeadlineExceeded) {
		t.abortInternal(ctx, true, false)
		return fmt.Errorf("%w (site error: %v)", ErrDeadlockAbort, err)
	}
	return err
}

// QuerySite streams a canonical SELECT at one site inside the
// transaction. It implements executor.SiteRunner, so global queries run
// with transactional (serializable) semantics. The OpTimeout stays
// armed until the stream closes, and a wound or lock timeout — at open
// or mid-stream — aborts the whole global transaction.
func (t *Txn) QuerySite(ctx context.Context, site, sql string) (schema.RowStream, error) {
	br, err := t.branchFor(ctx, site)
	if err != nil {
		return nil, err
	}
	opctx, cancel := t.opCtx(ctx)
	st, err := br.conn.QueryStream(opctx, br.id, sql)
	if err != nil {
		cancel()
		return nil, t.handleErr(ctx, err)
	}
	return &txnStream{RowStream: st, t: t, cancel: cancel}, nil
}

// txnStream routes a branch stream's errors through handleErr and
// disarms the operation timeout on Close.
type txnStream struct {
	schema.RowStream
	t      *Txn
	cancel context.CancelFunc
}

func (s *txnStream) Next(ctx context.Context) (schema.Row, error) {
	r, err := s.RowStream.Next(ctx)
	return r, s.t.handleErr(ctx, err)
}

func (s *txnStream) Close() error {
	err := s.RowStream.Close()
	s.cancel()
	return err
}

// ExecSite runs canonical DML at one site inside the transaction. The
// statement's target joins the write set before it is shipped, so even
// an Exec that fails part-way is covered when the transaction finishes.
func (t *Txn) ExecSite(ctx context.Context, site, sql string) (int, error) {
	t.noteWrite(Write{Site: site, Export: writeTarget(sql)})
	br, err := t.branchFor(ctx, site)
	if err != nil {
		return 0, err
	}
	opctx, cancel := t.opCtx(ctx)
	defer cancel()
	n, err := br.conn.Exec(opctx, br.id, sql)
	if err != nil {
		return 0, t.handleErr(ctx, err)
	}
	return n, nil
}

// writeTarget names the export relation a DML statement writes, or ""
// (every export at the site) when sql is not a parseable INSERT, UPDATE
// or DELETE.
func writeTarget(sql string) string {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return ""
	}
	switch s := stmt.(type) {
	case *sqlparser.Insert:
		return s.Table
	case *sqlparser.Update:
		return s.Table
	case *sqlparser.Delete:
		return s.Table
	}
	return ""
}

// noteWrite adds w to the write set of a still-active transaction; an
// operation on a claimed transaction fails before it reaches a site.
func (t *Txn) noteWrite(w Write) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != stActive {
		return
	}
	for _, have := range t.writes {
		if have == w {
			return
		}
	}
	t.writes = append(t.writes, w)
}

// writeSet returns the transaction's write set (final once claimed).
func (t *Txn) writeSet() []Write {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.writes
}

// notifyFinish reports a settled write set to the OnFinish hook.
func (c *Coordinator) notifyFinish(writes []Write) {
	if hook := c.OnFinish; hook != nil && len(writes) > 0 {
		hook(writes)
	}
}

// Commit runs two-phase commit across every touched site: the global
// transaction is registered in the coordinator log, prepared everywhere
// in parallel, the commit decision is made durable, and then phase two
// drives the commits. Any no-vote (or prepare error) aborts everywhere
// and returns ErrPrepareFailed. A phase-two failure leaves the
// transaction in-doubt (ErrInDoubt): the durable decision guarantees it
// will commit once resolution reaches the participant. Transactions
// that touched at most one site use one-phase commit.
//
// Commit is mutually exclusive with timeout-driven aborts: the
// stActive→stPreparing transition claims the transaction, after which
// abortInternal is a no-op, so a concurrent local timeout can no longer
// roll back branches mid-phase and the outcome Commit reports is the
// outcome that happened.
func (t *Txn) Commit(ctx context.Context) error {
	t.mu.Lock()
	if t.state != stActive {
		err := t.doneErr()
		t.mu.Unlock()
		return err
	}
	t.state = stPreparing
	branches := make(map[string]branch, len(t.branches))
	for s, b := range t.branches {
		branches[s] = b
	}
	t.mu.Unlock()

	if len(branches) <= 1 {
		return t.commitOnePhase(ctx, branches)
	}

	if err := t.c.logBegin(t, branches); err != nil {
		t.finishAbort(branches, false)
		return fmt.Errorf("gtm: coordinator log: %w", err)
	}

	// Phase one: prepare everywhere in parallel, each RPC bounded so a
	// stalled site turns into a vote-no instead of an eternal hang.
	type vote struct {
		site string
		err  error
	}
	votes := make(chan vote, len(branches))
	for site, br := range branches {
		go func(site string, br branch) {
			pctx, cancel := context.WithTimeout(ctx, t.c.phaseTimeout())
			defer cancel()
			votes <- vote{site: site, err: br.conn.Prepare(pctx, br.id)}
		}(site, br)
	}
	var prepareErr error
	for range branches {
		v := <-votes
		if v.err != nil && prepareErr == nil {
			prepareErr = fmt.Errorf("site %s: %w", v.site, v.err)
		}
	}
	if prepareErr != nil {
		t.c.Stats.PrepareNo.Add(1)
		t.finishAbort(branches, false)
		return fmt.Errorf("%w (%v)", ErrPrepareFailed, prepareErr)
	}

	if t.c.killAt(KillAfterPrepare) {
		return ErrCoordinatorKilled
	}

	// The decision: one fsynced record is the commit point. If it cannot
	// be made durable the transaction aborts — participants are prepared
	// and will hear the abort (or presume it).
	if err := t.c.logDecision(t.id); err != nil {
		t.finishAbort(branches, false)
		return fmt.Errorf("gtm: logging commit decision: %w", err)
	}

	if t.c.killAt(KillAfterDecision) {
		return ErrCoordinatorKilled
	}
	if hook := t.c.TestHookBetweenPhases; hook != nil {
		hook()
	}

	t.mu.Lock()
	t.state = stCommitting
	t.mu.Unlock()

	// Phase two: commit everywhere in parallel. Participants promised to
	// commit after a successful prepare. The decision is already made,
	// so the caller's context no longer governs: each RPC runs on a
	// fresh bounded context.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var commitErr error
	for site, br := range branches {
		wg.Add(1)
		go func(site string, br branch) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(context.Background(), t.c.phaseTimeout())
			defer cancel()
			if err := br.conn.Commit(pctx, br.id); err != nil {
				mu.Lock()
				if commitErr == nil {
					commitErr = fmt.Errorf("phase-two commit at %s: %w", site, err)
				}
				mu.Unlock()
			}
		}(site, br)
	}
	wg.Wait()
	if commitErr != nil {
		// In-doubt: the decision is durable but not acknowledged
		// everywhere. The pending entry survives (Recover re-drives it);
		// the transaction is NOT counted committed.
		t.mu.Lock()
		t.state = stInDoubt
		t.mu.Unlock()
		t.c.retire(t)
		t.c.Stats.InDoubt.Add(1)
		// Some participants may already have applied the decided commit.
		t.c.notifyFinish(t.writeSet())
		return fmt.Errorf("%w: %v", ErrInDoubt, commitErr)
	}
	t.c.logEnd(t.id)
	t.mu.Lock()
	t.state = stCommitted
	t.mu.Unlock()
	t.c.retire(t)
	t.c.Stats.Committed.Add(1)
	t.c.notifyFinish(t.writeSet())
	return nil
}

// commitOnePhase commits a transaction that touched at most one site:
// no prepare, no coordinator log record — the single participant's own
// WAL is the commit point. A failure reports the transaction aborted
// (with a single site there is no prepared state to resolve; a commit
// whose acknowledgement was lost is the classic one-phase ambiguity and
// surfaces as the returned error).
func (t *Txn) commitOnePhase(ctx context.Context, branches map[string]branch) error {
	for site, br := range branches {
		pctx, cancel := context.WithTimeout(ctx, t.c.phaseTimeout())
		err := br.conn.Commit(pctx, br.id)
		cancel()
		if err != nil {
			t.finishAbort(branches, false)
			return fmt.Errorf("gtm: one-phase commit at %s: %w", site, err)
		}
	}
	t.mu.Lock()
	t.state = stCommitted
	t.mu.Unlock()
	t.c.retire(t)
	t.c.Stats.Committed.Add(1)
	t.c.notifyFinish(t.writeSet())
	return nil
}

// Abort rolls back every branch. It is idempotent, and a no-op once
// Commit has claimed the transaction. An abort already under way
// elsewhere is waited for, bounded by ctx.
func (t *Txn) Abort(ctx context.Context) {
	t.abortInternal(ctx, false, false)
}

// abortInternal aborts an ACTIVE transaction (local timeouts, deadlock
// wounds, and explicit Abort). Any other state is someone else's
// transaction to finish: Commit past stActive owns the outcome, and a
// terminal state is final. A caller that finds another party's abort
// in flight waits for it to finish (bounded by ctx), so it never
// reports the abort before the branches are rolled back and the stats
// settled.
func (t *Txn) abortInternal(ctx context.Context, timeout, wounded bool) {
	t.mu.Lock()
	if t.state != stActive {
		aborting := t.state == stAborting
		t.mu.Unlock()
		if aborting {
			t.awaitAbort(ctx)
		}
		return
	}
	t.state = stAborting
	t.timedOut = timeout
	t.wounded = wounded
	branches := make(map[string]branch, len(t.branches))
	for s, b := range t.branches {
		branches[s] = b
	}
	t.mu.Unlock()
	t.finishAbortClaimed(branches, timeout, wounded)
}

// awaitAbort waits for an abort claimed elsewhere to finish, or for
// ctx to end.
func (t *Txn) awaitAbort(ctx context.Context) {
	select {
	case <-t.aborted:
	case <-ctx.Done():
	}
}

// finishAbort drives an abort from inside Commit (prepare failure or a
// log error); Commit already owns the transaction.
func (t *Txn) finishAbort(branches map[string]branch, timeout bool) {
	t.mu.Lock()
	t.state = stAborting
	t.timedOut = timeout
	t.mu.Unlock()
	t.finishAbortClaimed(branches, timeout, false)
}

// finishAbortClaimed rolls back every branch and records the terminal
// state; the caller has already moved the transaction to stAborting.
func (t *Txn) finishAbortClaimed(branches map[string]branch, timeout, wounded bool) {
	var wg sync.WaitGroup
	var acked atomic.Bool
	acked.Store(true)
	for _, br := range branches {
		wg.Add(1)
		go func(br branch) {
			defer wg.Done()
			// Abort must not be blocked by the failed operation's
			// context; use a fresh, bounded one.
			ctx, cancel := context.WithTimeout(context.Background(), t.c.phaseTimeout())
			defer cancel()
			if err := br.conn.Abort(ctx, br.id); err != nil {
				acked.Store(false)
			}
		}(br)
	}
	wg.Wait()
	t.mu.Lock()
	t.state = stAborted
	t.mu.Unlock()
	t.c.retire(t)
	t.c.Stats.Aborted.Add(1)
	if timeout {
		t.c.Stats.TimeoutAborts.Add(1)
	}
	if wounded {
		t.c.Stats.Wounded.Add(1)
	}
	t.c.notifyFinish(t.writeSet())
	// The global transaction is finished only if every participant heard
	// the abort; otherwise the pending entry stays for Recover to
	// re-drive (an unresolved participant holds locks until then, or
	// presumes abort when it recovers and finds no decision).
	if acked.Load() {
		t.c.logEnd(t.id)
	}
	close(t.aborted)
}

// resolveInDoubt moves an in-doubt transaction to its final state after
// resolution re-drove the decision successfully.
func (t *Txn) resolveInDoubt(commit bool) {
	t.mu.Lock()
	if t.state != stInDoubt {
		t.mu.Unlock()
		return
	}
	if commit {
		t.state = stCommitted
	} else {
		t.state = stAborted
	}
	t.mu.Unlock()
	t.c.Stats.InDoubt.Add(-1)
	if commit {
		t.c.Stats.Committed.Add(1)
	} else {
		t.c.Stats.Aborted.Add(1)
	}
}

// driving reports whether the transaction's own Commit/Abort call is
// still in charge of its outcome (resolution must keep hands off).
func (t *Txn) driving() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch t.state {
	case stActive, stPreparing, stCommitting, stAborting:
		return true
	default:
		return false
	}
}

// Active reports whether the transaction can still run operations.
func (t *Txn) Active() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state == stActive
}

// ArmKill arms a crash point: the next Commit reaching it freezes the
// coordinator — the log is closed without flushing (kill -9 semantics)
// and Commit returns ErrCoordinatorKilled with branches left exactly as
// the protocol had them. Test instrumentation for the crash matrix.
func (c *Coordinator) ArmKill(p KillPoint) { c.kill.Store(int32(p)) }

// killAt fires an armed crash point.
func (c *Coordinator) killAt(p KillPoint) bool {
	if p == KillNone || KillPoint(c.kill.Load()) != p {
		return false
	}
	c.kill.Store(int32(KillNone))
	c.dead.Store(true)
	c.pendMu.Lock()
	if c.log != nil {
		c.log.CloseNoFlush() //nolint:errcheck
	}
	c.pendMu.Unlock()
	return true
}

// Killed reports whether a crash point fired.
func (c *Coordinator) Killed() bool { return c.dead.Load() }
