// Package core implements the MYRIAD federation — the paper's primary
// contribution. A Federation integrates independently developed
// component databases (reached through their gateways) behind a set of
// integrated relations, processes global SQL queries with a choice of
// optimization strategies, and runs global transactions under two-phase
// commit with timeout-based global deadlock resolution.
//
// Multiple federations can coexist over the same component databases;
// each Federation value is fully independent (its own catalog,
// connections, and coordinator), matching "In Myriad, multiple
// federations can be formed."
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"myriad/internal/catalog"
	"myriad/internal/executor"
	"myriad/internal/gateway"
	"myriad/internal/gtm"
	"myriad/internal/planner"
	"myriad/internal/schema"
	"myriad/internal/sqlparser"
	"myriad/internal/wal"
)

// Strategy re-exports the optimizer strategy choice.
type Strategy = planner.Strategy

// Optimizer strategies.
const (
	// StrategySimple is the paper's implemented strategy: fetch the
	// referenced export relations essentially whole and evaluate the
	// query at the federation.
	StrategySimple = planner.Simple
	// StrategyCostBased is the "full-fledged" optimizer: pushdown, join
	// ordering, and semijoin reduction driven by gateway statistics.
	StrategyCostBased = planner.CostBased
)

// Federation is one MYRIAD federation instance.
type Federation struct {
	name string
	cat  *catalog.Catalog

	mu    sync.RWMutex
	conns map[string]gateway.Conn

	coordMu sync.RWMutex
	coord   *gtm.Coordinator
	// detectInterval remembers the armed deadlock-detector tick so a
	// coordinator restart re-arms it (0 = detector off).
	detectInterval time.Duration

	stats statsCache

	// Strategy is the default optimizer for Query; the other query
	// methods take the strategy explicitly.
	Strategy Strategy
	// FanIn selects how multi-source scan sets combine (FanInAuto keeps
	// deterministic source order except where an ordered merge can
	// satisfy an ORDER BY; FanInInterleave trades determinism for
	// first-row latency bound by the fastest site).
	FanIn FanInPolicy
	// StreamRowBudget caps the integrated rows buffered in flight per
	// scan set across its source streams (0 = executor default); the
	// per-source prefetch window shrinks as sources multiply.
	StreamRowBudget int
	// StreamByteBudget additionally caps the bytes in flight per scan
	// set (0 = rows-only): feeders shrink their batches once observed
	// row bytes reach the derived per-batch cap, so wide rows cannot
	// blow the rows-in-flight window.
	StreamByteBudget int64
	// MemBudget bounds each global query's blocking-operator memory in
	// bytes (0 = unlimited): the executor threads one spill budget
	// through the scratch engine's sorts and GROUP BY and the
	// OUTERJOIN-MERGE combiner, which spill sorted runs to SpillDir
	// past it — ORDER BY without LIMIT over N sites runs bounded end
	// to end.
	MemBudget int64
	// SpillDir is where spill runs are written ("" = OS temp dir).
	SpillDir string
}

// FanInPolicy re-exports the executor's fan-in policy choice.
type FanInPolicy = executor.FanInPolicy

// Fan-in policies.
const (
	FanInAuto        = executor.FanInAuto
	FanInSourceOrder = executor.FanInSourceOrder
	FanInInterleave  = executor.FanInInterleave
	FanInMerge       = executor.FanInMerge
)

// New creates an empty federation.
func New(name string) *Federation {
	f := &Federation{
		name:     name,
		cat:      catalog.New(name),
		conns:    make(map[string]gateway.Conn),
		stats:    statsCache{slots: make(map[statsKey]*statsSlot)},
		Strategy: StrategyCostBased,
	}
	f.coord = gtm.New(connProvider{f})
	// Cached stats are correctness-bearing (they drive source pruning),
	// so writes the federation coordinates must drop what they touched.
	f.coord.OnFinish = f.invalidateWrites
	return f
}

// connProvider adapts Federation to gtm.ConnProvider (and
// gtm.SiteLister, so the deadlock detector polls the full roster).
type connProvider struct{ f *Federation }

func (p connProvider) Conn(site string) (gateway.Conn, bool) { return p.f.Conn(site) }

func (p connProvider) Sites() []string { return p.f.Sites() }

// Name returns the federation's name.
func (f *Federation) Name() string { return f.name }

// Catalog exposes the federation's metadata store.
func (f *Federation) Catalog() *catalog.Catalog { return f.cat }

// Coordinator exposes the global transaction manager (for its stats
// and recovery operations).
func (f *Federation) Coordinator() *gtm.Coordinator {
	f.coordMu.RLock()
	defer f.coordMu.RUnlock()
	return f.coord
}

// SetLocalQueryTimeout sets the timeout attached to each local query
// submitted to a gateway on behalf of a global transaction — the
// paper's global-deadlock resolution knob.
func (f *Federation) SetLocalQueryTimeout(d time.Duration) { f.Coordinator().OpTimeout = d }

// StartDeadlockDetector arms the coordinator's global deadlock
// detector: every interval (<=0 selects the gtm default, one second)
// it pulls each attached site's lock waits-for edges, stitches the
// federation-wide graph, and wounds the youngest global transaction of
// every cycle. The interval survives RestartCoordinator — the fresh
// coordinator is re-armed automatically.
func (f *Federation) StartDeadlockDetector(interval time.Duration) {
	f.coordMu.Lock()
	f.detectInterval = interval
	c := f.coord
	f.coordMu.Unlock()
	c.StartDetector(interval)
}

// StopDeadlockDetector stops the detector (and stops re-arming it on
// coordinator restarts).
func (f *Federation) StopDeadlockDetector() {
	f.coordMu.Lock()
	f.detectInterval = 0
	c := f.coord
	f.coordMu.Unlock()
	c.StopDetector()
}

// EnableCoordinatorLog attaches a durable coordinator log at path: the
// two-phase commit decision is fsynced before phase two, and after a
// restart the same path replays into the pending table (call
// RecoverGlobal to re-drive what it finds). Enable it before the
// federation begins global transactions.
func (f *Federation) EnableCoordinatorLog(path string, opts wal.Options) error {
	return f.Coordinator().AttachLog(path, opts)
}

// RecoverGlobal resolves every unfinished global transaction known to
// the coordinator log: undecided ones abort at every participant,
// decided ones commit. Call at boot after the sites are attached, and
// again whenever in-doubt transactions may have become resolvable.
func (f *Federation) RecoverGlobal(ctx context.Context) error {
	return f.Coordinator().Recover(ctx)
}

// RestartCoordinator replaces the coordinator with a fresh one that
// replays the existing coordinator log — a coordinator crash+restart in
// process form (the recovery tests pair it with gtm.ArmKill). The old
// coordinator's log is closed if it still holds it; its per-incarnation
// stats are lost, exactly as a real restart loses them. Follow with
// RecoverGlobal to re-drive the unfinished transactions the replay
// found.
func (f *Federation) RestartCoordinator(opts wal.Options) error {
	f.coordMu.Lock()
	old := f.coord
	f.coordMu.Unlock()
	path := old.LogPath()
	if path == "" {
		return fmt.Errorf("core: coordinator has no durable log to restart from")
	}
	if !old.Killed() {
		old.Close() //nolint:errcheck
	}
	old.StopDetector()
	c, err := gtm.NewWithLog(connProvider{f}, path, opts)
	if err != nil {
		return fmt.Errorf("core: restarting coordinator: %w", err)
	}
	c.OpTimeout = old.OpTimeout
	c.OnFinish = f.invalidateWrites
	f.coordMu.Lock()
	f.coord = c
	interval := f.detectInterval
	f.coordMu.Unlock()
	if interval > 0 {
		c.StartDetector(interval)
	}
	return nil
}

// AttachSite registers a component database's gateway connection and
// imports its export relation schemas into the catalog.
func (f *Federation) AttachSite(ctx context.Context, conn gateway.Conn) error {
	schemas, err := conn.ExportSchemas(ctx)
	if err != nil {
		return fmt.Errorf("core: attaching site %s: %w", conn.Site(), err)
	}
	f.mu.Lock()
	f.conns[strings.ToLower(conn.Site())] = conn
	f.mu.Unlock()
	f.cat.SetSiteExports(conn.Site(), schemas)
	return nil
}

// DetachSite removes a site (its integrated relations become invalid to
// plan until redefined).
func (f *Federation) DetachSite(site string) {
	f.mu.Lock()
	delete(f.conns, strings.ToLower(site))
	f.mu.Unlock()
}

// RefreshSite re-imports a site's export schemas (after local DDL).
func (f *Federation) RefreshSite(ctx context.Context, site string) error {
	conn, ok := f.Conn(site)
	if !ok {
		return fmt.Errorf("core: unknown site %q", site)
	}
	schemas, err := conn.ExportSchemas(ctx)
	if err != nil {
		return err
	}
	f.cat.SetSiteExports(site, schemas)
	f.InvalidateStats()
	return nil
}

// Conn returns the gateway connection for site.
func (f *Federation) Conn(site string) (gateway.Conn, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	c, ok := f.conns[strings.ToLower(site)]
	return c, ok
}

// Sites lists attached sites, sorted.
func (f *Federation) Sites() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.conns))
	for s := range f.conns {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// DefineIntegrated validates and installs an integrated relation.
func (f *Federation) DefineIntegrated(def *catalog.IntegratedDef) error {
	return f.cat.Define(def)
}

// ---------------------------------------------------------------------
// Global queries

// autocommitRunner ships subqueries outside any global transaction as
// pipelined row-batch streams.
type autocommitRunner struct{ f *Federation }

func (r autocommitRunner) QuerySite(ctx context.Context, site, sql string) (schema.RowStream, error) {
	conn, ok := r.f.Conn(site)
	if !ok {
		return nil, fmt.Errorf("core: unknown site %q", site)
	}
	return conn.QueryStream(ctx, 0, sql)
}

func (f *Federation) plan(ctx context.Context, sql string, strategy Strategy) (*planner.Plan, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparser.Select)
	if !ok {
		return nil, fmt.Errorf("core: global queries must be SELECT, got %T", stmt)
	}
	pl := planner.New(f.cat, f)
	return pl.Plan(ctx, sel, strategy)
}

// execute plans sql and runs it through the executor's one entry point,
// shipping subqueries through runner.
func (f *Federation) execute(ctx context.Context, sql string, strategy Strategy, runner executor.SiteRunner) (schema.RowStream, *executor.Metrics, error) {
	plan, err := f.plan(ctx, sql, strategy)
	if err != nil {
		return nil, nil, err
	}
	return executor.Execute(ctx, plan, runner, executor.Options{
		FanIn:      f.FanIn,
		RowBudget:  f.StreamRowBudget,
		ByteBudget: f.StreamByteBudget,
		MemBudget:  f.MemBudget,
		SpillDir:   f.SpillDir,
	})
}

// Query runs a global SELECT with the federation's default strategy.
func (f *Federation) Query(ctx context.Context, sql string) (*schema.ResultSet, error) {
	rs, _, err := f.QueryMetered(ctx, sql, f.Strategy)
	return rs, err
}

// QueryMetered runs a global SELECT and materializes its result, also
// returning execution metrics (remote queries issued, rows shipped,
// semijoin use). The result stream is closed before it returns, so the
// metrics are settled.
func (f *Federation) QueryMetered(ctx context.Context, sql string, strategy Strategy) (*schema.ResultSet, *executor.Metrics, error) {
	rows, m, err := f.QueryStreamMetered(ctx, sql, strategy)
	if err != nil {
		return nil, m, err
	}
	defer rows.Close()
	rs, err := schema.DrainStream(ctx, rows)
	return rs, m, err
}

// QueryStreamMetered runs a global SELECT and returns the result as a
// row stream: remote fragments pipeline through integration into the
// residual evaluation, whose rows the stream yields incrementally. The
// caller must Close it (early Close tears down the execution). On the
// scratch-bypass path the remote scans stay live while the client
// consumes, so per-source counters (RowsShipped, Sources) settle once
// the stream has been closed.
func (f *Federation) QueryStreamMetered(ctx context.Context, sql string, strategy Strategy) (schema.RowStream, *executor.Metrics, error) {
	return f.execute(ctx, sql, strategy, autocommitRunner{f})
}

// QueryTx is QueryStreamMetered inside a global transaction: every
// subquery runs in the transaction's branch at its site, giving the
// query serializable semantics via the sites' strict 2PL.
func (f *Federation) QueryTx(ctx context.Context, txn *gtm.Txn, sql string, strategy Strategy) (schema.RowStream, *executor.Metrics, error) {
	return f.execute(ctx, sql, strategy, txn)
}

// Explain plans the query and renders the plan, then asks each site's
// gateway which access path its engine would choose for the shipped
// subquery (heap / hash probe / ordered range / pk point, with
// selectivity estimates) — so one \explain shows the whole journey
// from global plan to per-site index selection. A site that cannot
// answer (detached, down) degrades to a note instead of failing the
// explain.
func (f *Federation) Explain(ctx context.Context, sql string, strategy Strategy) (string, error) {
	plan, err := f.plan(ctx, sql, strategy)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(plan.Describe())
	for _, ss := range plan.ScanSets {
		for _, sc := range ss.Scans {
			if sc.Pruned != "" {
				// Source selection: the site is never contacted, so
				// there is no access path to ask it about.
				fmt.Fprintf(&b, "access @%s: pruned (%s)\n", sc.Site, sc.Pruned)
				continue
			}
			conn, ok := f.Conn(sc.Site)
			if !ok {
				fmt.Fprintf(&b, "access @%s: (site detached)\n", sc.Site)
				continue
			}
			out, err := conn.Explain(ctx, sc.SQL())
			if err != nil {
				fmt.Fprintf(&b, "access @%s: (unavailable: %v)\n", sc.Site, err)
				continue
			}
			for _, line := range strings.Split(out, "\n") {
				fmt.Fprintf(&b, "access @%s: %s\n", sc.Site, line)
			}
		}
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------
// Global transactions

// Begin opens a global transaction. Updates address export relations at
// specific sites via ExecSite (updating integrated relations through
// their mappings is the view-update problem, future work in 1994 and
// future work here).
func (f *Federation) Begin() *gtm.Txn { return f.Coordinator().Begin() }

// Transfer is a convenience for the canonical funds-transfer global
// transaction used by the banking example and benches: debit at one
// site, credit at another, atomically.
func (f *Federation) Transfer(ctx context.Context, debitSite, debitSQL, creditSite, creditSQL string) error {
	txn := f.Begin()
	if _, err := txn.ExecSite(ctx, debitSite, debitSQL); err != nil {
		txn.Abort(ctx)
		return err
	}
	if _, err := txn.ExecSite(ctx, creditSite, creditSQL); err != nil {
		txn.Abort(ctx)
		return err
	}
	return txn.Commit(ctx)
}

// WithRetry runs fn inside a fresh global transaction, committing on
// success. Transactions aborted by the deadlock machinery — wounded as
// a victim or timed out on a presumed deadlock — are retried up to
// maxAttempts times, the standard client idiom under MYRIAD's deadlock
// policy. fn must be safe to re-run; any other error aborts and is
// returned as-is.
func (f *Federation) WithRetry(ctx context.Context, maxAttempts int, fn func(*gtm.Txn) error) error {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			// A wounded victim restarted instantly re-enters under an even
			// younger global id and keeps losing to the same older holder;
			// back off briefly so the survivor can finish.
			delay := time.Duration(5<<uint(attempt-1)) * time.Millisecond
			if delay > 100*time.Millisecond {
				delay = 100 * time.Millisecond
			}
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return lastErr
			}
		}
		txn := f.Begin()
		err := fn(txn)
		if err == nil {
			err = txn.Commit(ctx)
		}
		if err == nil {
			return nil
		}
		txn.Abort(ctx) // idempotent; covers fn-reported failures
		if !errors.Is(err, gtm.ErrAborted) || ctx.Err() != nil {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("core: giving up after %d attempts: %w", maxAttempts, lastErr)
}
