// Package executor runs global query plans. The plan's remote
// subqueries open as row streams against the gateways in parallel; the
// integration combinators consume the streams single-pass, and the
// integrated rows load batch-by-batch into a per-query scratch instance
// of the component engine, which evaluates the residual query. The
// scratch engine is the federation's "composite query processor" — it
// reuses the battle-tested local executor instead of duplicating
// join/aggregate machinery — and since the residual itself executes as
// a streaming iterator pipeline, a federated query pipelines end to
// end: site scan → wire batches → integration → scratch load → residual
// → client, with no whole-ResultSet materialization at the transport.
//
// When the residual is a bare projection over a single scan set the
// scratch engine is bypassed entirely: integrated rows stream straight
// from the fan-in to the client (filtered by a residual WHERE,
// projected, offset/limited inline), and a residual ORDER BY that
// every source already ships pre-sorted is satisfied by the ordered
// k-way merge fan-in instead of a sort. See Options for the fan-in
// policy and backpressure budget knobs.
//
// Execution is memory-bounded under Options.MemBudget: one
// spill.Budget per query is shared by the scratch engine's blocking
// operators (external-merge ORDER BY, GROUP BY accounting) and the
// OUTERJOIN-MERGE combiner, which spill sorted runs to
// Options.SpillDir past it; Metrics reports SpilledBytes/SpillRuns
// once the result stream closes.
//
// Execute is the one entry point. Its answers are checked against a
// planner-independent single-database oracle (internal/testfed), not
// against another execution of the same plan.
package executor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"myriad/internal/integration"
	"myriad/internal/localdb"
	"myriad/internal/planner"
	"myriad/internal/schema"
	"myriad/internal/spill"
	"myriad/internal/sqlparser"
	"myriad/internal/value"
)

// SiteRunner ships one canonical subquery to a component site and
// returns its result as a row stream the caller must Close. The
// autocommit runner (core) and the global-transaction runner (gtm.Txn)
// both implement it.
type SiteRunner interface {
	QuerySite(ctx context.Context, site, sql string) (schema.RowStream, error)
}

// loadBatchRows is the scratch-load granularity: integrated rows are
// appended to the temp table in batches this size as they stream in.
const loadBatchRows = 256

// FanInPolicy selects how a scan set's source streams combine.
type FanInPolicy uint8

// Fan-in policies.
const (
	// FanInAuto picks per plan: an ordered merge when it can satisfy the
	// residual ORDER BY on the bypass path, deterministic source order
	// everywhere else.
	FanInAuto FanInPolicy = iota
	// FanInInterleave emits batches in completion order: first-row
	// latency is bound by the fastest site, row order is
	// nondeterministic.
	FanInInterleave
)

// String names the policy (the inverse of ParseFanIn).
func (p FanInPolicy) String() string {
	switch p {
	case FanInAuto:
		return "auto"
	case FanInInterleave:
		return "interleave"
	default:
		return fmt.Sprintf("FanInPolicy(%d)", uint8(p))
	}
}

// ParseFanIn maps config text to a FanInPolicy ("" is auto).
func ParseFanIn(s string) (FanInPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return FanInAuto, nil
	case "interleave":
		return FanInInterleave, nil
	default:
		return 0, fmt.Errorf("executor: unknown fan-in policy %q (want \"auto\" or \"interleave\")", s)
	}
}

// Options tunes the streaming executor.
type Options struct {
	// FanIn is the fan-in policy for multi-source scan sets.
	FanIn FanInPolicy
	// RowBudget caps the integrated rows in flight per scan set across
	// its source streams (0 = integration.DefaultRowBudget). Per-source
	// prefetch windows shrink as sources multiply so N sites share the
	// same budget two would.
	RowBudget int
	// ByteBudget additionally caps the bytes in flight per scan set (0
	// = rows-only backpressure): feeders shrink their batches once
	// observed row bytes reach the per-batch cap, so wide rows cannot
	// blow the rows-in-flight window.
	ByteBudget int64
	// MemBudget bounds the memory of the query's blocking operators in
	// bytes (0 = unlimited, or the MYRIAD_TEST_MEM_BUDGET test hook):
	// one spill.Budget is shared by the scratch engine's sorts/GROUP BY
	// and the OUTERJOIN-MERGE combiner, which spill sorted runs to
	// SpillDir past it — a federated ORDER BY without LIMIT over N
	// sites is bounded end to end.
	MemBudget int64
	// SpillDir is where spill runs are written ("" = OS temp dir).
	SpillDir string
}

// queryBudget builds the per-query memory budget, or nil when nothing
// bounds this query (no configured limit and no test hook). A
// configured SpillDir is honored even when the limit comes from the
// MYRIAD_TEST_MEM_BUDGET hook; without any limit it is inert (nothing
// ever spills), so no budget is created for it alone.
func queryBudget(opts Options) *spill.Budget {
	if opts.MemBudget > 0 {
		return spill.NewBudget(opts.MemBudget, opts.SpillDir)
	}
	if b := spill.EnvBudget(); b != nil {
		if opts.SpillDir != "" {
			return spill.NewBudget(b.Limit(), opts.SpillDir)
		}
		return b
	}
	return nil
}

// SourceMetrics are per-site stream counters for one remote scan.
type SourceMetrics struct {
	Site     string
	Rows     int           // rows shipped from the site
	Batches  int           // fan-in batches handed downstream
	FirstRow time.Duration // scan open → first row at the federation
}

// Metrics accumulates execution counters for experiments.
type Metrics struct {
	RemoteQueries int
	RowsShipped   int
	SemijoinUsed  bool
	SemijoinSkip  bool // key set exceeded the cap/budget; fell back to full scan
	// ShippedKeys counts join-key literals shipped to probe sites by the
	// bind join (each live probe scan receives every batch, so a key
	// probing two sites counts twice).
	ShippedKeys int
	// BindJoinBatches counts the IN-list batches the bind join shipped.
	BindJoinBatches int
	// PrunedSources counts the source scans source selection proved
	// empty — sites the query never contacted.
	PrunedSources int
	// ScratchBypassed reports that the residual streamed straight off
	// the fan-in without a scratch engine.
	ScratchBypassed bool
	// SpilledBytes and SpillRuns report the query's spill activity
	// (external sorts, OUTERJOIN-MERGE stores) under its memory budget.
	// They settle when the result stream closes — spilling can happen
	// lazily inside the residual pipeline.
	SpilledBytes int64
	SpillRuns    int64
	// Sources collects per-site stream metrics; each entry is appended
	// when its site stream closes, so the slice is complete once the
	// result stream has been closed (on the bypass path the scans stay
	// live while the client consumes).
	Sources []SourceMetrics
}

// Execute runs the plan's remote scans as pipelined streams and
// returns the residual result as a stream the caller must Close.
// On the scratch path the metrics are complete when it returns: every
// fragment has been consumed (or its stream torn down) by then, only
// the residual evaluation is lazy. On the bypass path the remote scans
// are themselves lazy, so RowsShipped and Sources settle when the
// returned stream is closed.
func Execute(ctx context.Context, plan *planner.Plan, runner SiteRunner, opts Options) (schema.RowStream, *Metrics, error) {
	m := &Metrics{PrunedSources: countPrunedSources(plan)}
	var mu sync.Mutex
	budget := queryBudget(opts)
	// flushSpill settles the spill counters; it runs when the result
	// stream closes (spilling can happen lazily, inside the residual
	// pipeline or the bypass fan-in) and again defensively here before
	// early returns.
	flushSpill := func() {
		if budget == nil {
			return
		}
		sb, sr := budget.Stats()
		mu.Lock()
		m.SpilledBytes, m.SpillRuns = sb, sr
		mu.Unlock()
	}
	if bp := planBypass(plan, opts); bp != nil {
		stream, err := execBypass(ctx, bp, runner, opts, budget, m, &mu)
		if err == nil {
			return schema.StreamWithCleanup(stream, flushSpill), m, nil
		}
		if !errors.Is(err, errUnmergeableSources) {
			return nil, m, err
		}
		// A source stream's declared ordering contradicted the
		// planner's ScanOrdering claim: the merge would silently
		// reorder, so fall back to the scratch engine (fresh metrics —
		// the aborted attempt's scans were torn down).
		m = &Metrics{PrunedSources: countPrunedSources(plan)}
	}

	scratch := localdb.NewScratch(budget)
	byAlias := make(map[string]*planner.ScanSet)
	for _, ss := range plan.ScanSets {
		if err := scratch.CreateTableDirect(ss.Schema); err != nil {
			return nil, m, err
		}
		byAlias[strings.ToLower(ss.Alias)] = ss
	}

	// Two waves: scan sets without semijoin dependencies, then probes.
	var wave1, wave2 []*planner.ScanSet
	for _, ss := range plan.ScanSets {
		if ss.SemiFrom == "" {
			wave1 = append(wave1, ss)
		} else {
			wave2 = append(wave2, ss)
		}
	}

	bound := streamBound(plan)
	runWave := func(wave []*planner.ScanSet) error {
		// A failing scan set cancels the wave so sibling sites stop
		// shipping rows nobody will consume.
		wctx, cancel := context.WithCancel(ctx)
		defer cancel()
		var wg sync.WaitGroup
		errs := make([]error, len(wave))
		for i, ss := range wave {
			wg.Add(1)
			go func(i int, ss *planner.ScanSet) {
				defer wg.Done()
				if ss.SemiFrom != "" {
					build := byAlias[strings.ToLower(ss.SemiFrom)]
					if build == nil {
						errs[i] = fmt.Errorf("executor: semijoin build side %q missing", ss.SemiFrom)
						cancel()
						return
					}
					handled, err := runSemijoin(wctx, scratch, ss, build, plan, runner, bound, opts, budget, m, &mu)
					if err != nil {
						errs[i] = err
						cancel()
						return
					}
					if handled {
						return
					}
					// Fall through: key collection overflowed the cap or
					// the budget; load the fragments unreduced.
				}
				if err := loadScanSet(wctx, scratch, ss, runner, nil, bound, opts, budget, m, &mu); err != nil {
					errs[i] = err
					cancel()
				}
			}(i, ss)
		}
		wg.Wait()
		// The failing scan set cancelled its siblings; their
		// context.Canceled is collateral, not the cause — surface the
		// root failure.
		var first error
		for _, err := range errs {
			if err == nil {
				continue
			}
			if first == nil {
				first = err
			}
			if !errors.Is(err, context.Canceled) {
				return err
			}
		}
		return first
	}
	if err := runWave(wave1); err != nil {
		flushSpill()
		return nil, m, err
	}
	if err := runWave(wave2); err != nil {
		flushSpill()
		return nil, m, err
	}
	flushSpill()

	// Residual evaluation, itself a streaming iterator pipeline over the
	// scratch engine (which the returned stream keeps alive).
	rows, err := scratch.QueryStreamStmt(ctx, plan.Residual)
	if err != nil {
		return nil, m, fmt.Errorf("executor: residual: %w", err)
	}
	return schema.StreamWithCleanup(rows, flushSpill), m, nil
}

// loadModeFor resolves the fan-in mode for a scratch load. Auto keeps
// deterministic source order — the temp table holds the integrated
// relation in the order a single database loaded source by source
// would, so ties under the residual's stable sort break the same way;
// only an explicit Interleave trades that determinism for drain speed.
func loadModeFor(opts Options) integration.FanInMode {
	if opts.FanIn == FanInInterleave {
		return integration.FanInInterleave
	}
	return integration.FanInSourceOrder
}

// openScanSet opens every source scan of ss as a counted stream, in
// parallel. On error every already-open stream is closed.
func openScanSet(ctx context.Context, ss *planner.ScanSet, runner SiteRunner, inList []sqlparser.Expr, m *Metrics, mu *sync.Mutex) ([]schema.RowStream, error) {
	streams := make([]schema.RowStream, len(ss.Scans))
	errs := make([]error, len(ss.Scans))
	var wg sync.WaitGroup
	for i, scan := range ss.Scans {
		if scan.Pruned != "" {
			// Source selection proved the fragment empty: feed the
			// fan-in an empty stream so the combine keeps its source
			// arity, without contacting the site (no RemoteQueries, no
			// Sources entry).
			streams[i] = schema.StreamOf(&schema.ResultSet{Columns: ss.Spec.Columns})
			continue
		}
		wg.Add(1)
		go func(i int, scan *planner.RemoteScan) {
			defer wg.Done()
			st, err := runner.QuerySite(ctx, scan.Site, scanSQL(scan, inList))
			if err != nil {
				errs[i] = fmt.Errorf("executor: scan at %s: %w", scan.Site, err)
				return
			}
			mu.Lock()
			m.RemoteQueries++
			mu.Unlock()
			streams[i] = &countedStream{RowStream: st, site: scan.Site, m: m, mu: mu, start: time.Now()}
		}(i, scan)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, st := range streams {
				if st != nil {
					st.Close()
				}
			}
			return nil, err
		}
	}
	return streams, nil
}

// batchHook wires the fan-in's per-batch callback to the counted
// streams so Sources metrics carry batch counts. The callback runs on
// the feeder goroutine that also drives the stream's Next, so the
// counters need no extra synchronization.
func batchHook(streams []schema.RowStream) func(int, int) {
	return func(source, _ int) {
		if cs, ok := streams[source].(*countedStream); ok {
			cs.batches++
		}
	}
}

// loadScanSet opens every source scan as a stream (in parallel),
// combines them single-pass, and appends the integrated rows to the
// scratch temp table batch by batch. bound, when >= 0 and the plan has
// a single scan set, caps the rows drained: once the residual's LIMIT
// is satisfiable the combined stream closes, half-closing each remote
// stream so the sites tear their scans down mid-flight.
func loadScanSet(ctx context.Context, scratch *localdb.DB, ss *planner.ScanSet, runner SiteRunner, inList []sqlparser.Expr, bound int64, opts Options, budget *spill.Budget, m *Metrics, mu *sync.Mutex) error {
	// ssctx bounds this scan set's streams. Remote streams watch the
	// context they were opened with, so cancelling ssctx before Close
	// expires any wire read a feeder is blocked in — without it, early
	// termination (a satisfied bound, a sibling's error) could wait
	// forever on a site that stalled mid-stream.
	ssctx, sscancel := context.WithCancel(ctx)
	defer sscancel()
	ctx = ssctx

	streams, err := openScanSet(ctx, ss, runner, inList, m, mu)
	if err != nil {
		return err
	}

	combined := integration.CombineStreamsOpts(ctx, ss.Spec, streams, integration.StreamOptions{
		Mode:       loadModeFor(opts),
		RowBudget:  opts.RowBudget,
		ByteBudget: opts.ByteBudget,
		Budget:     budget,
		OnBatch:    batchHook(streams),
	})
	defer func() {
		sscancel() // unblock any feeder parked in a wire read first
		combined.Close()
	}()
	var loaded int64
	batch := make([]schema.Row, 0, loadBatchRows)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := scratch.Load(ss.TempTable, batch); err != nil {
			return fmt.Errorf("executor: loading %s: %w", ss.TempTable, err)
		}
		batch = make([]schema.Row, 0, loadBatchRows)
		return nil
	}
	for bound < 0 || loaded < bound {
		r, err := combined.Next(ctx)
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		batch = append(batch, r)
		loaded++
		if len(batch) == loadBatchRows {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// scanSQL renders a source scan's subquery, ANDing the bind-join
// IN-list onto its WHERE when the scan is a probe.
func scanSQL(scan *planner.RemoteScan, inList []sqlparser.Expr) string {
	sel := scan.Select
	if len(inList) > 0 && scan.SemiProbe != nil {
		probe := &sqlparser.InExpr{E: scan.SemiProbe, List: inList}
		reduced := *sel
		if reduced.Where == nil {
			reduced.Where = probe
		} else {
			reduced.Where = &sqlparser.BinaryExpr{Op: "AND", L: reduced.Where, R: probe}
		}
		sel = &reduced
	}
	return sqlparser.FormatStatement(sel, nil)
}

// countedStream meters rows shipped from one site. The counts flush
// into the shared metrics once, at Close (Next and the batch hook run
// on a single feeder goroutine; Close only after the feeders exit).
type countedStream struct {
	schema.RowStream
	site    string
	m       *Metrics
	mu      *sync.Mutex
	start   time.Time
	first   time.Duration
	n       int
	batches int
	flushed bool
}

func (s *countedStream) Next(ctx context.Context) (schema.Row, error) {
	r, err := s.RowStream.Next(ctx)
	if r != nil {
		if s.n == 0 {
			s.first = time.Since(s.start)
		}
		s.n++
	}
	return r, err
}

// Ordering forwards the site stream's sort guarantee (non-nil only for
// in-process connections; the wire erases it) so the bypass can
// cross-check the planner's ScanOrdering claim.
func (s *countedStream) Ordering() []schema.SortKey {
	return schema.StreamOrdering(s.RowStream)
}

func (s *countedStream) Close() error {
	err := s.RowStream.Close()
	if !s.flushed {
		s.flushed = true
		s.mu.Lock()
		s.m.RowsShipped += s.n
		s.m.Sources = append(s.m.Sources, SourceMetrics{
			Site: s.site, Rows: s.n, Batches: s.batches, FirstRow: s.first,
		})
		s.mu.Unlock()
	}
	return err
}

// ---------------------------------------------------------------------
// Scratch-engine bypass

// bypassPlan is a residual reduced to stream surgery: filter the
// fan-in rows with where (when present), project these scan-set
// columns under these names, skip offset rows, emit count.
type bypassPlan struct {
	ss    *planner.ScanSet
	proj  []int // schema column index per output column
	names []string
	// where, non-nil when the residual has a WHERE clause, filters
	// integrated rows inline (compiled by the component engine's
	// expression machinery against the scan set's schema).
	where localdb.RowPredicate
	// mergeKeys, non-nil when the residual has an ORDER BY, is the
	// source ordering that satisfies it via the k-way merge fan-in.
	mergeKeys []schema.SortKey
	count     int64 // -1 = unbounded
	offset    int64
}

// identity reports whether the projection is a no-op (all scan-set
// columns, original order and names).
func (b *bypassPlan) identity() bool {
	if len(b.proj) != len(b.ss.Schema.Columns) {
		return false
	}
	for i, ci := range b.proj {
		if ci != i || b.names[i] != b.ss.Schema.Columns[i].Name {
			return false
		}
	}
	return true
}

// planBypass decides whether the plan can skip the scratch engine: a
// single scan set (no semijoin), a residual that is a bare projection
// of its columns — no join, grouping, aggregate, DISTINCT or compound
// — and an ORDER BY that is either absent or exactly the ordering
// every source scan already ships (ScanOrdering), which the stable
// merge fan-in reproduces without sorting. A residual WHERE over the
// scan set's columns filters inline on the fan-in (expressions the
// predicate compiler rejects fall back to the scratch engine);
// LIMIT/OFFSET apply inline after it. Returns nil when the scratch
// engine is needed.
func planBypass(plan *planner.Plan, opts Options) *bypassPlan {
	if len(plan.ScanSets) != 1 {
		return nil
	}
	ss := plan.ScanSets[0]
	if ss.SemiFrom != "" {
		return nil
	}
	r := plan.Residual
	if r == nil || r.Compound != nil || r.Having != nil ||
		len(r.GroupBy) > 0 || r.Distinct || len(r.Joins) > 0 || len(r.From) != 1 {
		return nil
	}
	var where localdb.RowPredicate
	if r.Where != nil {
		pred, err := localdb.CompileRowPredicate(r.Where, ss.Schema, ss.Alias, ss.TempTable)
		if err != nil {
			return nil
		}
		where = pred
	}
	sameRel := func(table string) bool {
		return table == "" || strings.EqualFold(table, ss.Alias) || strings.EqualFold(table, ss.TempTable)
	}
	colIndex := func(name string) int {
		for i, c := range ss.Schema.Columns {
			if strings.EqualFold(c.Name, name) {
				return i
			}
		}
		return -1
	}

	bp := &bypassPlan{ss: ss, where: where, count: -1}
	for _, it := range r.Items {
		switch {
		case it.Star:
			if it.Table != "" && !sameRel(it.Table) {
				return nil
			}
			for i, c := range ss.Schema.Columns {
				bp.proj = append(bp.proj, i)
				bp.names = append(bp.names, c.Name)
			}
		default:
			cr, ok := it.Expr.(*sqlparser.ColumnRef)
			if !ok || !sameRel(cr.Table) {
				return nil
			}
			ci := colIndex(cr.Column)
			if ci < 0 {
				return nil
			}
			name := it.As
			if name == "" {
				name = cr.Column
			}
			bp.proj = append(bp.proj, ci)
			bp.names = append(bp.names, name)
		}
	}
	if len(bp.proj) == 0 {
		return nil
	}

	if len(r.OrderBy) > 0 {
		// An ORDER BY is only bypassable when the merge fan-in can
		// reproduce it, which needs (1) every source pre-sorted on
		// exactly these keys and (2) a policy that allows merging.
		if opts.FanIn != FanInAuto {
			return nil
		}
		if len(ss.ScanOrdering) != len(r.OrderBy) {
			return nil
		}
		for i, o := range r.OrderBy {
			cr, ok := o.Expr.(*sqlparser.ColumnRef)
			if !ok || !sameRel(cr.Table) {
				return nil
			}
			ci := colIndex(cr.Column)
			if ci < 0 || ss.ScanOrdering[i] != (schema.SortKey{Col: ci, Desc: o.Desc}) {
				return nil
			}
		}
		bp.mergeKeys = ss.ScanOrdering
	}

	if r.Limit != nil {
		if r.Limit.Count >= 0 {
			bp.count = r.Limit.Count
		}
		bp.offset = r.Limit.Offset
	}
	return bp
}

// errUnmergeableSources reports that a source stream's self-declared
// ordering contradicts the planner's ScanOrdering claim — the ordered
// stream contract caught a planner/translation bug before the merge
// could silently reorder. The caller falls back to the scratch engine.
var errUnmergeableSources = errors.New("executor: source stream ordering contradicts plan")

// execBypass streams integrated rows straight from the fan-in to the
// caller: no scratch engine, no temp-table load, no residual pipeline.
func execBypass(ctx context.Context, bp *bypassPlan, runner SiteRunner, opts Options, budget *spill.Budget, m *Metrics, mu *sync.Mutex) (schema.RowStream, error) {
	m.ScratchBypassed = true
	// bctx lives as long as the returned stream: Close cancels it first
	// so a feeder parked in a wire read is expired before its source
	// closes (the same ordering the scratch loader uses).
	bctx, bcancel := context.WithCancel(ctx)
	streams, err := openScanSet(bctx, bp.ss, runner, nil, m, mu)
	if err != nil {
		bcancel()
		return nil, err
	}

	mode := integration.FanInSourceOrder
	switch {
	case bp.mergeKeys != nil:
		mode = integration.FanInMergeOrdered
	case opts.FanIn == FanInInterleave:
		mode = integration.FanInInterleave
	}
	if mode == integration.FanInMergeOrdered {
		// Cross-check the planner's sorted-source claim against any
		// ordering the streams themselves declare (in-process streams
		// carry the engine's metadata; the wire strips it to nil, which
		// is trusted). A contradiction means merging would reorder.
		for _, st := range streams {
			if !orderingSatisfies(schema.StreamOrdering(st), bp.mergeKeys) {
				bcancel()
				for _, s := range streams {
					s.Close()
				}
				return nil, errUnmergeableSources
			}
		}
	}
	combined := integration.CombineStreamsOpts(bctx, bp.ss.Spec, streams, integration.StreamOptions{
		Mode:       mode,
		MergeKeys:  bp.mergeKeys,
		RowBudget:  opts.RowBudget,
		ByteBudget: opts.ByteBudget,
		Budget:     budget,
		OnBatch:    batchHook(streams),
	})
	proj := bp.proj
	names := bp.names
	if bp.identity() {
		proj = nil
	}
	return &bypassStream{
		inner:  combined,
		cancel: bcancel,
		where:  bp.where,
		proj:   proj,
		cols:   names,
		count:  bp.count,
		offset: bp.offset,
	}, nil
}

// orderingSatisfies reports whether a source's declared ordering is
// consistent with sorting on keys: unknown (nil) is trusted, otherwise
// keys must be a prefix of the declaration (a stream sorted on more
// keys is still sorted on fewer; one sorted on fewer is not).
func orderingSatisfies(declared, keys []schema.SortKey) bool {
	if declared == nil {
		return true
	}
	if len(declared) < len(keys) {
		return false
	}
	for i := range keys {
		if declared[i] != keys[i] {
			return false
		}
	}
	return true
}

// bypassStream filters, projects and offset/limits the fan-in inline.
// OFFSET/LIMIT count rows that survive the filter, matching the
// residual's semantics. Once the count is satisfied it half-closes the
// fan-in eagerly, tearing remote scans down mid-flight exactly like
// the scratch path's streamBound.
type bypassStream struct {
	inner   schema.RowStream
	cancel  context.CancelFunc
	where   localdb.RowPredicate // nil = no filter
	proj    []int                // nil = identity
	cols    []string
	count   int64 // -1 = unbounded
	offset  int64
	skipped int64
	emitted int64
	done    bool
	closed  bool
	err     error
}

func (b *bypassStream) Columns() []string { return b.cols }

func (b *bypassStream) Next(ctx context.Context) (schema.Row, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.closed || b.done {
		return nil, nil
	}
	if b.count >= 0 && b.emitted >= b.count {
		b.halt()
		return nil, nil
	}
	for {
		r, err := b.inner.Next(ctx)
		if err != nil {
			b.err = err
			return nil, err
		}
		if r == nil {
			b.done = true
			return nil, nil
		}
		if b.where != nil {
			ok, err := b.where(r)
			if err != nil {
				b.err = err
				return nil, err
			}
			if !ok {
				continue
			}
		}
		if b.skipped < b.offset {
			b.skipped++
			continue
		}
		if b.proj != nil {
			out := make(schema.Row, len(b.proj))
			for i, ci := range b.proj {
				out[i] = r[ci]
			}
			r = out
		}
		b.emitted++
		if b.count >= 0 && b.emitted >= b.count {
			// The bound is reached: release the remote scans eagerly but
			// keep emitting this row.
			b.halt()
		}
		return r, nil
	}
}

// halt tears the fan-in down without marking the stream closed (the
// caller still owns Close). Cancel-before-close unblocks wire reads.
func (b *bypassStream) halt() {
	if b.done {
		return
	}
	b.done = true
	b.cancel()
	b.inner.Close()
}

func (b *bypassStream) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	b.cancel()
	return b.inner.Close()
}

// streamBound derives the largest number of integrated rows the
// residual can consume when the plan is a single scan set whose
// residual is a bare projection with LIMIT — no filter, grouping,
// ordering, dedup or aggregate that could need more input. -1 means
// unbounded. This is what turns a federated LIMIT into an early
// half-close of the remote streams even when the per-site pushdown
// could not absorb it (multi-source sets). The bypass subsumes bare
// column projections; the bound still guards the computed projections
// it refuses.
func streamBound(plan *planner.Plan) int64 {
	if len(plan.ScanSets) != 1 {
		return -1
	}
	r := plan.Residual
	if r == nil || r.Limit == nil || r.Limit.Count < 0 {
		return -1
	}
	if len(r.From) != 1 || r.Where != nil || len(r.GroupBy) > 0 || r.Having != nil ||
		r.Distinct || len(r.Joins) > 0 || r.Compound != nil || len(r.OrderBy) > 0 {
		return -1
	}
	for _, it := range r.Items {
		if it.Expr != nil && sqlparser.HasAggregate(it.Expr) {
			return -1
		}
	}
	if r.Limit.Count > math.MaxInt64-r.Limit.Offset {
		return -1
	}
	return r.Limit.Count + r.Limit.Offset
}

// defaultBindMaxKeys bounds bind-join key collection when the plan
// does not set Plan.BindMaxKeys.
const defaultBindMaxKeys = 100000

// countPrunedSources totals the scans source selection proved empty.
func countPrunedSources(plan *planner.Plan) int {
	n := 0
	for _, ss := range plan.ScanSets {
		for _, sc := range ss.Scans {
			if sc.Pruned != "" {
				n++
			}
		}
	}
	return n
}

// bindMaxKeys is the plan's bind-join key cap, defaulted.
func bindMaxKeys(plan *planner.Plan) int {
	if plan.BindMaxKeys > 0 {
		return plan.BindMaxKeys
	}
	return defaultBindMaxKeys
}

// runSemijoin executes the bind join of probe scan set ss against its
// already-loaded build side: collect the build side's distinct keys,
// then load ss reduced by IN-list in MaxInList-sized batches shipped
// sequentially. The batches partition the distinct keys, so each probe
// row matches exactly one batch and per-batch combining stays exact for
// every combine kind. handled=false (with SemijoinSkip set) means key
// collection overflowed the key cap or the memory budget: the caller
// must load the fragments unreduced. The fallback is decided before any
// probe scan opens, so no partial temp-table state needs undoing.
func runSemijoin(ctx context.Context, scratch *localdb.DB, ss, build *planner.ScanSet, plan *planner.Plan, runner SiteRunner, bound int64, opts Options, budget *spill.Budget, m *Metrics, mu *sync.Mutex) (bool, error) {
	maxIn := plan.MaxInList
	if maxIn <= 0 {
		maxIn = 1000
	}
	vals, reserved, over, err := semiValues(ctx, scratch, build.TempTable, ss.SemiBuildCol, bindMaxKeys(plan), budget)
	if budget != nil {
		defer budget.Release(reserved)
	}
	if err != nil {
		return false, err
	}
	mu.Lock()
	if over {
		m.SemijoinSkip = true
	} else {
		m.SemijoinUsed = true
	}
	mu.Unlock()
	if over {
		return false, nil
	}
	if len(vals) == 0 {
		// Empty build side (or all-NULL keys): the equi-join can match
		// nothing, so nothing ships and the probe temp table stays
		// empty.
		return true, nil
	}
	probes := 0
	for _, sc := range ss.Scans {
		if sc.Pruned == "" && sc.SemiProbe != nil {
			probes++
		}
	}
	for start := 0; start < len(vals); start += maxIn {
		end := start + maxIn
		if end > len(vals) {
			end = len(vals)
		}
		batch := vals[start:end]
		mu.Lock()
		m.BindJoinBatches++
		m.ShippedKeys += len(batch) * probes
		mu.Unlock()
		if err := loadScanSet(ctx, scratch, ss, runner, batch, bound, opts, budget, m, mu); err != nil {
			return true, err
		}
	}
	return true, nil
}

// semiValues streams the distinct non-NULL probe values of the
// (already loaded) semijoin build side out of the scratch engine. The
// dedup set is charged to the query budget like any blocking
// operator's state; over=true when the distinct set exceeds max or the
// budget refuses a reservation, in which case the caller falls back to
// ship-all (and must Release(reserved) either way).
func semiValues(ctx context.Context, scratch *localdb.DB, table, col string, max int, budget *spill.Budget) (vals []sqlparser.Expr, reserved int64, over bool, err error) {
	sel := &sqlparser.Select{
		Items: []sqlparser.SelectItem{{Expr: &sqlparser.ColumnRef{Column: col}}},
		From:  []sqlparser.TableRef{{Name: table}},
	}
	rows, qerr := scratch.QueryStreamStmt(ctx, sel)
	if qerr != nil {
		return nil, 0, false, fmt.Errorf("executor: semijoin build values: %w", qerr)
	}
	defer rows.Close()
	seen := make(map[string]bool)
	var keys []value.Value
	for {
		r, rerr := rows.Next(ctx)
		if rerr != nil {
			return nil, reserved, false, fmt.Errorf("executor: semijoin build values: %w", rerr)
		}
		if r == nil {
			break
		}
		v := r[0]
		if v.IsNull() {
			continue
		}
		k := fmt.Sprintf("%d|%s", v.K, v.Text())
		if seen[k] {
			continue
		}
		cost := int64(len(k)) + 48
		if budget != nil && !budget.Reserve(cost) {
			return nil, reserved, true, nil
		}
		reserved += cost
		seen[k] = true
		keys = append(keys, v)
		if len(keys) > max {
			return nil, reserved, true, nil
		}
	}
	// Deterministic order also makes each MaxInList batch a contiguous
	// key range.
	sort.Slice(keys, func(a, b int) bool {
		c, ok := value.Compare(keys[a], keys[b])
		return ok && c < 0
	})
	vals = make([]sqlparser.Expr, len(keys))
	for i, v := range keys {
		vals[i] = &sqlparser.Literal{Val: v}
	}
	return vals, reserved, false, nil
}
