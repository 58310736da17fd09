// Package executor runs global query plans. A scan set's remote
// subqueries open as row streams against the gateways in parallel when
// the residual first reads that scan set, and the integration
// combinators consume them single-pass. Each scan set's combined stream
// becomes one stream relation of the component engine's
// volcano pipeline (localdb.QueryRelations), which evaluates the
// residual query straight off the streams — the federation's "composite
// query processor" reuses the local executor's join/aggregate machinery
// without copying a row into a table. A federated query pipelines end to
// end: site scan → wire batches → integration → residual → client, and
// a LIMIT, a cancellation or an error travels back through the iterator
// tree, half-closing the sites still shipping.
//
// When the residual is a bare projection over a single scan set the
// pipeline is bypassed entirely: integrated rows stream straight from
// the fan-in to the client (coerced to the declared kinds, filtered by
// a residual WHERE, projected, offset/limited inline), and a residual
// ORDER BY that every source already ships pre-sorted is satisfied by
// the ordered k-way merge fan-in instead of a sort. See Options for the
// fan-in policy and backpressure budget knobs.
//
// Rows that are only forwarded need not be decoded at all. A stream
// that can hand its rows over still in the wire's row codec offers
// schema.Batch values: the site streams do, their counted wrappers and
// a UNION ALL fan-in over them do, and so does the bypass when its
// projection is the identity and its fan-in offers them (an ordered
// merge, UNION distinct, OUTERJOIN-MERGE, in-process sites and the
// residual pipeline never do). The bypass walks each batch in place
// (value.RowScanner), decoding only the columns its WHERE reads, cuts
// the surviving rows out at row boundaries, and forwards a batch that
// survives whole as it arrived; a batch holding a value of another kind
// than its column declares takes the slow path — decoded, coerced and
// re-encoded — so both paths return the same kinds. fedserver sends such
// a result batch by batch.
//
// Execution is memory-bounded under Options.MemBudget: one spill.Budget
// per query is shared by the residual's blocking operators
// (external-merge ORDER BY, DISTINCT, GROUP BY), the bind join's build
// spool and the OUTERJOIN-MERGE combiner, which spill to
// Options.SpillDir past it. Hash-join build maps are not yet accounted.
// Metrics settle when the result stream closes.
//
// Execute is the one entry point. Its answers are checked against a
// planner-independent single-database oracle (internal/testfed), not
// against another execution of the same plan.
package executor

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	// one spill.Budget is shared by the residual's sorts, DISTINCT and
	// GROUP BY, the bind join's build spool and the OUTERJOIN-MERGE
	// combiner, which spill to SpillDir past it. Rows otherwise live only
	// in the fan-in windows, so a federated ORDER BY or DISTINCT without
	// LIMIT over N sites is bounded end to end.
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
	FirstRow time.Duration // scan request sent → first row at the federation
}

// Metrics accumulates execution counters for experiments. Every scan
// stays live while the client consumes the result, so the counters
// settle when the result stream is closed; read them after Close.
type Metrics struct {
	RemoteQueries int
	RowsShipped   int
	SemijoinUsed  bool
	// SemijoinSkip reports a nominated bind join that did not pay at run
	// time: the build side's exact distinct keys exceeded the probe's
	// break-even cap (ScanSet.BindMaxKeys) or the query budget, so the
	// probe fragments shipped whole.
	SemijoinSkip bool
	// ShippedKeys counts join-key literals shipped to probe sites by the
	// bind join (each live probe scan receives every batch, so a key
	// probing two sites counts twice). Batches open as the residual
	// consumes the probe side, so an early-terminated query ships fewer.
	ShippedKeys int
	// BindJoinBatches counts the IN-list batches the bind join shipped.
	BindJoinBatches int
	// PrunedSources counts the source scans source selection proved
	// empty — sites the query never contacted.
	PrunedSources int
	// ScratchBypassed reports that the residual streamed straight off
	// the fan-in without the residual pipeline (the bypass).
	ScratchBypassed bool
	// SpilledBytes and SpillRuns report the query's spill activity
	// (external sorts, dedup, the bind join's build spool,
	// OUTERJOIN-MERGE stores) under its memory budget.
	SpilledBytes int64
	SpillRuns    int64
	// Sources collects per-site stream metrics; each entry is appended
	// when its site stream closes.
	Sources []SourceMetrics
}

// Execute runs the plan's remote scans as pipelined streams and
// returns the residual result as a stream the caller must Close. The
// residual reads one stream relation per scan set, which opens its
// fan-in on the first pull and closes it at its end, so nothing waits
// for a fragment to finish shipping before the first result row, and a
// query holds site connections only for the relation it is reading.
// Metrics settle when the returned stream is closed.
func Execute(ctx context.Context, plan *planner.Plan, runner SiteRunner, opts Options) (schema.RowStream, *Metrics, error) {
	m := &Metrics{PrunedSources: countPrunedSources(plan)}
	var mu sync.Mutex
	budget := queryBudget(opts)
	// flushSpill settles the spill counters; it runs when the result
	// stream closes (spilling happens lazily, inside the residual
	// pipeline or the bypass fan-in) and before early error returns.
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
		// reorder, so fall back to the residual pipeline (fresh metrics
		// — the aborted attempt's scans were torn down).
		m = &Metrics{PrunedSources: countPrunedSources(plan)}
	}

	rels, err := openRelations(ctx, plan, runner, opts, budget, m, &mu)
	if err != nil {
		flushSpill()
		return nil, m, err
	}
	rows, err := localdb.QueryRelations(ctx, plan.Residual, rels, budget)
	if err != nil {
		flushSpill()
		return nil, m, fmt.Errorf("executor: residual: %w", err)
	}
	return schema.StreamWithCleanup(rows, flushSpill), m, nil
}

// openRelations builds one stream relation per scan set. Each opens its
// fan-in on the residual's first pull and closes it at its end (see
// lazyStream), so a query holds pooled site connections only for the
// relation it is reading: neither a query with more scan sets at a site
// than the site's pool holds, nor concurrent queries sharing that pool,
// can wait on connections held by a relation nobody reads. A bind
// join's build side is the exception: it drains here into a spool that
// yields its distinct keys and is then replayed as its relation. On
// error every spooled build is closed.
func openRelations(ctx context.Context, plan *planner.Plan, runner SiteRunner, opts Options, budget *spill.Budget, m *Metrics, mu *sync.Mutex) ([]*localdb.StreamRelation, error) {
	sets := plan.ScanSets
	streams := make([]schema.RowStream, len(sets))
	spools := make([]*spill.Spool, len(sets))
	est := make([]float64, len(sets))
	for i, ss := range sets {
		est[i] = ss.EstRows
	}
	// open sets streams[i]. A probe first spools its build side, which
	// may itself be a probe.
	var open func(i, depth int) error
	open = func(i, depth int) error {
		if streams[i] != nil {
			return nil
		}
		ss := sets[i]
		if ss.SemiFrom == "" {
			streams[i] = &lazyStream{cols: ss.Spec.Columns, opens: []func() (schema.RowStream, error){
				fanInOpener(ctx, ss, runner, nil, opts, budget, m, mu),
			}}
			return nil
		}
		b := slices.IndexFunc(sets, func(s *planner.ScanSet) bool { return strings.EqualFold(s.Alias, ss.SemiFrom) })
		if b < 0 || depth > len(sets) {
			return fmt.Errorf("executor: semijoin build side %q missing", ss.SemiFrom)
		}
		if spools[b] == nil {
			if err := open(b, depth+1); err != nil {
				return err
			}
			sp, err := spill.SpoolStream(ctx, streams[b], budget)
			streams[b] = nil
			if err != nil {
				return err
			}
			spools[b] = sp
			streams[b] = sp.Stream(sets[b].Spec.Columns)
			est[b] = float64(sp.Len())
		}
		st, err := openProbe(ctx, plan, ss, sets[b], spools[b], runner, opts, budget, m, mu)
		if err != nil {
			return err
		}
		streams[i] = st
		return nil
	}
	for i := range sets {
		if err := open(i, 0); err != nil {
			for _, st := range streams {
				if st != nil {
					st.Close() // a spooled build's stream closes its spool
				}
			}
			return nil, err
		}
	}

	rels := make([]*localdb.StreamRelation, len(sets))
	for i, ss := range sets {
		rels[i] = localdb.NewStreamRelation(ss.Schema, est[i], streams[i])
	}
	return rels, nil
}

// fanInOpener defers openFanIn of ss (reduced by inList when it is a
// bind-join probe batch) to a lazyStream's pull.
func fanInOpener(ctx context.Context, ss *planner.ScanSet, runner SiteRunner, inList []sqlparser.Expr, opts Options, budget *spill.Budget, m *Metrics, mu *sync.Mutex) func() (schema.RowStream, error) {
	return func() (schema.RowStream, error) {
		return openFanIn(ctx, ss, runner, inList, loadModeFor(opts), opts, budget, m, mu)
	}
}

// lazyStream is a stream relation's rows: the concatenation of the
// streams its openers return, each opened on the first pull after the
// one before it is exhausted, which is then closed. It holds nothing
// before its first pull, and an exhausted fan-in hands its site
// connections back while the residual reads on. Close runs release, if
// set.
type lazyStream struct {
	cols    []string
	opens   []func() (schema.RowStream, error)
	release func()
	cur     schema.RowStream
	err     error
	closed  bool
}

func (l *lazyStream) Columns() []string { return l.cols }

func (l *lazyStream) Next(ctx context.Context) (schema.Row, error) {
	for !l.closed && l.err == nil {
		if l.cur == nil {
			if len(l.opens) == 0 {
				return nil, nil
			}
			l.cur, l.err = l.opens[0]()
			l.opens = l.opens[1:]
			continue
		}
		r, err := l.cur.Next(ctx)
		if r != nil || err != nil {
			return r, err
		}
		l.cur.Close()
		l.cur = nil
	}
	return nil, l.err
}

func (l *lazyStream) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.cur != nil {
		err = l.cur.Close()
		l.cur = nil
	}
	if l.release != nil {
		l.release()
	}
	return err
}

// loadModeFor resolves the fan-in mode for a stream relation. Auto
// keeps deterministic source order — the relation streams the
// integrated rows in the order a single database loaded source by
// source would hold them, so ties under the residual's stable sort
// break the same way; only an explicit Interleave trades that
// determinism for first-row latency.
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
			// Timed from before the request: a remote stream's header
			// arrives with its first batch, so QuerySite itself can
			// take most of the wait for the first row.
			start := time.Now()
			st, err := runner.QuerySite(ctx, scan.Site, scan.ProbeSQL(inList))
			if err != nil {
				errs[i] = fmt.Errorf("executor: scan at %s: %w", scan.Site, err)
				return
			}
			mu.Lock()
			m.RemoteQueries++
			mu.Unlock()
			streams[i] = &countedStream{RowStream: st, site: scan.Site, m: m, mu: mu, start: start}
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

// fanIn is one scan set's combined stream. Remote streams watch the
// context they were opened with, so Close cancels it before closing the
// sources: a feeder parked in a wire read is expired first, and early
// termination (a satisfied LIMIT, a sibling's error) never waits on a
// site that stalled mid-stream.
type fanIn struct {
	schema.RowStream
	cancel context.CancelFunc
}

func (f *fanIn) Close() error {
	f.cancel()
	return f.RowStream.Close()
}

// Batched reports whether the combined stream offers batches.
func (f *fanIn) Batched() bool { return schema.Batches(f.RowStream) != nil }

func (f *fanIn) NextBatch(ctx context.Context) (schema.Batch, error) {
	return f.RowStream.(schema.BatchStream).NextBatch(ctx)
}

// openFanIn opens every source scan of ss (reduced by inList when it is
// a bind-join probe batch) and combines them single-pass in mode. The
// ordered merge combines on ss.ScanOrdering and first cross-checks the
// planner's sorted-source claim against any ordering the streams
// themselves declare (in-process streams carry the engine's metadata;
// the wire strips it to nil, which is trusted): a contradiction means
// merging would reorder, and fails with errUnmergeableSources.
func openFanIn(ctx context.Context, ss *planner.ScanSet, runner SiteRunner, inList []sqlparser.Expr, mode integration.FanInMode, opts Options, budget *spill.Budget, m *Metrics, mu *sync.Mutex) (schema.RowStream, error) {
	fctx, cancel := context.WithCancel(ctx)
	streams, err := openScanSet(fctx, ss, runner, inList, m, mu)
	if err != nil {
		cancel()
		return nil, err
	}
	var mergeKeys []schema.SortKey
	if mode == integration.FanInMergeOrdered {
		mergeKeys = ss.ScanOrdering
		for _, st := range streams {
			if !orderingSatisfies(schema.StreamOrdering(st), mergeKeys) {
				cancel()
				for _, s := range streams {
					s.Close()
				}
				return nil, errUnmergeableSources
			}
		}
	}
	combined := integration.CombineStreamsOpts(fctx, ss.Spec, streams, integration.StreamOptions{
		Mode:       mode,
		MergeKeys:  mergeKeys,
		RowBudget:  opts.RowBudget,
		ByteBudget: opts.ByteBudget,
		Budget:     budget,
		OnBatch:    batchHook(streams),
	})
	return &fanIn{RowStream: combined, cancel: cancel}, nil
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
		s.count(1)
	}
	return r, err
}

// Batched reports whether the site stream hands over its batches.
func (s *countedStream) Batched() bool { return schema.Batches(s.RowStream) != nil }

// NextBatch meters the site stream's batches as Next meters its rows.
func (s *countedStream) NextBatch(ctx context.Context) (schema.Batch, error) {
	b, err := s.RowStream.(schema.BatchStream).NextBatch(ctx)
	if b.N > 0 {
		s.count(b.N)
	}
	return b, err
}

func (s *countedStream) count(rows int) {
	if s.n == 0 {
		s.first = time.Since(s.start)
	}
	s.n += rows
}

// Site names the site the stream reads (the ordered merge names it
// when the site breaks its sort order).
func (s *countedStream) Site() string { return s.site }

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
// Bypass

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
	where localdb.Predicate
	// reads marks the scan-set columns where reads.
	reads []bool
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

// planBypass decides whether the plan can skip the residual pipeline: a
// single scan set (no semijoin), a residual that is a bare projection
// of its columns — no join, grouping, aggregate, DISTINCT or compound
// — and an ORDER BY that is either absent or exactly the ordering
// every source scan already ships (ScanOrdering), which the stable
// merge fan-in reproduces without sorting. A residual WHERE over the
// scan set's columns filters inline on the fan-in (expressions the
// predicate compiler rejects fall back to the residual pipeline);
// LIMIT/OFFSET apply inline after it. Returns nil when the residual
// pipeline is needed.
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
	var where localdb.Predicate
	var reads []bool
	if r.Where != nil {
		pred, cols, err := localdb.CompileRowPredicate(r.Where, ss.Schema, ss.Alias, ss.TempTable)
		if err != nil {
			return nil
		}
		where, reads = pred, cols
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

	bp := &bypassPlan{ss: ss, where: where, reads: reads, count: -1}
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
// could silently reorder. The caller falls back to the residual
// pipeline.
var errUnmergeableSources = errors.New("executor: source stream ordering contradicts plan")

// execBypass streams integrated rows straight from the fan-in to the
// caller, with no residual pipeline.
func execBypass(ctx context.Context, bp *bypassPlan, runner SiteRunner, opts Options, budget *spill.Budget, m *Metrics, mu *sync.Mutex) (schema.RowStream, error) {
	m.ScratchBypassed = true
	mode := loadModeFor(opts)
	if bp.mergeKeys != nil {
		mode = integration.FanInMergeOrdered
	}
	combined, err := openFanIn(ctx, bp.ss, runner, nil, mode, opts, budget, m, mu)
	if err != nil {
		return nil, err
	}
	proj := bp.proj
	if bp.identity() {
		proj = nil
	}
	return &bypassStream{
		inner:  combined,
		schema: bp.ss.Schema,
		where:  bp.where,
		proj:   proj,
		cols:   bp.names,
		count:  bp.count,
		offset: bp.offset,
		scan:   value.RowScanner{Kinds: bp.ss.Schema.Kinds(), Need: bp.reads},
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

// bypassStream coerces, filters, projects and offset/limits the fan-in
// inline. Rows are coerced to the scan set's declared kinds exactly as
// the residual pipeline's stream relation coerces them, so both paths
// return the same kinds. OFFSET/LIMIT count rows that survive the
// filter, matching the residual's semantics. Once the count is
// satisfied it half-closes the fan-in eagerly, tearing remote scans
// down mid-flight exactly like the residual pipeline's limit.
//
// An identity projection over a fan-in that offers encoded batches
// offers them too (see residualBatch), so the rows of a plain scan
// cross the federation without being decoded.
type bypassStream struct {
	inner   schema.RowStream
	schema  *schema.Schema    // the scan set's: rows are coerced to it
	where   localdb.Predicate // nil = no filter
	proj    []int             // nil = identity
	cols    []string
	count   int64 // -1 = unbounded
	offset  int64
	skipped int64
	emitted int64
	done    bool
	closed  bool
	err     error
	scan    value.RowScanner // walks batches: the schema's kinds, where's columns
}

func (b *bypassStream) Columns() []string { return b.cols }

// admit applies the filter and the OFFSET to one coerced row, counting
// skipped rows in *skipped.
func (b *bypassStream) admit(r []value.Value, skipped *int64) (bool, error) {
	if b.where != nil {
		t, err := b.where(r)
		if err != nil || t != localdb.True {
			return false, err
		}
	}
	if *skipped < b.offset {
		*skipped++
		return false, nil
	}
	return true, nil
}

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
		if err == nil && r != nil {
			r, err = schema.ConformRow(b.schema, r)
		}
		if err != nil {
			b.err = err
			return nil, err
		}
		if r == nil {
			b.done = true
			return nil, nil
		}
		ok, err := b.admit(r, &b.skipped)
		if err != nil {
			b.err = err
			return nil, err
		}
		if !ok {
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

// Batched reports whether NextBatch is available: the projection is the
// identity and the fan-in offers batches (an ordered merge never does).
func (b *bypassStream) Batched() bool { return b.proj == nil && schema.Batches(b.inner) != nil }

// NextBatch is Next by encoded batches: each fan-in batch passes through
// residualBatch, and one that keeps no row is skipped.
func (b *bypassStream) NextBatch(ctx context.Context) (schema.Batch, error) {
	if b.err != nil {
		return schema.Batch{}, b.err
	}
	for !b.closed && !b.done {
		if b.count >= 0 && b.emitted >= b.count {
			b.halt()
			break
		}
		in, err := b.inner.(schema.BatchStream).NextBatch(ctx)
		if err == nil && in.N > 0 {
			in, err = b.residualBatch(in)
		} else if err == nil {
			b.done = true
		}
		if err != nil {
			b.err = err
			return schema.Batch{}, err
		}
		if in.N > 0 {
			b.emitted += int64(in.N)
			if b.count >= 0 && b.emitted >= b.count {
				b.halt()
			}
			return in, nil
		}
	}
	return schema.Batch{}, nil
}

// residualBatch applies the bypass's residual — the WHERE, OFFSET and
// LIMIT — to one encoded batch without building its rows. The walk
// decodes only the columns the WHERE reads, into one scratch row, and
// cuts the surviving rows out as byte ranges; a batch that survives
// whole is returned as it arrived. A batch holding a non-NULL value of
// another kind than its column declares takes residualRows instead.
func (b *bypassStream) residualBatch(in schema.Batch) (schema.Batch, error) {
	if err := b.scan.Reset(in.Payload, in.N); err != nil {
		return schema.Batch{}, err
	}
	skipped := b.skipped
	var out schema.Batch
	whole := true // every row so far kept: out is in.Payload[:end]
	for b.count < 0 || b.emitted+int64(out.N) < b.count {
		start, end, ok, err := b.scan.Next()
		if err != nil {
			return schema.Batch{}, err
		}
		if !ok {
			break
		}
		if !b.scan.Conform {
			return b.residualRows(in)
		}
		keep, err := b.admit(b.scan.Row, &skipped)
		if err != nil {
			return schema.Batch{}, err
		}
		switch {
		case keep && whole:
			out.Payload = in.Payload[:end]
		case keep:
			out.Payload = append(out.Payload, in.Payload[start:end]...)
		case whole:
			whole = false
			out.Payload = append(make([]byte, 0, len(in.Payload)-(end-start)), out.Payload...)
		}
		if keep {
			out.N++
		}
	}
	b.skipped = skipped
	return out, nil
}

// residualRows is residualBatch's slow path: the batch is decoded, each
// row coerced as Next coerces it, and the survivors re-encoded.
func (b *bypassStream) residualRows(in schema.Batch) (schema.Batch, error) {
	rows, err := value.DecodeRows([]schema.Row(nil), in.N, in.Payload)
	if err != nil {
		return schema.Batch{}, err
	}
	skipped := b.skipped
	var out schema.Batch
	for _, r := range rows {
		if b.count >= 0 && b.emitted+int64(out.N) >= b.count {
			break
		}
		if r, err = schema.ConformRow(b.schema, r); err != nil {
			return schema.Batch{}, err
		}
		keep, err := b.admit(r, &skipped)
		if err != nil {
			return schema.Batch{}, err
		}
		if keep {
			out.Payload = value.AppendRow(out.Payload, r)
			out.N++
		}
	}
	b.skipped = skipped
	return out, nil
}

// halt tears the fan-in down without marking the stream closed (the
// caller still owns Close).
func (b *bypassStream) halt() {
	if b.done {
		return
	}
	b.done = true
	b.inner.Close()
}

func (b *bypassStream) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	return b.inner.Close()
}

// ---------------------------------------------------------------------
// Bind join

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

// openProbe builds bind-join probe set ss's stream against its spooled
// build side: the build's distinct keys split into MaxInList-sized
// IN-list batches whose fan-ins open one after another. The batches
// partition the distinct keys, so each probe row matches exactly one
// batch and per-batch combining stays exact for every combine kind.
// This is where the bind join is decided: a key set over the planner's
// break-even cap (ss.BindMaxKeys) or the budget falls back to the
// unreduced probe (SemijoinSkip); an empty one ships nothing.
func openProbe(ctx context.Context, plan *planner.Plan, ss, build *planner.ScanSet, sp *spill.Spool, runner SiteRunner, opts Options, budget *spill.Budget, m *Metrics, mu *sync.Mutex) (schema.RowStream, error) {
	col := build.Schema.ColIndex(ss.SemiBuildCol)
	if col < 0 {
		return nil, fmt.Errorf("executor: semijoin build column %s.%s missing", build.Alias, ss.SemiBuildCol)
	}
	typ, maxKeys := build.Schema.Columns[col].Type, ss.BindMaxKeys
	vals, reserved, over, err := semiValues(ctx, sp, col, typ, maxKeys, budget)
	if err == nil && over == keysOverBudget && !sp.Spilled() {
		// The build rows the spool holds in memory crowd out the key set;
		// moved to disk, they leave the key pass the whole budget.
		budget.Release(reserved)
		reserved = 0
		if err = sp.Evict(); err == nil {
			vals, reserved, over, err = semiValues(ctx, sp, col, typ, maxKeys, budget)
		}
	}
	if err != nil || over != keysFit || len(vals) == 0 {
		budget.Release(reserved)
	}
	if err != nil {
		return nil, fmt.Errorf("executor: semijoin build values: %w", err)
	}
	mu.Lock()
	if over != keysFit {
		m.SemijoinSkip = true
	} else {
		m.SemijoinUsed = true
	}
	mu.Unlock()
	probe := &lazyStream{cols: ss.Spec.Columns}
	if over != keysFit {
		probe.opens = append(probe.opens, fanInOpener(ctx, ss, runner, nil, opts, budget, m, mu))
		return probe, nil
	}
	if len(vals) == 0 {
		// Empty build side (or all-NULL keys): the equi-join can match
		// nothing, so no probe site is contacted.
		return probe, nil
	}
	maxIn := plan.MaxInList
	if maxIn <= 0 {
		maxIn = 1000
	}
	probes := 0
	for _, sc := range ss.Scans {
		if sc.Pruned == "" && sc.SemiProbe != nil {
			probes++
		}
	}
	probe.release = func() { budget.Release(reserved) }
	for start := 0; start < len(vals); start += maxIn {
		batch := vals[start:min(start+maxIn, len(vals))]
		open := fanInOpener(ctx, ss, runner, batch, opts, budget, m, mu)
		probe.opens = append(probe.opens, func() (schema.RowStream, error) {
			mu.Lock()
			m.BindJoinBatches++
			m.ShippedKeys += len(batch) * probes
			mu.Unlock()
			return open()
		})
	}
	return probe, nil
}

// keyOverflow says whether a bind join's key set fit, and if not, why.
type keyOverflow uint8

const (
	keysFit        keyOverflow = iota
	keysOverCap                // more distinct keys than the probe's cap
	keysOverBudget             // the query budget refused a key
)

// semiValues reads the distinct non-NULL join keys (column col, coerced
// to the build column's type) out of the build side's spool. The dedup
// set is charged to the query budget like any blocking operator's
// state; over reports a distinct set past max or a reservation the
// budget refused, in which case the caller falls back to ship-all (and
// must Release(reserved) either way).
func semiValues(ctx context.Context, sp *spill.Spool, col int, typ schema.Type, max int, budget *spill.Budget) (vals []sqlparser.Expr, reserved int64, over keyOverflow, err error) {
	rd, err := sp.Rows()
	if err != nil {
		return nil, 0, keysFit, err
	}
	defer rd.Close()
	seen := make(map[string]struct{})
	var keys []value.Value
	var buf []byte
	for {
		r, rerr := rd.Next(ctx)
		if rerr != nil {
			return nil, reserved, keysFit, rerr
		}
		if r == nil {
			break
		}
		v, cerr := schema.Coerce(r[col], typ)
		if cerr != nil {
			return nil, reserved, keysFit, cerr
		}
		if v.IsNull() {
			continue
		}
		buf = value.AppendKey(buf[:0], &v)
		if _, dup := seen[string(buf)]; dup {
			continue
		}
		cost := int64(len(buf)) + 48
		if !budget.Reserve(cost) {
			return nil, reserved, keysOverBudget, nil
		}
		reserved += cost
		seen[string(buf)] = struct{}{}
		keys = append(keys, v)
		if len(keys) > max {
			return nil, reserved, keysOverCap, nil
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
	return vals, reserved, keysFit, nil
}
