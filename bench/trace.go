package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"myriad/internal/gateway"
	"myriad/internal/schema"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files (spans inside the program are a later issue). Spans of one op
// share Op; Parent is the span that caused this one (0 = none).
type span struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// shipped is one subquery the executor sent to a site during a stage,
// kept so the stage-by-stage replay can run exactly that SQL again.
type shipped struct {
	site, sql string
}

// recorder keeps spans in memory until the benchmark ends. The traced
// run has one client, so "the current op" and "the current stage" are
// plain fields; the mutex is for the site calls a stage fans out.
type recorder struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	op      int
	stage   int // span id site calls attach under; 0 = site calls not recorded
	shipped []shipped
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name, layer string, parent int) int {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Op: r.op, Name: name, Layer: layer, Parent: parent, Start: now})
	return id
}

func (r *recorder) end(id int) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// stage is what one recorded stage measured: its duration, the part of
// it that calls to sites cover, the summed duration of those calls, and
// the subqueries it shipped.
type stage struct {
	dur     time.Duration
	sites   time.Duration
	callSum time.Duration
	shipped []shipped
}

// run records fn as a top-level span of the current op. Site calls made
// through a spanConn while fn runs become its children.
func (r *recorder) run(name, layer string, fn func() error) (stage, error) {
	id := r.begin(name, layer, 0)
	r.mu.Lock()
	r.stage, r.shipped = id, nil
	r.mu.Unlock()
	err := fn()
	r.end(id)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stage = 0
	self := r.spans[id-1]
	kids := r.spans[id:] // every span begun since is a site call of this stage
	st := stage{dur: self.dur(), sites: covered(self, kids), shipped: r.shipped}
	for _, k := range kids {
		st.callSum += k.dur()
	}
	return st, err
}

// site records a call to a site as a child of the current stage (and,
// for a query, the SQL it shipped); it returns a no-op outside a stage (e.g. during the e2e call, which is
// measured with nothing recorded beneath it).
func (r *recorder) site(name, site, sql string) func() {
	r.mu.Lock()
	stage := r.stage
	if stage != 0 && sql != "" {
		r.shipped = append(r.shipped, shipped{site, sql})
	}
	r.mu.Unlock()
	if stage == 0 {
		return func() {}
	}
	id := r.begin(name+"@"+site, layerSite, stage)
	return func() { r.end(id) }
}

const (
	layerClient = "fedserver+fedclient"
	layerParser = "sqlparser"
	layerPlan   = "planner"
	layerExec   = "executor+integration"
	layerGTM    = "gtm"
	layerSite   = "comm+gateway+localdb" // a site seen over TCP
	layerLocal  = "gateway+localdb"      // the same call without the wire
	layerComm   = "comm"
)

// spanConn is the federation's TCP connection to a site with every call
// the global query and transaction paths make recorded as a span.
type spanConn struct {
	gateway.Conn
	rec *recorder
}

func (c spanConn) QueryStream(ctx context.Context, txn uint64, sql string) (schema.RowStream, error) {
	done := c.rec.site("stream", c.Site(), sql)
	st, err := c.Conn.QueryStream(ctx, txn, sql)
	if err != nil {
		done()
		return nil, err
	}
	return schema.StreamWithCleanup(st, done), nil
}

func (c spanConn) Begin(ctx context.Context, gid uint64) (uint64, error) {
	defer c.rec.site("begin", c.Site(), "")()
	return c.Conn.Begin(ctx, gid)
}

func (c spanConn) Exec(ctx context.Context, txn uint64, sql string) (int, error) {
	defer c.rec.site("exec", c.Site(), "")()
	return c.Conn.Exec(ctx, txn, sql)
}

func (c spanConn) Prepare(ctx context.Context, txn uint64) error {
	defer c.rec.site("prepare", c.Site(), "")()
	return c.Conn.Prepare(ctx, txn)
}

func (c spanConn) Commit(ctx context.Context, txn uint64) error {
	defer c.rec.site("commit", c.Site(), "")()
	return c.Conn.Commit(ctx, txn)
}

// ---------------------------------------------------------------------
// Span arithmetic

// covered is the length of the union of the children's intervals clipped
// to the parent: the part of the parent's time some child accounts for.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// layerRow is one line of a workload's layer table.
type layerRow struct {
	Layer    string  `json:"layer"`
	MedianUs float64 `json:"median_self_us"`
	Share    float64 `json:"share_of_e2e"`
}

// opBreakdown is what one traced op contributes to the layer table: the
// e2e time, the critical-path stages that should add up to it, and the
// self time of each layer on that path.
type opBreakdown struct {
	e2e      time.Duration
	critical time.Duration
	layers   map[string]time.Duration
}

// layerTable folds per-op breakdowns into median self time per layer,
// its share of the median e2e, and coverage = median critical-path sum /
// median e2e.
func layerTable(ops []opBreakdown) (rows []layerRow, coverage float64) {
	if len(ops) == 0 {
		return nil, 0
	}
	var e2e, crit []float64
	perLayer := make(map[string][]float64)
	for _, o := range ops {
		e2e = append(e2e, float64(o.e2e))
		crit = append(crit, float64(o.critical))
		for l, d := range o.layers {
			perLayer[l] = append(perLayer[l], float64(d))
		}
	}
	me := median(e2e)
	for l, v := range perLayer {
		m := median(v)
		rows = append(rows, layerRow{Layer: l, MedianUs: m / 1e3, Share: m / me})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].MedianUs > rows[j].MedianUs })
	return rows, median(crit) / me
}
