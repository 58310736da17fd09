package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"myriad"
	"myriad/internal/gateway"
	"myriad/internal/lockmgr"
	"myriad/internal/planner"
	"myriad/internal/schema"
	"myriad/internal/spill"
	"myriad/internal/sqlparser"
	"myriad/internal/value"
	"myriad/internal/wal"
)

// metric is one named number with its unit and how many samples it
// summarizes (timings are medians; counts are means per op).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// kindTable is the layer table of one op kind of a workload.
type kindTable struct {
	Kind     string     `json:"kind"` // "read" or "transfer"
	Ops      int        `json:"ops"`
	E2EUs    float64    `json:"e2e_median_us"`
	Coverage float64    `json:"coverage"`
	Layers   []layerRow `json:"layers"`
}

// traceResult is what the traced run of one workload produced.
type traceResult struct {
	Ops     int               `json:"ops"`
	Base    runStats          `json:"untraced_one_client_run"`
	Tables  []kindTable       `json:"tables"`
	Metrics map[string]metric `json:"metrics"`
}

const (
	companionOps = 20 // ops of the other kind, so every layer metric is measured on every workload
	coldPlans    = 20 // read ops that also time a plan against an invalidated stats cache
	// op streams of the traced run (the measured run's clients use 0..)
	streamTraced    = 200
	streamCompanion = 201
	streamBase      = 300
)

// series collects samples per metric name.
type series map[string][]float64

func (s series) add(name string, v float64)      { s[name] = append(s[name], v) }
func (s series) us(name string, d time.Duration) { s.add(name, float64(d)/1e3) }
func (s series) ms(name string, d time.Duration) { s.add(name, float64(d)/1e6) }
func (s series) perOp(name string, total, ops int64) {
	s.add(name, float64(total)/float64(max(ops, 1)))
}

// tracer replays ops stage by stage through each layer's exported calls.
type tracer struct {
	dep   *deployment
	rec   *recorder
	local []gateway.Conn // in-process connection to each site
	wire  []gateway.Conn // bare TCP connection to each site, through its counting forwarder
	t     series         // timings, summarized by their median
	n     series         // counts, summarized by their mean
}

func newTracer(dep *deployment, rec *recorder) *tracer {
	tr := &tracer{dep: dep, rec: rec, t: series{}, n: series{}}
	for _, st := range dep.sites {
		tr.local = append(tr.local, myriad.LocalConn(st.gw))
		tr.wire = append(tr.wire, myriad.DialGateway(st.name, st.fwd.addr(), 1))
	}
	return tr
}

func (tr *tracer) close() {
	for _, c := range tr.wire {
		c.Close()
	}
}

func (tr *tracer) siteIndex(name string) int {
	for i, st := range tr.dep.sites {
		if st.name == name {
			return i
		}
	}
	panic("bench: unknown site " + name)
}

// drain pulls a stream dry, closes it and returns its row count.
func drain(ctx context.Context, st schema.RowStream, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	defer st.Close()
	for n := 0; ; n++ {
		r, err := st.Next(ctx)
		if err != nil || r == nil {
			return n, err
		}
	}
}

// e2e runs o through the federation client inside an "e2e" span with
// nothing recorded beneath it.
func (tr *tracer) e2e(ctx context.Context, o op) (time.Duration, int, error) {
	t0 := time.Now()
	id := tr.rec.begin("e2e", layerClient, 0)
	retries, err := execOp(ctx, tr.dep.client, tr.dep.data, o)
	tr.rec.end(id)
	return time.Since(t0), retries, err
}

// split divides the time a stage spent blocked on sites between the
// wire and the site itself, by the ratio a wire-less replay measured.
func split(sites, local, overWire time.Duration) (site, comm time.Duration) {
	share := 1.0
	if overWire > 0 {
		share = min(float64(local)/float64(overWire), 1)
	}
	site = time.Duration(float64(sites) * share)
	return site, sites - site
}

// traceRead runs one read op end to end, then once more stage by stage:
// parse, plan (and, when cold, a plan against an emptied stats cache),
// print, the federation's own query call, each shipped subquery at its
// site without and with the wire, and a bare round trip.
func (tr *tracer) traceRead(ctx context.Context, o op, cold bool) (b opBreakdown, err error) {
	rec, fed, sql := tr.rec, tr.dep.fed, o.sql()
	if b.e2e, _, err = tr.e2e(ctx, o); err != nil {
		return b, err
	}

	var sel *sqlparser.Select
	parse, err := rec.run("parse", layerParser, func() error {
		stmt, err := sqlparser.Parse(sql)
		if err == nil {
			sel = stmt.(*sqlparser.Select)
		}
		return err
	})
	if err != nil {
		return b, err
	}
	pl := planner.New(fed.Catalog(), fed)
	var plan *planner.Plan
	planWarm, err := rec.run("plan", layerPlan, func() (err error) {
		plan, err = pl.Plan(ctx, sel, fed.Strategy)
		return err
	})
	if err != nil {
		return b, err
	}
	scans, pruned := 0, 0
	print, _ := rec.run("print", layerParser, func() error {
		for _, ss := range plan.ScanSets {
			for _, sc := range ss.Scans {
				if sc.Pruned != "" {
					pruned++
					continue
				}
				scans++
				_ = sc.SQL()
			}
		}
		return nil
	})
	tr.t.us("sqlparser.parse_us", parse.dur)
	tr.t.us("sqlparser.print_us", print.dur)
	tr.t.us("planner.plan_warm_us", planWarm.dur)
	tr.n.add("planner.remote_scans", float64(scans))
	tr.n.add("planner.pruned_sources", float64(pruned))
	if cold {
		fed.InvalidateStats()
		planCold, err := rec.run("plan_cold", layerPlan, func() error {
			_, err := pl.Plan(ctx, sel, fed.Strategy)
			return err
		})
		if err != nil {
			return b, err
		}
		tr.t.ms("planner.stats_fetch_ms", planCold.dur-planWarm.dur)
	}

	fedq, err := rec.run("fed_query", layerExec, func() error {
		st, m, err := fed.QueryStreamMetered(ctx, sql, fed.Strategy)
		if _, err = drain(ctx, st, err); err != nil {
			return err
		}
		tr.n.add("executor.rows_shipped", float64(m.RowsShipped))
		tr.n.add("executor.shipped_keys", float64(m.ShippedKeys))
		tr.n.add("executor.bind_join_batches", float64(m.BindJoinBatches))
		tr.n.add("executor.spilled_bytes", float64(m.SpilledBytes))
		bypassed := 0.0
		if m.ScratchBypassed {
			bypassed = 1
		}
		tr.n.add("executor.scratch_bypassed", bypassed)
		return nil
	})
	if err != nil {
		return b, err
	}

	var localSum, wireSum time.Duration
	for _, sh := range fedq.shipped {
		i := tr.siteIndex(sh.site)
		st := tr.dep.sites[i]
		scanned0, returned := st.db.ScannedRows(), 0
		local, err := rec.run("scan@"+sh.site, layerLocal, func() (err error) {
			rows, err := tr.local[i].QueryStream(ctx, 0, sh.sql)
			returned, err = drain(ctx, rows, err)
			return err
		})
		if err != nil {
			return b, err
		}
		examined := st.db.ScannedRows() - scanned0
		bytes0 := st.fwd.toClient.Load()
		wire, err := rec.run("wire@"+sh.site, layerSite, func() error {
			rows, err := tr.wire[i].QueryStream(ctx, 0, sh.sql)
			_, err = drain(ctx, rows, err)
			return err
		})
		if err != nil {
			return b, err
		}
		localSum += local.dur
		wireSum += wire.dur
		rows := int64(returned)
		tr.t.ms("gateway.site_scan_ms", local.dur)
		tr.n.add("gateway.rows_returned", float64(rows))
		tr.n.perOp("gateway.rows_examined_per_returned", examined, rows)
		tr.t.add("comm.wire_us_per_row", float64(wire.dur-local.dur)/1e3/float64(max(rows, 1)))
		tr.n.perOp("comm.wire_bytes_per_row", st.fwd.toClient.Load()-bytes0, rows)
	}
	ping, err := rec.run("ping", layerComm, func() error { return tr.dep.client.Ping(ctx) })
	if err != nil {
		return b, err
	}
	tr.t.us("comm.rpc_us", ping.dur)

	residual := max(fedq.dur-fedq.sites-parse.dur-planWarm.dur-print.dur, 0)
	tr.t.ms("executor.fanin_scratch_residual_ms", residual)
	tr.t.us("client.read_hop_us", b.e2e-fedq.dur)
	atSite, onWire := split(fedq.sites, localSum, wireSum)
	b.critical = ping.dur + fedq.dur
	b.layers = map[string]time.Duration{
		layerClient: max(b.e2e-fedq.dur, 0),
		layerParser: parse.dur + print.dur,
		layerPlan:   planWarm.dur,
		layerExec:   residual,
		layerLocal:  atSite,
		layerComm:   onWire,
	}
	return b, nil
}

// traceTransfer runs one transfer end to end, then replays it through
// the coordinator directly (sites over TCP), through one site's gateway
// without the wire, and as a plain local transaction. Every replay is a
// whole transfer or a debit paired with its credit, so money stays
// conserved.
func (tr *tracer) traceTransfer(ctx context.Context, o op) (b opBreakdown, err error) {
	rec, fed := tr.rec, tr.dep.fed
	var retries int
	if b.e2e, retries, err = tr.e2e(ctx, o); err != nil {
		return b, err
	}
	tr.n.add("gtm.retries_per_op", float64(retries))

	var txn *myriad.GlobalTxn
	begin, _ := rec.run("gtm.begin", layerGTM, func() error { txn = fed.Begin(); return nil })
	gtmTotal, siteTime, siteCalls := begin.dur, time.Duration(0), time.Duration(0)
	for _, leg := range [2]struct {
		site int
		sql  string
	}{{o.a, o.debitSQL()}, {o.c, o.creditSQL()}} {
		exec, err := rec.run("gtm.exec_site", layerGTM, func() error {
			_, err := txn.ExecSite(ctx, siteName(leg.site), leg.sql)
			return err
		})
		if err != nil {
			txn.Abort(ctx)
			return b, err
		}
		tr.t.us("gtm.exec_site_us", exec.dur)
		gtmTotal, siteTime, siteCalls = gtmTotal+exec.dur, siteTime+exec.sites, siteCalls+exec.callSum
	}
	commit, err := rec.run("gtm.commit", layerGTM, func() error { return txn.Commit(ctx) })
	if err != nil {
		return b, err
	}
	gtmTotal, siteTime, siteCalls = gtmTotal+commit.dur, siteTime+commit.sites, siteCalls+commit.callSum
	tr.t.us("gtm.begin_us", begin.dur)
	tr.t.us("gtm.commit_2pc_us", commit.dur)
	// Prepares run in parallel, then commits do: what they cover is the
	// slowest prepare plus the slowest commit, and the rest of the call
	// is the coordinator's own decision fsync and bookkeeping.
	tr.t.us("gtm.coord_overhead_us", commit.dur-commit.sites)

	// One branch per leg at the debit site, without the wire; the second
	// leg pays the first one back.
	conn, db := tr.local[o.a], tr.dep.sites[o.a].db
	var localCalls time.Duration
	for _, sql := range [2]string{o.debitSQL(), fmt.Sprintf("UPDATE ACCT SET bal = bal + %d WHERE id = %d", o.e, o.b)} {
		var id uint64
		steps := []struct {
			name, metric string
			fn           func() error
		}{
			{"branch.begin", "", func() (err error) { id, err = conn.Begin(ctx, 0); return err }},
			{"branch.exec", "gateway.branch_exec_us", func() error { _, err := conn.Exec(ctx, id, sql); return err }},
			{"branch.prepare", "gateway.prepare_us", func() error { return conn.Prepare(ctx, id) }},
			{"branch.commit", "gateway.commit_us", func() error { return conn.Commit(ctx, id) }},
		}
		for _, s := range steps {
			st, err := rec.run(s.name, layerLocal, s.fn)
			if err != nil {
				return b, err
			}
			localCalls += st.dur
			if s.metric != "" {
				tr.t.us(s.metric, st.dur)
			}
		}
	}
	for _, sign := range [2]string{"-", "+"} {
		st, err := rec.run("local_commit", "localdb", func() error {
			tx := db.Begin()
			if _, err := tx.Exec(ctx, fmt.Sprintf("UPDATE acct SET bal = bal %s %d WHERE id = %d", sign, o.e, o.b)); err != nil {
				tx.Rollback()
				return err
			}
			return tx.Commit()
		})
		if err != nil {
			return b, err
		}
		tr.t.us("localdb.local_commit_us", st.dur)
	}
	ping, err := rec.run("ping", layerComm, func() error { return tr.dep.client.Ping(ctx) })
	if err != nil {
		return b, err
	}
	tr.t.us("comm.rpc_us", ping.dur)
	tr.t.us("client.transfer_hop_us", b.e2e-gtmTotal)

	// Both replays made two branches' worth of calls (begin, exec,
	// prepare, commit), so their sums compare directly.
	atSite, onWire := split(siteTime, localCalls, siteCalls)
	b.critical = 4*ping.dur + gtmTotal // Begin, ExecSite twice, Commit
	b.layers = map[string]time.Duration{
		layerClient: max(b.e2e-gtmTotal, 0),
		layerGTM:    gtmTotal - siteTime,
		layerLocal:  atSite,
		layerComm:   onWire,
	}
	return b, nil
}

// ---------------------------------------------------------------------
// Layers no op reaches alone: measured by calling them directly.

const (
	walAppends     = 2000
	walSyncAppends = 200
	lockRounds     = 10
	lockPairs      = 20000
	sorterRepeats  = 3
)

// walRecord is a commit record the size of one transfer leg's.
func walRecord() *wal.Record {
	return &wal.Record{Kind: wal.RecCommit, Ops: []wal.Op{{Kind: wal.OpUpdate, Table: "acct", Row: 7,
		Vals: []value.Value{value.NewInt(7), value.NewText("owner-0-7"), value.NewInt(993)}}}}
}

func (tr *tracer) measureWAL() error {
	appendAll := func(name string, policy wal.Sync, appenders, each int) ([]float64, error) {
		path := filepath.Join(tr.dep.dir, name)
		l, err := wal.Open(path, wal.Options{Sync: policy}, nil)
		if err != nil {
			return nil, err
		}
		defer os.Remove(path)
		defer l.Close()
		var wg sync.WaitGroup
		us := make([][]float64, appenders)
		errs := make([]error, appenders)
		for a := range us {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each && errs[a] == nil; i++ {
					t0 := time.Now()
					_, errs[a] = l.Append(walRecord())
					us[a] = append(us[a], float64(time.Since(t0))/1e3)
				}
			}()
		}
		wg.Wait()
		return slices.Concat(us...), errors.Join(errs...)
	}
	for _, c := range []struct {
		metric    string
		policy    wal.Sync
		appenders int
		each      int
	}{
		{"wal.append_us", wal.SyncOff, 1, walAppends},
		{"wal.append_sync_us", wal.SyncAlways, 1, walSyncAppends},
		{"wal.append_sync_2_us", wal.SyncAlways, 2, walSyncAppends},
	} {
		us, err := appendAll(c.metric+".log", c.policy, c.appenders, c.each)
		if err != nil {
			return err
		}
		tr.t[c.metric] = us
	}
	return nil
}

func (tr *tracer) measureLocks(ctx context.Context) error {
	m := lockmgr.New()
	for r := 0; r < lockRounds; r++ {
		t0 := time.Now()
		for i := 0; i < lockPairs; i++ {
			txn := lockmgr.TxnID(r*lockPairs + i + 1)
			if err := m.Acquire(ctx, txn, "k:acct:7", lockmgr.X); err != nil {
				return err
			}
			m.ReleaseAll(txn)
		}
		tr.t.add("lockmgr.acquire_release_ns", float64(time.Since(t0))/lockPairs)
	}
	return nil
}

// measureSorter sorts the row set of one sort_spill query (the parts of
// a 333-wide weight range, by price) under the federation's 1 MB budget.
func (tr *tracer) measureSorter(ctx context.Context) error {
	d := tr.dep.data
	var rows []schema.Row
	for _, p := range d.parts {
		if p.weightMilli >= 300_000 && p.weightMilli < (300+sortSpan)*1000 {
			rows = append(rows, schema.Row{value.NewInt(int64(p.id)), value.NewText(p.name()), value.NewFloat(p.price())})
		}
	}
	for r := 0; r < sorterRepeats; r++ {
		budget := spill.NewBudget(memBudget, tr.dep.spillDir)
		s := spill.NewSorter(budget, []schema.SortKey{{Col: 2}})
		t0 := time.Now()
		for _, row := range rows {
			if err := s.Add(row); err != nil {
				s.Close()
				return err
			}
		}
		it, err := s.Finish()
		if err != nil {
			s.Close()
			return err
		}
		n := 0
		for {
			row, err := it.Next(ctx)
			if err != nil {
				it.Close()
				return err
			}
			if row == nil {
				break
			}
			n++
		}
		elapsed := time.Since(t0)
		it.Close()
		if n != len(rows) {
			return fmt.Errorf("spill sorter returned %d of %d rows", n, len(rows))
		}
		bytes, runs := budget.Stats()
		tr.t.add("spill.sort_rows_per_s", float64(n)/elapsed.Seconds())
		tr.n.perOp("spill.spilled_bytes_per_row", bytes, int64(n))
		tr.n.add("spill.spill_runs", float64(runs))
	}
	return nil
}

// ---------------------------------------------------------------------

// layerUnits names every per-layer metric and its unit; BENCHMARK.json
// lists the same names.
var layerUnits = map[string]string{
	"sqlparser.parse_us": "us", "sqlparser.print_us": "us",
	"planner.plan_warm_us": "us", "planner.stats_fetch_ms": "ms",
	"planner.remote_scans": "count", "planner.pruned_sources": "count",
	"gateway.site_scan_ms": "ms", "gateway.rows_returned": "count", "gateway.rows_examined_per_returned": "ratio",
	"comm.wire_us_per_row": "us", "comm.wire_bytes_per_row": "bytes", "comm.rpc_us": "us",
	"executor.fanin_scratch_residual_ms": "ms", "executor.rows_shipped": "count", "executor.shipped_keys": "count",
	"executor.bind_join_batches": "count", "executor.scratch_bypassed": "ratio", "executor.spilled_bytes": "bytes",
	"spill.sort_rows_per_s": "1/s", "spill.spilled_bytes_per_row": "bytes", "spill.spill_runs": "count",
	"lockmgr.acquire_release_ns": "ns",
	"wal.append_us":              "us", "wal.append_sync_us": "us", "wal.append_sync_2_us": "us",
	"localdb.local_commit_us": "us",
	"gateway.branch_exec_us":  "us", "gateway.prepare_us": "us", "gateway.commit_us": "us",
	"gtm.begin_us": "us", "gtm.exec_site_us": "us", "gtm.commit_2pc_us": "us",
	"gtm.coord_overhead_us": "us", "gtm.retries_per_op": "ratio",
	"client.read_hop_us": "us", "client.transfer_hop_us": "us",
	"process.alloc_kb_per_op": "KB", "process.gc_cycles": "count",
	"trace.overhead_ratio": "ratio", "trace.coverage": "ratio",
}

// runTraced is the traced run of one workload on a deployment booted
// with rec: a short untraced one-client run (the base the tracing
// overhead is measured against), then ops fixed ops from the seed, each
// run end to end and replayed stage by stage, then the direct layer
// measurements.
func runTraced(ctx context.Context, dep *deployment, rec *recorder, wl workload, ops int, base time.Duration) (*traceResult, error) {
	tr := newTracer(dep, rec)
	defer tr.close()
	res := &traceResult{Ops: ops, Metrics: map[string]metric{}}
	res.Base = drive(ctx, dep, wl, 1, streamBase, base)
	if res.Base.Failed > 0 {
		return nil, fmt.Errorf("untraced run: %d ops failed: %s", res.Base.Failed, res.Base.FirstErr)
	}

	own := map[string][]opBreakdown{}
	var e2eMs []float64
	traceOp := func(o op, cold bool) (string, opBreakdown, error) {
		rec.op++
		if o.kind == opTransfer {
			b, err := tr.traceTransfer(ctx, o)
			return "transfer", b, err
		}
		b, err := tr.traceRead(ctx, o, cold)
		return "read", b, err
	}
	next := wl.stream(opRNG(dep.data.seed, wl.name, streamTraced))
	reads := 0
	for i := 0; i < ops; i++ {
		o := next()
		cold := o.kind != opTransfer && reads < coldPlans
		kind, b, err := traceOp(o, cold)
		if err != nil {
			return nil, fmt.Errorf("traced op %d: %w", i, err)
		}
		if kind == "read" {
			reads++
		}
		own[kind] = append(own[kind], b)
		e2eMs = append(e2eMs, float64(b.e2e)/1e6)
	}
	// Companion ops of the kind the workload lacks: they fill in that
	// kind's layer metrics and stay out of the workload's own tables.
	rng := opRNG(dep.data.seed, wl.name, streamCompanion)
	for _, c := range []struct {
		kind string
		gen  func(*rand.Rand) op
	}{{"read", genPointRead}, {"transfer", genTransfer}} {
		for i := 0; len(own[c.kind]) == 0 && i < min(companionOps, ops); i++ {
			if _, _, err := traceOp(c.gen(rng), true); err != nil {
				return nil, fmt.Errorf("companion %s %d: %w", c.kind, i, err)
			}
		}
	}
	if err := tr.measureWAL(); err != nil {
		return nil, err
	}
	if err := tr.measureLocks(ctx); err != nil {
		return nil, err
	}
	if err := tr.measureSorter(ctx); err != nil {
		return nil, err
	}

	kinds := make([]string, 0, len(own))
	for k := range own {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var coverage float64
	for _, k := range kinds {
		t := kindTable{Kind: k, Ops: len(own[k])}
		t.Layers, t.Coverage = layerTable(own[k])
		var e2e []float64
		for _, b := range own[k] {
			e2e = append(e2e, float64(b.e2e)/1e3)
		}
		t.E2EUs = median(e2e)
		res.Tables = append(res.Tables, t)
		coverage += t.Coverage * float64(t.Ops) / float64(ops)
	}
	for name, v := range tr.t {
		res.Metrics[name] = metric{Value: median(v), Unit: layerUnits[name], Samples: len(v)}
	}
	for name, v := range tr.n {
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		res.Metrics[name] = metric{Value: sum / float64(len(v)), Unit: layerUnits[name], Samples: len(v)}
	}
	res.Metrics["process.alloc_kb_per_op"] = metric{Value: res.Base.AllocKB, Unit: "KB", Samples: res.Base.Attempted}
	res.Metrics["process.gc_cycles"] = metric{Value: float64(res.Base.GCCycles), Unit: "count", Samples: res.Base.Attempted}
	res.Metrics["trace.overhead_ratio"] = metric{Value: median(e2eMs) / res.Base.P50Ms, Unit: "ratio", Samples: len(e2eMs)}
	res.Metrics["trace.coverage"] = metric{Value: coverage, Unit: "ratio", Samples: ops}
	for name := range layerUnits {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("traced run measured no %s", name)
		}
	}
	return res, nil
}
