// Command bench is MYRIAD's closed-loop federation benchmark: one process
// boots a three-site federation on real TCP, drives it through fedclient
// with two clients, checks every answer and prints every metric by name.
// See README.md for the workloads, the metrics and how they interact.
//
//	bash bench/run.sh -seed 1                      # all six workloads, measured then traced
//	bash bench/run.sh --workload transfer --seed 1 --seconds 14 --trace 0
//	bash bench/run.sh -compare a.json b.json       # apply BENCHMARK.json's bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// settings are the run lengths; -smoke shrinks them so the tests can
// run the whole harness in a few seconds.
type settings struct {
	seed    int64
	measure time.Duration // measured closed-loop run
	warmup  time.Duration // unmeasured: stats cache, pools and lazy set-up are paid here
	setups  int           // deployments booted; setup_s is their median
	traced  int           // when > 0, the traced run's op count whatever the workload
	outDir  string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wlName := fs.String("workload", "", "run one workload and end with the one-line JSON result (default: all six, measured then traced)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 14, "length of the measured run")
	trace := fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = traced run, per-layer metrics")
	smoke := fs.Bool("smoke", false, "0.5 s runs and 6 traced ops: checks the harness, measures nothing")
	compare := fs.Bool("compare", false, "compare two result.json files (arguments) under BENCHMARK.json's bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result.json files")
			return 2
		}
		return compareFiles(filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	set := settings{
		seed: *seed, measure: time.Duration(*seconds) * time.Second, warmup: 2 * time.Second, setups: 5,
		outDir: filepath.Join(root, "bench", "out"),
	}
	if *smoke {
		set.measure, set.warmup, set.setups = 500*time.Millisecond, 200*time.Millisecond, 1
		set.traced = 6
	}
	if err := os.MkdirAll(set.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	todo := workloads
	if *wlName != "" {
		w, ok := findWorkload(*wlName)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *wlName)
			return 2
		}
		todo = []workload{w}
	}
	ctx := context.Background()
	if *wlName != "" {
		// The driver allows a run 180 s: a hung federation must end as
		// failed ops, not as a run that never reports.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 150*time.Second)
		defer cancel()
	}
	data := generate(set.seed)
	res := result{Env: environment(set, data)}
	var spans []workloadSpans
	ok := true
	for _, w := range todo {
		wr := workloadResult{Name: w.name, Correct: true}
		if *wlName == "" || *trace == 0 {
			if err := wr.measure(ctx, set, data, w); err != nil {
				wr.Correct, wr.Error = false, err.Error()
			}
			wr.printMeasured(stdout, set)
		}
		if wr.Correct && (*wlName == "" || *trace == 1) {
			rec := newRecorder()
			if err := wr.trace(ctx, set, data, w, rec); err != nil {
				wr.Correct, wr.Error = false, err.Error()
			} else {
				wr.printTraced(stdout)
			}
			spans = append(spans, workloadSpans{Workload: w.name, Spans: rec.spans})
		}
		if !wr.Correct {
			fmt.Fprintf(stdout, "  FAILED: %s\n", wr.Error)
			ok = false
		}
		res.Workloads = append(res.Workloads, wr)
	}
	if *wlName == "" {
		res.printGap(stdout)
	}
	if err := errors.Join(writeJSON(filepath.Join(set.outDir, "result.json"), res),
		writeJSON(filepath.Join(set.outDir, "trace.json"), spans)); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *wlName != "" {
		fmt.Fprintln(stdout, res.Workloads[0].contractLine(*trace == 1))
	}
	if !ok {
		return 1
	}
	return 0
}

// findRoot locates the checkout: the benchmark runs from its root (the
// driver, run.sh) or from bench/ (go test, go run).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
				return dir, nil
			}
		}
	}
	return "", errors.New("run from the repository root or from bench/ (BENCHMARK.json not found)")
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ---------------------------------------------------------------------
// Results

type envRecord struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	Seed         int64   `json:"seed"`
	Clients      int     `json:"clients"`
	FlushPolicy  string  `json:"flush_policy"`
	Filesystem   string  `json:"data_dir_filesystem"`
	MeasureS     float64 `json:"measure_seconds"`
	WarmupS      float64 `json:"warmup_seconds"`
	Setups       int     `json:"setups"`
	DataDigest   string  `json:"data_digest"`
	SitePool     int     `json:"site_pool"`
	MemBudget    int     `json:"mem_budget_bytes"`
	RowsPerTable string  `json:"rows"`
}

func environment(set settings, data *dataset) envRecord {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return envRecord{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: set.seed, Clients: numClients,
		FlushPolicy: fmt.Sprintf("site wal=%v checkpoint_bytes=%d; coordinator log=%v compact_bytes=%d",
			walSync, checkpointBytes, walSync, compactBytes),
		Filesystem: filesystemOf(set.outDir),
		MeasureS:   set.measure.Seconds(), WarmupS: set.warmup.Seconds(), Setups: set.setups,
		DataDigest: fmt.Sprintf("%016x", data.digest),
		SitePool:   sitePool, MemBudget: memBudget,
		RowsPerTable: fmt.Sprintf("PARTS %dx%d, ACCOUNTS %dx%d, CUSTOMERS %d, ORDERS %d",
			numSites, partsPerSite, numSites, accountsPerSite, numCustomers, numOrders),
	}
}

// filesystemOf names the filesystem holding dir, from the mount table
// (the longest mount point that prefixes it).
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fstype := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fstype = mp, f[2]
		}
	}
	return fstype
}

type workloadResult struct {
	Name    string       `json:"name"`
	Correct bool         `json:"correct"`
	Error   string       `json:"error,omitempty"`
	SetupS  float64      `json:"setup_s"`
	Setups  []float64    `json:"setups_s"`
	Run     runStats     `json:"run"`
	Trace   *traceResult `json:"trace,omitempty"`
}

type result struct {
	Env       envRecord        `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadSpans struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

// measure is the end-to-end run of one workload, tracing off: boot a
// fresh deployment (several times; setup_s is the median), warm up,
// drive it closed-loop, then check the invariants.
func (wr *workloadResult) measure(ctx context.Context, set settings, data *dataset, w workload) (err error) {
	dir := filepath.Join(set.outDir, "data-"+w.name)
	var dep *deployment
	for i := 0; i < set.setups; i++ {
		if dep != nil {
			if err := dep.shutdown(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if dep, err = boot(ctx, data, dir, nil); err != nil {
			return err
		}
		wr.Setups = append(wr.Setups, time.Since(t0).Seconds())
	}
	wr.SetupS = median(wr.Setups)
	defer func() { err = errors.Join(err, dep.shutdown()) }()
	if warm := drive(ctx, dep, w, numClients, 100, set.warmup); warm.Failed > 0 {
		return fmt.Errorf("warm-up: %d ops failed: %s", warm.Failed, warm.FirstErr)
	}
	wr.Run = drive(ctx, dep, w, numClients, 0, set.measure)
	if wr.Run.Failed > 0 {
		return fmt.Errorf("%d of %d ops failed: %s", wr.Run.Failed, wr.Run.Attempted, wr.Run.FirstErr)
	}
	return dep.checkInvariants(ctx)
}

// trace is the traced run of one workload, on its own deployment.
func (wr *workloadResult) trace(ctx context.Context, set settings, data *dataset, w workload, rec *recorder) (err error) {
	dep, err := boot(ctx, data, filepath.Join(set.outDir, "data-"+w.name), rec)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, dep.shutdown()) }()
	if warm := drive(ctx, dep, w, 1, 100, set.warmup/2); warm.Failed > 0 {
		return fmt.Errorf("warm-up: %d ops failed: %s", warm.Failed, warm.FirstErr)
	}
	ops := w.tracedOps
	if set.traced > 0 {
		ops = set.traced
	}
	if wr.Trace, err = runTraced(ctx, dep, rec, w, ops, set.measure/4); err != nil {
		return err
	}
	return dep.checkInvariants(ctx)
}

// contractLine is the one-line JSON the driver reads: the end-to-end
// metrics with tracing off, the per-layer metrics from a traced run.
func (wr *workloadResult) contractLine(traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: wr.Correct, Attempted: wr.Run.Attempted, Failed: wr.Run.Failed, Metrics: map[string]value{}}
	if traced {
		if wr.Trace != nil {
			out.Attempted, out.Failed = wr.Trace.Ops+wr.Trace.Base.Attempted, wr.Trace.Base.Failed
			for name, m := range wr.Trace.Metrics {
				out.Metrics[name] = value{m.Value, m.Unit}
			}
		}
	} else {
		out.Metrics["ops_per_s"] = value{wr.Run.OpsPerS, "1/s"}
		out.Metrics["p50_ms"] = value{wr.Run.P50Ms, "ms"}
		out.Metrics["p95_ms"] = value{wr.Run.P95Ms, "ms"}
		out.Metrics["setup_s"] = value{wr.SetupS, "s"}
	}
	out.Attempted = max(out.Attempted, 1)
	b, _ := json.Marshal(out) //nolint:errcheck // plain struct of numbers and strings
	return string(b)
}

// ---------------------------------------------------------------------
// Printing

func (wr *workloadResult) printMeasured(w io.Writer, set settings) {
	r := wr.Run
	fmt.Fprintf(w, "== %s: seed %d, closed loop, %d clients on %d connections, %.0f s measured after %.1f s warm-up, tracing off\n",
		wr.Name, set.seed, numClients, numClients, set.measure.Seconds(), set.warmup.Seconds())
	var rates []string
	for _, win := range r.Windows {
		rates = append(rates, fmt.Sprintf("%.1f", win.OpsPerS))
	}
	fmt.Fprintf(w, "  %-12s %12.2f 1/s    median of %d windows (%s); %d samples in %.2f s\n",
		"ops_per_s", r.OpsPerS, len(r.Windows), strings.Join(rates, " "), r.Samples, r.Seconds)
	fmt.Fprintf(w, "  %-12s %12.4f ms     %d samples\n", "p50_ms", r.P50Ms, r.Samples)
	note := ""
	if r.P95Beyond < minBeyond {
		note = fmt.Sprintf(" — fewer than %d, not a bound", minBeyond)
	}
	fmt.Fprintf(w, "  %-12s %12.4f ms     %d samples beyond it%s\n", "p95_ms", r.P95Ms, r.P95Beyond, note)
	if r.P99Ms > 0 {
		fmt.Fprintf(w, "  %-12s %12.4f ms     informational\n", "p99_ms", r.P99Ms)
	}
	fmt.Fprintf(w, "  %-12s %12.5f ratio  %d failed of %d attempted, %d retried attempts\n",
		"fail_ratio", r.FailRatio, r.Failed, r.Attempted, r.Retries)
	fmt.Fprintf(w, "  %-12s %12.4f s      median of %d set-ups %.3f\n", "setup_s", wr.SetupS, len(wr.Setups), wr.Setups)
	fmt.Fprintf(w, "  %-12s %12.1f KB     %d GC cycles in the measured run\n", "alloc_per_op", r.AllocKB, r.GCCycles)
}

func (wr *workloadResult) printTraced(w io.Writer) {
	t := wr.Trace
	fmt.Fprintf(w, "-- %s traced: %d ops, 1 client; untraced 1-client p50 %.4f ms over %d samples\n",
		wr.Name, t.Ops, t.Base.P50Ms, t.Base.Samples)
	for _, tab := range t.Tables {
		fmt.Fprintf(w, "  layer table (%s, %d ops): e2e median %.1f us, coverage %.3f\n", tab.Kind, tab.Ops, tab.E2EUs, tab.Coverage)
		for _, row := range tab.Layers {
			fmt.Fprintf(w, "    %-24s %12.1f us self  %5.1f%% of e2e\n", row.Layer, row.MedianUs, 100*row.Share)
		}
	}
	names := make([]string, 0, len(t.Metrics))
	for name := range t.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := t.Metrics[name]
		fmt.Fprintf(w, "  %-38s %14.3f %-6s %d samples\n", name, m.Value, m.Unit, m.Samples)
	}
}

// printGap puts the statistics-fetch cost next to what mixing writes
// into point reads costs them. Reported, not claimed as cause.
func (res result) printGap(w io.Writer) {
	by := map[string]workloadResult{}
	for _, wr := range res.Workloads {
		by[wr.Name] = wr
	}
	pr, mx := by["point_read"], by["mixed_rw"]
	if pr.Trace == nil || mx.Trace == nil {
		return
	}
	fmt.Fprintf(w, "== mixed_rw - point_read: p50 %+.4f ms, p95 %+.4f ms, ops_per_s %+.1f; planner.stats_fetch_ms on mixed_rw %.4f ms (reported, not claimed)\n",
		mx.Run.P50Ms-pr.Run.P50Ms, mx.Run.P95Ms-pr.Run.P95Ms, mx.Run.OpsPerS-pr.Run.OpsPerS,
		mx.Trace.Metrics["planner.stats_fetch_ms"].Value)
}
