package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"myriad/internal/schema"
	"myriad/internal/value"
)

func TestPercentileAndSampleFloor(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {95, 190}, {99, 198}, {100, 200}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// 200 samples is the floor for a p95 with ten samples beyond it.
	for _, c := range []struct{ n, want int }{{200, 10}, {199, 9}, {1000, 50}, {0, 0}} {
		if got := beyond(c.n, 95); got != c.want {
			t.Errorf("beyond(%d, 95) = %d, want %d", c.n, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func opSequence(seed int64, w workload) []op {
	next := w.stream(opRNG(seed, w.name, 0))
	ops := make([]op, 50)
	for i := range ops {
		ops[i] = next()
	}
	return ops
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := generate(7), generate(7), generate(8)
	if a.digest != b.digest {
		t.Errorf("seed 7 twice: digests %x and %x differ", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Errorf("seeds 7 and 8 share digest %x", a.digest)
	}
	for _, w := range workloads {
		x, y, z := opSequence(7, w), opSequence(7, w), opSequence(8, w)
		same, differs := true, false
		for i := range x {
			same = same && x[i] == y[i]
			differs = differs || x[i] != z[i]
		}
		if !same {
			t.Errorf("%s: seed 7 gave two op sequences", w.name)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", w.name)
		}
	}
}

// The checker must reject wrong answers, or "every op is verified" says
// nothing.
func TestCheckReadRejectsWrongAnswers(t *testing.T) {
	d := generate(3)
	p := d.parts[41234]
	point := op{kind: opPointRead, a: p.id}
	good := []schema.Row{{value.NewInt(int64(p.id)), value.NewText(p.name()), value.NewFloat(p.price())}}
	if err := d.checkRead(point, good); err != nil {
		t.Errorf("correct point_read rejected: %v", err)
	}
	bad := []schema.Row{{value.NewInt(int64(p.id)), value.NewText(p.name()), value.NewFloat(p.price() + 0.01)}}
	if d.checkRead(point, bad) == nil || d.checkRead(point, nil) == nil {
		t.Error("wrong point_read accepted")
	}

	var scanRows, sortRows []schema.Row
	for _, idx := range d.byWeight { // weight order; the sort rows get re-sorted below
		q := d.parts[idx]
		if w := q.weightMilli; w >= 500_000 && w < (500+bulkSpan)*1000 {
			scanRows = append(scanRows, schema.Row{value.NewInt(int64(q.id))})
		}
		if w := q.weightMilli; w >= 500_000 && w < (500+sortSpan)*1000 {
			sortRows = append(sortRows, schema.Row{value.NewInt(int64(q.id)), value.NewText(q.name()), value.NewFloat(q.price())})
		}
	}
	scan := op{kind: opBulkScan, a: 500}
	if err := d.checkRead(scan, scanRows); err != nil {
		t.Errorf("correct bulk_scan rejected: %v", err)
	}
	if d.checkRead(scan, scanRows[1:]) == nil {
		t.Error("bulk_scan missing a row accepted")
	}
	swapped := append([]schema.Row{{value.NewInt(-1)}}, scanRows[1:]...)
	if d.checkRead(scan, swapped) == nil {
		t.Error("bulk_scan with a wrong id accepted")
	}
	srt := op{kind: opSortSpill, a: 500}
	if d.checkRead(srt, sortRows) == nil {
		t.Error("sort_spill in weight order accepted as price order")
	}
	if d.checkRead(op{kind: opJoinAgg, a: 400}, nil) == nil {
		t.Error("empty join_agg accepted")
	}
}

func TestSpanSelfTimeAndCoverage(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 50}, // overlaps the first: union is [10,50)
		{Parent: 1, Start: 70, End: 80},
		{Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{Parent: 1, Start: 95, End: 96},  // inside the previous one
	}
	if got := covered(parent, kids); got != 60 {
		t.Errorf("covered = %d, want 60", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered by nothing = %d, want 0", got)
	}

	// The recorder gives the same answer for a stage whose site calls
	// overlap: self time = duration - covered.
	rec := newRecorder()
	st, err := rec.run("stage", layerExec, func() error {
		a := rec.site("stream", "s0", "")
		b := rec.site("stream", "s1", "")
		time.Sleep(2 * time.Millisecond)
		a()
		b()
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if err != nil || len(rec.spans) != 3 || rec.spans[1].Parent != 1 || rec.spans[2].Parent != 1 {
		t.Fatalf("recorder spans = %+v, err %v", rec.spans, err)
	}
	if st.sites <= 0 || st.sites >= st.dur || st.callSum < st.sites {
		t.Errorf("stage dur %v, sites %v, callSum %v: want 0 < sites < dur and callSum >= sites", st.dur, st.sites, st.callSum)
	}
	if done := rec.site("stream", "s0", ""); len(rec.spans) != 3 {
		t.Error("site call outside a stage was recorded")
	} else {
		done()
	}

	ops := []opBreakdown{
		{e2e: 100, critical: 90, layers: map[string]time.Duration{"a": 60, "b": 30}},
		{e2e: 200, critical: 180, layers: map[string]time.Duration{"a": 100, "b": 80}},
		{e2e: 300, critical: 330, layers: map[string]time.Duration{"a": 200, "b": 100}},
	}
	rows, coverage := layerTable(ops)
	if coverage != 0.9 {
		t.Errorf("coverage = %v, want 0.9 (median critical 180 / median e2e 200)", coverage)
	}
	if len(rows) != 2 || rows[0].Layer != "a" || rows[0].Share != 0.5 || rows[1].Share != 0.4 {
		t.Errorf("layer table = %+v, want a 50%%, b 40%%", rows)
	}
}

func TestCompareVerdicts(t *testing.T) {
	for _, c := range []struct {
		name          string
		a, b          float64
		higher        bool
		bound, sa, sb float64
		want          string
	}{
		{"lower-is-better within", 10, 10.9, false, 0.1, 0.01, 0.01, within},
		{"lower-is-better worse", 10, 11.1, false, 0.1, 0.01, 0.01, worse},
		{"lower-is-better improved", 10, 5, false, 0.1, 0.01, 0.01, within},
		{"higher-is-better within", 100, 91, true, 0.1, 0.01, 0.01, within},
		{"higher-is-better worse", 100, 89, true, 0.1, 0.01, 0.01, worse},
		{"noisy a", 10, 20, false, 0.1, 0.3, 0.01, unresolved},
		{"noisy b", 10, 10, false, 0.1, 0.01, 0.11, unresolved},
	} {
		if got, _ := verdict(c.a, c.b, c.higher, c.bound, c.sa, c.sb); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}

	mk := func(ops, p50 float64) result {
		ws := make([]window, numWindows)
		for i := range ws {
			ws[i] = window{OpsPerS: ops, P50Ms: p50, P95Ms: 2 * p50}
		}
		return result{Workloads: []workloadResult{{Name: "point_read", Correct: true, SetupS: 0.7, Setups: []float64{0.7, 0.7, 0.7},
			Run: runStats{OpsPerS: ops, P50Ms: p50, P95Ms: 2 * p50, Windows: ws}}}}
	}
	dir := t.TempDir()
	write := func(name string, r result) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, same, slow := write("a.json", mk(1000, 1)), write("b.json", mk(990, 1.02)), write("c.json", mk(700, 1.5))
	bm := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	verdicts := func(v string) int { return strings.Count(out.String(), " "+v+"\n") }
	if code := compareFiles(bm, base, same, &out, io.Discard); code != 0 || verdicts(worse) != 0 || verdicts(within) != 5 {
		t.Errorf("same-speed compare: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(bm, base, slow, &out, io.Discard); code != 1 || verdicts(worse) != 3 {
		t.Errorf("slower compare: exit %d, want 1 with ops_per_s, p50_ms and p95_ms worse\n%s", code, out.String())
	}
}

func TestForwarderCountsAndStops(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // echo server
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }() //nolint:errcheck
		}
	}()
	f, err := newForwarder(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", f.addr())
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("x"), 5000)
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, len(msg))); err != nil {
		t.Fatal(err)
	}
	if got := f.toClient.Load(); got != int64(len(msg)) {
		t.Errorf("forwarder counted %d bytes to the client, want %d", got, len(msg))
	}
	f.close() // returns only once both relay goroutines have exited
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Error("connection still open after the forwarder closed")
	}
}

// TestSmoke runs the whole harness — six workloads, measured then traced,
// every answer and invariant checked — at -smoke size, so it cannot rot.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots twelve deployments")
	}
	var out bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "5"}, &out, &out); code != 0 {
		t.Fatalf("bench -smoke exited %d\n%s", code, out.String())
	}
	var res result
	if err := readJSON(filepath.Join("out", "result.json"), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) || res.Env.Seed != 5 || res.Env.Filesystem == "" {
		t.Fatalf("result.json: %d workloads, env %+v", len(res.Workloads), res.Env)
	}
	for _, wr := range res.Workloads {
		if !wr.Correct || wr.Run.Failed != 0 || wr.Run.Samples == 0 || wr.Trace == nil {
			t.Errorf("%s: correct %v, %d failed, %d samples, trace %v", wr.Name, wr.Correct, wr.Run.Failed, wr.Run.Samples, wr.Trace != nil)
			continue
		}
		for name := range layerUnits {
			if _, ok := wr.Trace.Metrics[name]; !ok {
				t.Errorf("%s: traced run lacks %s", wr.Name, name)
			}
		}
		spilled := wr.Trace.Metrics["executor.spilled_bytes"].Value
		if (wr.Name == "sort_spill") != (spilled > 0) {
			t.Errorf("%s: %v spilled bytes per op", wr.Name, spilled)
		}
		var line struct {
			Correct bool
			Metrics map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal([]byte(wr.contractLine(false)), &line); err != nil || !line.Correct || len(line.Metrics) != 4 {
			t.Errorf("%s: contract line %s (%v)", wr.Name, wr.contractLine(false), err)
		}
	}
	var spans []workloadSpans
	if err := readJSON(filepath.Join("out", "trace.json"), &spans); err != nil || len(spans) != len(workloads) || len(spans[0].Spans) == 0 {
		t.Errorf("trace.json: %d workloads (%v)", len(spans), err)
	}
	left, _ := filepath.Glob(filepath.Join("out", "data-*"))
	if len(left) != 0 {
		t.Errorf("data directories left behind: %v", left)
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string }       `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bm.Workloads), len(workloads))
	}
	for _, w := range bm.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
	line := (&workloadResult{}).contractLine(false)
	for _, m := range bm.EndToEnd {
		if !strings.Contains(line, `"`+m.Name+`"`) {
			t.Errorf("end-to-end metric %q is not in the result line %s", m.Name, line)
		}
	}
	if len(bm.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(bm.PerLayer), len(layerUnits))
	}
	for _, m := range bm.PerLayer {
		if layerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer metric %q: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, layerUnits[m.Name])
		}
	}
}
