package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// failRatioBound is absolute: fail_ratio is 0 on a healthy run, so it
// cannot carry a bound relative to the parent's median in BENCHMARK.json.
const failRatioBound = 0.005

const (
	within     = "within"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict compares b against a for one metric. worseBy is how much worse
// b is, as a share of a. It is unresolved when the repeats inside either
// run spread wider than the bound: then the runs cannot tell a change of
// that size from their own noise.
func verdict(a, b float64, higherBetter bool, bound, spreadA, spreadB float64) (string, float64) {
	worseBy := 0.0
	if a != 0 {
		worseBy = (b - a) / a
		if higherBetter {
			worseBy = -worseBy
		}
	}
	switch {
	case max(spreadA, spreadB) > bound:
		return unresolved, worseBy
	case worseBy > bound:
		return worse, worseBy
	}
	return within, worseBy
}

// repeats are the values of one metric across the repeats inside a run:
// the measured run's windows, or the set-ups.
func (wr workloadResult) repeats(metric string) []float64 {
	if metric == "setup_s" {
		return wr.Setups
	}
	var v []float64
	for _, w := range wr.Run.Windows {
		switch metric {
		case "ops_per_s":
			v = append(v, w.OpsPerS)
		case "p50_ms":
			v = append(v, w.P50Ms)
		case "p95_ms":
			v = append(v, w.P95Ms)
		}
	}
	return v
}

func (wr workloadResult) value(metric string) float64 {
	switch metric {
	case "ops_per_s":
		return wr.Run.OpsPerS
	case "p50_ms":
		return wr.Run.P50Ms
	case "p95_ms":
		return wr.Run.P95Ms
	case "setup_s":
		return wr.SetupS
	}
	return 0
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints a verdict per (workload, end-to-end metric) for
// result file b against a, and returns 1 if any is worse.
func compareFiles(benchmarkPath, aPath, bPath string, stdout, stderr io.Writer) int {
	var bm benchmarkFile
	var a, b result
	for path, v := range map[string]any{benchmarkPath: &bm, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	byName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	code := 0
	fmt.Fprintf(stdout, "%-12s %-10s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "a", "b", "worse by", "spread a", "spread b", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, m := range bm.EndToEnd {
			sa, sb := spread(wa.repeats(m.Name)), spread(wb.repeats(m.Name))
			v, by := verdict(wa.value(m.Name), wb.value(m.Name), m.Better == "higher", m.Bound, sa, sb)
			fmt.Fprintf(stdout, "%-12s %-10s %14.4f %14.4f %+8.1f%% %7.1f%% %7.1f%%  %s\n",
				wa.Name, m.Name, wa.value(m.Name), wb.value(m.Name), 100*by, 100*sa, 100*sb, v)
			if v == worse {
				code = 1
			}
		}
		v := within
		if wb.Run.FailRatio-wa.Run.FailRatio > failRatioBound || (wa.Correct && !wb.Correct) {
			v, code = worse, 1
		}
		fmt.Fprintf(stdout, "%-12s %-10s %14.5f %14.5f %38s\n", wa.Name, "fail_ratio", wa.Run.FailRatio, wb.Run.FailRatio, v)
	}
	return code
}
