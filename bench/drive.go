package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"myriad/internal/fedclient"
)

const (
	maxAttempts = 5 // a wounded or timed-out transfer is retried, as core.WithRetry does
	numWindows  = 4 // the measured run is cut into this many equal windows
)

// execOp runs one op through the federation client and checks its
// answer. retries counts the extra attempts a transfer needed.
func execOp(ctx context.Context, cl *fedclient.Client, data *dataset, o op) (retries int, err error) {
	if o.kind != opTransfer {
		rs, err := cl.Query(ctx, o.sql())
		if err != nil {
			return 0, err
		}
		return 0, data.checkRead(o, rs.Rows)
	}
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			delay := min(time.Duration(5<<uint(attempt-1))*time.Millisecond, 100*time.Millisecond)
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return retries, ctx.Err()
			}
			retries++
		}
		err = transferOnce(ctx, cl, o)
		retryable := errors.Is(err, fedclient.ErrWounded) || errors.Is(err, fedclient.ErrDeadlockAbort)
		if err == nil || !retryable || attempt+1 == maxAttempts {
			return retries, err
		}
	}
}

func transferOnce(ctx context.Context, cl *fedclient.Client, o op) error {
	txn, err := cl.Begin(ctx)
	if err != nil {
		return err
	}
	for _, leg := range [2]struct {
		site int
		sql  string
	}{{o.a, o.debitSQL()}, {o.c, o.creditSQL()}} {
		n, err := txn.ExecSite(ctx, siteName(leg.site), leg.sql)
		if err == nil && n != 1 {
			err = fmt.Errorf("transfer: %q at %s touched %d rows, want 1", leg.sql, siteName(leg.site), n)
		}
		if err != nil {
			if txn.AliveAfter(err) {
				txn.Abort(ctx) //nolint:errcheck // the leg's error is the one to report
			}
			return err
		}
	}
	return txn.Commit(ctx)
}

// sample is one completed op of the measured run.
type sample struct {
	latency time.Duration
	end     time.Duration // completion time since the run began
}

// window is one equal slice of the measured run; the slices are the
// repeats -compare reads the run's own spread from.
type window struct {
	Ops     int     `json:"ops"`
	OpsPerS float64 `json:"ops_per_s"`
	P50Ms   float64 `json:"p50_ms"`
	P95Ms   float64 `json:"p95_ms"`
}

// runStats is what a closed-loop run measured.
type runStats struct {
	Clients   int      `json:"clients"`
	Seconds   float64  `json:"seconds"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Retries   int      `json:"retries"`
	Samples   int      `json:"samples"`
	OpsPerS   float64  `json:"ops_per_s"`
	P50Ms     float64  `json:"p50_ms"`
	P95Ms     float64  `json:"p95_ms"`
	P95Beyond int      `json:"p95_samples_beyond"`
	P99Ms     float64  `json:"p99_ms,omitempty"` // informational, only with >= 1000 samples
	FailRatio float64  `json:"fail_ratio"`
	AllocKB   float64  `json:"alloc_kb_per_op"`
	GCCycles  uint32   `json:"gc_cycles"`
	Windows   []window `json:"windows"`
	FirstErr  string   `json:"first_error,omitempty"`
}

// drive runs wl closed-loop for d: each of clients goroutines sends its
// next op only when the previous one has answered. stream0 numbers the
// clients' op streams so warm-up and measurement draw different ops.
func drive(ctx context.Context, dep *deployment, wl workload, clients, stream0 int, d time.Duration) runStats {
	var (
		mu       sync.Mutex
		samples  []sample
		st       = runStats{Clients: clients}
		wg       sync.WaitGroup
		before   runtime.MemStats
		after    runtime.MemStats
		deadline = time.Now().Add(d)
	)
	runtime.ReadMemStats(&before)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(next func() op) {
			defer wg.Done()
			var mine []sample
			attempted, failed, retries := 0, 0, 0
			var firstErr error
			for time.Now().Before(deadline) {
				o := next()
				t0 := time.Now()
				r, err := execOp(ctx, dep.client, dep.data, o)
				t1 := time.Now()
				attempted++
				retries += r
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				mine = append(mine, sample{latency: t1.Sub(t0), end: t1.Sub(start)})
			}
			mu.Lock()
			defer mu.Unlock()
			samples = append(samples, mine...)
			st.Attempted += attempted
			st.Failed += failed
			st.Retries += retries
			if firstErr != nil && st.FirstErr == "" {
				st.FirstErr = firstErr.Error()
			}
		}(wl.stream(opRNG(dep.data.seed, wl.name, stream0+c)))
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	st.summarize(samples, d, elapsed)
	if st.Attempted > 0 {
		st.AllocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(st.Attempted)
	}
	st.GCCycles = after.NumGC - before.NumGC
	return st
}

func latenciesMs(samples []sample) []float64 {
	ms := make([]float64, len(samples))
	for i, s := range samples {
		ms[i] = float64(s.latency) / 1e6
	}
	sort.Float64s(ms)
	return ms
}

// summarize turns samples into the end-to-end metrics. d is the planned
// length (the windows divide it; an op that ends past it belongs to no
// window); elapsed is how long the clients actually ran.
func (st *runStats) summarize(samples []sample, d, elapsed time.Duration) {
	st.Seconds = elapsed.Seconds()
	st.Samples = len(samples)
	if st.Attempted > 0 {
		st.FailRatio = float64(st.Failed) / float64(st.Attempted)
	}
	all := latenciesMs(samples)
	st.P50Ms = percentile(all, 50)
	st.P95Ms = percentile(all, 95)
	st.P95Beyond = beyond(len(all), 95)
	if len(all) >= 1000 {
		st.P99Ms = percentile(all, 99)
	}
	per := make([][]sample, numWindows)
	wlen := d / numWindows
	for _, s := range samples {
		if w := int(s.end / wlen); w < numWindows {
			per[w] = append(per[w], s)
		}
	}
	var rates []float64
	for _, ws := range per {
		ms := latenciesMs(ws)
		w := window{Ops: len(ws), OpsPerS: float64(len(ws)) / wlen.Seconds(),
			P50Ms: percentile(ms, 50), P95Ms: percentile(ms, 95)}
		st.Windows = append(st.Windows, w)
		rates = append(rates, w.OpsPerS)
	}
	st.OpsPerS = median(rates)
}
