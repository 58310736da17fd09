package testfed

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"myriad/internal/core"
	"myriad/internal/executor"
	"myriad/internal/gtm"
	"myriad/internal/integration"
)

// BenchmarkFederatedStreamLimit measures LIMIT 10 over a 100k-row
// remote site (real TCP) under both strategies. cost pushes the LIMIT
// to the site; simple fetches the export essentially whole, so there
// the federation must half-close the stream after ~10 rows instead of
// draining all 100k.
func BenchmarkFederatedStreamLimit(b *testing.B) {
	fx := twoSiteUnion(b, integration.UnionAll, 0, 100_000, false, 0)
	warm(b, fx)
	ctx := context.Background()
	const sql = `SELECT id, v FROM R LIMIT 10`

	run := func(b *testing.B, strategy core.Strategy) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, _, err := fx.Fed.QueryMetered(ctx, sql, strategy)
			if err != nil {
				b.Fatal(err)
			}
			if len(rs.Rows) != 10 {
				b.Fatalf("got %d rows", len(rs.Rows))
			}
		}
	}
	b.Run("streaming/cost", func(b *testing.B) { run(b, core.StrategyCostBased) })
	b.Run("streaming/simple", func(b *testing.B) { run(b, core.StrategySimple) })
}

// BenchmarkTwoSiteUnion drains a 40k-row two-site union over real TCP,
// plus the time-to-first-row the stream offers a client consuming
// incrementally.
func BenchmarkTwoSiteUnion(b *testing.B) {
	fx := twoSiteUnion(b, integration.UnionAll, 20_000, 20_000, false, 0)
	warm(b, fx)
	ctx := context.Background()
	const sql = `SELECT id, v FROM R`

	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, err := fx.Query(ctx, sql)
			if err != nil {
				b.Fatal(err)
			}
			if len(rs.Rows) != 40_000 {
				b.Fatalf("got %d rows", len(rs.Rows))
			}
		}
	})
	b.Run("first-row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, _, err := fx.Fed.QueryStreamMetered(ctx, sql, core.StrategyCostBased)
			if err != nil {
				b.Fatal(err)
			}
			r, err := rows.Next(ctx)
			if err != nil || r == nil {
				b.Fatalf("first row: %v", err)
			}
			rows.Close()
		}
	})
}

// BenchmarkUnorderedFirstRow is the fan-in acceptance benchmark: a
// two-site UNION ALL whose first-listed site (source index 0) wedges
// silently just past its stream header. Interleave's first row is
// bound by the fast site and barely differs from the healthy baseline;
// auto's source-ordered fan-in would never produce a first row at all
// (the regression test TestStalledSiteDoesNotGateUnorderedFirstRow
// pins that), so only its healthy baseline is measurable here. ns/op
// is dominated by time-to-first-row.
func BenchmarkUnorderedFirstRow(b *testing.B) {
	fx := twoSiteUnionFaults(b, integration.UnionAll, 20_000, 20_000, true, false, 0)
	warm(b, fx)
	ctx := context.Background()
	const sql = `SELECT id, v FROM R`

	run := func(b *testing.B, policy core.FanInPolicy) {
		fx.Fed.FanIn = policy
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, _, err := fx.Fed.QueryStreamMetered(ctx, sql, core.StrategyCostBased)
			if err != nil {
				b.Fatal(err)
			}
			r, err := rows.Next(ctx)
			if err != nil || r == nil {
				b.Fatalf("first row: %v", err)
			}
			rows.Close()
		}
	}
	b.Run("interleave-healthy", func(b *testing.B) { run(b, core.FanInInterleave) })
	b.Run("auto-healthy", func(b *testing.B) { run(b, core.FanInAuto) })
	fx.Site("a").Proxy.StallAfter(headerFrameBytes(b, "id", "v"))
	b.Run("interleave-stalled-site", func(b *testing.B) { run(b, core.FanInInterleave) })
	fx.Fed.FanIn = core.FanInAuto
}

// BenchmarkScratchBypass drains a two-site union through the bypass
// (fan-in straight to the client) vs. the scratch-engine path a
// computed projection the bypass refuses takes — the allocation delta
// is the temp-table load plus the residual pipeline.
func BenchmarkScratchBypass(b *testing.B) {
	fx := twoSiteUnion(b, integration.UnionAll, 10_000, 10_000, false, 0)
	warm(b, fx)
	ctx := context.Background()
	runner := fx.Runner()

	run := func(b *testing.B, sql string, bypass bool) {
		plan, err := fx.Plan(ctx, sql, core.StrategyCostBased)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, m, err := execute(ctx, plan, runner, executor.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if len(rs.Rows) != 20_000 {
				b.Fatalf("got %d rows", len(rs.Rows))
			}
			if m.ScratchBypassed != bypass {
				b.Fatalf("bypass=%v, want %v", m.ScratchBypassed, bypass)
			}
		}
	}
	b.Run("bypass", func(b *testing.B) { run(b, `SELECT id, v FROM R`, true) })
	b.Run("scratch", func(b *testing.B) { run(b, `SELECT id, v + 0 AS v FROM R`, false) })
}

// BenchmarkExternalSort drains a federated ORDER BY without LIMIT over
// 60k two-site rows through the scratch engine's sort: in-memory vs
// spilling under a 64KB budget (the spill tax is the gob run I/O plus
// the k-way merge).
func BenchmarkExternalSort(b *testing.B) {
	fx := twoSiteUnion(b, integration.UnionAll, 30_000, 30_000, false, 0)
	warm(b, fx)
	ctx := context.Background()
	plan, err := fx.Plan(ctx, `SELECT id, v FROM R ORDER BY v, id`, core.StrategyCostBased)
	if err != nil {
		b.Fatal(err)
	}
	runner := fx.Runner()

	run := func(b *testing.B, opts executor.Options, wantSpill bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, m, err := execute(ctx, plan, runner, opts)
			if err != nil {
				b.Fatal(err)
			}
			if len(rs.Rows) != 60_000 {
				b.Fatalf("got %d rows", len(rs.Rows))
			}
			if (m.SpillRuns > 0) != wantSpill {
				b.Fatalf("SpillRuns=%d, wantSpill=%v", m.SpillRuns, wantSpill)
			}
		}
	}
	dir := b.TempDir()
	b.Run("in-memory", func(b *testing.B) { run(b, executor.Options{}, false) })
	b.Run("spill-64kb", func(b *testing.B) {
		run(b, executor.Options{MemBudget: 64 * 1024, SpillDir: dir}, true)
	})
}

// BenchmarkGlobalTxn2PC measures the global-transaction commit path
// over real TCP against two durable sites with the coordinator's
// decision log on fsync-always: a mixed read/write transaction touching
// both sites pays two phases plus one durable decision; the single-site
// variant takes the one-phase fast path; the read-only variant measures
// protocol overhead with no redo to apply.
func BenchmarkGlobalTxn2PC(b *testing.B) {
	fx := newTwoPCFixture(b, false)
	ctx := context.Background()

	run := func(b *testing.B, sites []string, write bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			txn := fx.Fed.Begin()
			for _, s := range sites {
				if _, err := txn.QuerySite(ctx, s, `SELECT bal FROM ACCT WHERE id = 2`); err != nil {
					b.Fatal(err)
				}
				if write {
					if _, err := txn.ExecSite(ctx, s, updAcct); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := txn.Commit(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("two-site-mixed", func(b *testing.B) { run(b, []string{"a", "b"}, true) })
	b.Run("one-site-mixed", func(b *testing.B) { run(b, []string{"a"}, true) })
	b.Run("two-site-read", func(b *testing.B) { run(b, []string{"a", "b"}, false) })

	// 16 concurrent committers on disjoint rows: every commit still pays
	// a durable coordinator decision plus per-site prepares, but the
	// wal's group commit folds concurrent decision fsyncs into one, so
	// commits/sec scales instead of serializing on the disk. Compare
	// ns/op against two-site-mixed — that is the per-commit latency a
	// single committer pays; under concurrency the amortized cost drops.
	// Disjoint rows per committer so the 16x variant measures the commit
	// path, not row-lock queueing.
	const workers = 16
	for _, s := range []string{"a", "b"} {
		for w := 0; w < workers; w++ {
			sql := fmt.Sprintf(`INSERT INTO acct (id, bal) VALUES (%d, 100)`, 100+w)
			if _, err := fx.Site(s).DB.Exec(ctx, sql); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("two-site-mixed-16x", func(b *testing.B) {
		b.ReportAllocs()
		var next atomic.Int64
		var wg sync.WaitGroup
		errc := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				upd := fmt.Sprintf(`UPDATE ACCT SET bal = bal + 1 WHERE id = %d`, 100+w)
				for next.Add(1) <= int64(b.N) {
					txn := fx.Fed.Begin()
					for _, s := range []string{"a", "b"} {
						if _, err := txn.ExecSite(ctx, s, upd); err != nil {
							errc <- err
							return
						}
					}
					if err := txn.Commit(ctx); err != nil {
						errc <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errc)
		if err := <-errc; err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "commits/sec")
	})
}

// BenchmarkDeadlockResolution measures how fast the federation turns an
// AB/BA transfer deadlock back into forward progress: from the moment
// the younger transaction closes the cycle to the survivor's commit.
// fastpath uses site-local wound-wait (the younger waiter is refused at
// enqueue, no detector involved); detector disables the fast path so
// both waits genuinely park and the coordinator's waits-for stitch has
// to find and wound the victim — its ns/op is dominated by the tick.
func BenchmarkDeadlockResolution(b *testing.B) {
	fx := newTwoPCFixture(b, false)
	ctx := context.Background()

	cycle := func(b *testing.B, park bool) {
		t1 := fx.Fed.Begin() // older: survivor
		t2 := fx.Fed.Begin() // younger: victim
		if _, err := t1.ExecSite(ctx, "a", updAcct); err != nil {
			b.Fatal(err)
		}
		if _, err := t2.ExecSite(ctx, "b", updAcct); err != nil {
			b.Fatal(err)
		}
		if park {
			done1 := make(chan error, 1)
			go func() {
				_, err := t1.ExecSite(ctx, "b", updAcct)
				done1 <- err
			}()
			if _, err := t2.ExecSite(ctx, "a", updAcct); !errors.Is(err, gtm.ErrWounded) {
				b.Fatalf("victim = %v, want ErrWounded", err)
			}
			if err := <-done1; err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := t2.ExecSite(ctx, "a", updAcct); !errors.Is(err, gtm.ErrWounded) {
				b.Fatalf("victim = %v, want ErrWounded", err)
			}
			if _, err := t1.ExecSite(ctx, "b", updAcct); err != nil {
				b.Fatal(err)
			}
		}
		if err := t1.Commit(ctx); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("fastpath", func(b *testing.B) {
		deadlockConfig(fx, []string{"a", "b"}, true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cycle(b, false)
		}
	})
	b.Run("detector", func(b *testing.B) {
		deadlockConfig(fx, []string{"a", "b"}, false)
		fx.Fed.StartDeadlockDetector(10 * time.Millisecond)
		defer fx.Fed.StopDeadlockDetector()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cycle(b, true)
		}
	})
}

// BenchmarkOuterMergeSpill drains a two-site OUTERJOIN-MERGE (20k rows
// per site, half overlapping): the in-memory grouped merge vs the
// spill-backed one under a 64KB budget.
func BenchmarkOuterMergeSpill(b *testing.B) {
	fx := outerMergeFixture(b, 20_000, false)
	warm(b, fx)
	ctx := context.Background()
	plan, err := fx.Plan(ctx, `SELECT id, v FROM R`, core.StrategyCostBased)
	if err != nil {
		b.Fatal(err)
	}
	runner := fx.Runner()

	run := func(b *testing.B, opts executor.Options, wantSpill bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, m, err := execute(ctx, plan, runner, opts)
			if err != nil {
				b.Fatal(err)
			}
			if len(rs.Rows) != 30_000 {
				b.Fatalf("got %d entities", len(rs.Rows))
			}
			if (m.SpillRuns > 0) != wantSpill {
				b.Fatalf("SpillRuns=%d, wantSpill=%v", m.SpillRuns, wantSpill)
			}
		}
	}
	dir := b.TempDir()
	b.Run("in-memory", func(b *testing.B) { run(b, executor.Options{}, false) })
	b.Run("spill-64kb", func(b *testing.B) {
		run(b, executor.Options{MemBudget: 64 * 1024, SpillDir: dir}, true)
	})
}
