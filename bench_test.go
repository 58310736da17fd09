// Micro-benchmarks, one per capability claim of the paper's §2 (the
// paper, a one-page prototype description, publishes no numeric
// tables). The end-to-end benchmark the repo's performance claims rest
// on is bench/ (bash bench/run.sh; protocol and results in PERF.md).
// Run these with:
//
//	go test -bench=. -benchmem
package myriad_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"myriad"
	"myriad/internal/catalog"
	"myriad/internal/gtm"
	"myriad/internal/integration"
	"myriad/internal/localdb"
	"myriad/internal/schema"
	"myriad/internal/workload"
)

// ---------------------------------------------------------------------
// E1 — schema integration: materializing an integrated relation via
// each relational combinator and integration functions.

func buildOverlapSites(rows, overlap int) (*myriad.Federation, func(kind integration.CombineKind) error) {
	ctx := context.Background()
	fed := myriad.NewFederation("e1")
	for s := 0; s < 2; s++ {
		name := fmt.Sprintf("s%d", s)
		db := myriad.NewComponentDB(name)
		db.MustExec(`CREATE TABLE person (pid INTEGER PRIMARY KEY, email TEXT, phone TEXT, score FLOAT)`)
		base := s * (rows - overlap) // second site re-uses `overlap` ids
		stmt := ""
		for i := 0; i < rows; i++ {
			if stmt != "" {
				stmt += ", "
			}
			id := base + i
			stmt += fmt.Sprintf("(%d, 'u%d@s%d', '555-%04d', %d.5)", id, id, s, id%10000, id%100)
			if (i+1)%500 == 0 || i == rows-1 {
				db.MustExec("INSERT INTO person VALUES " + stmt)
				stmt = ""
			}
		}
		gw := myriad.NewGateway(name, db, myriad.DialectCanonical())
		if err := gw.DefineExport(myriad.Export{Name: "PERSON", LocalTable: "person"}); err != nil {
			panic(err)
		}
		if err := fed.AttachSite(ctx, myriad.LocalConn(gw)); err != nil {
			panic(err)
		}
	}
	define := func(kind integration.CombineKind) error {
		return fed.DefineIntegrated(&catalog.IntegratedDef{
			Name: "DIRECTORY",
			Columns: []schema.Column{
				{Name: "pid", Type: schema.TInt},
				{Name: "email", Type: schema.TText},
				{Name: "phone", Type: schema.TText},
				{Name: "score", Type: schema.TFloat},
			},
			Key:     []string{"pid"},
			Combine: kind,
			Sources: []catalog.SourceDef{
				{Site: "s0", Export: "PERSON", ColumnMap: map[string]string{
					"pid": "pid", "email": "email", "phone": "phone", "score": "score"}},
				{Site: "s1", Export: "PERSON", ColumnMap: map[string]string{
					"pid": "pid", "email": "email", "phone": "phone", "score": "score"}},
			},
			Resolvers: map[string]string{"email": "first", "phone": "concat", "score": "avg"},
		})
	}
	return fed, define
}

func BenchmarkE1Integration(b *testing.B) {
	ctx := context.Background()
	for _, rows := range []int{1000, 5000} {
		kinds := []struct {
			name string
			kind integration.CombineKind
		}{
			{"union-all", integration.UnionAll},
			{"union-distinct", integration.UnionDistinct},
			{"outerjoin-merge", integration.MergeOuter},
		}
		fed, define := buildOverlapSites(rows, rows/4)
		for _, k := range kinds {
			b.Run(fmt.Sprintf("%s/rows=%d", k.name, rows), func(b *testing.B) {
				if err := define(k.kind); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				var out int
				for i := 0; i < b.N; i++ {
					rs, err := fed.Query(ctx, `SELECT pid, email, phone, score FROM DIRECTORY`)
					if err != nil {
						b.Fatal(err)
					}
					out = len(rs.Rows)
				}
				b.ReportMetric(float64(out), "rows")
			})
		}
	}
}

// ---------------------------------------------------------------------
// E2 — simple vs cost-based strategy across predicate selectivity.
// weight is uniform in [0,1000): WHERE weight < X has selectivity
// X/1000. The simple strategy ships every row regardless.

func BenchmarkE2Pushdown(b *testing.B) {
	ctx := context.Background()
	dep := workload.BuildParts(workload.PartsSpec{Sites: 2, RowsPerSite: 5000, Seed: 1})
	for _, strat := range []myriad.Strategy{myriad.StrategySimple, myriad.StrategyCostBased} {
		for _, sel := range []float64{0.001, 0.01, 0.1, 0.5, 1.0} {
			name := fmt.Sprintf("%v/sel=%g", strat, sel)
			sql := fmt.Sprintf(`SELECT id, name, weight FROM PARTS WHERE weight < %f`, sel*1000)
			b.Run(name, func(b *testing.B) {
				var shipped int
				for i := 0; i < b.N; i++ {
					_, m, err := dep.Fed.QueryMetered(ctx, sql, strat)
					if err != nil {
						b.Fatal(err)
					}
					shipped = m.RowsShipped
				}
				b.ReportMetric(float64(shipped), "rows-shipped")
			})
		}
	}
}

// ---------------------------------------------------------------------
// E3 — cross-site join strategies: ship-whole (simple) vs semijoin
// reduction (cost-based). CUSTOMERS is small and filtered; ORDERS is
// large; the cost-based plan ships gold-customer ids into the orders
// site.

func BenchmarkE3Join(b *testing.B) {
	ctx := context.Background()
	for _, hot := range []float64{0.02, 0.10, 0.50} {
		dep := workload.BuildOrders(workload.OrdersSpec{
			Customers: 500, Orders: 20000, HotPercent: hot, Seed: 7,
		})
		sql := `SELECT c.cname, SUM(o.amount) AS spent
		        FROM CUSTOMERS c JOIN ORDERS o ON c.cid = o.cust
		        WHERE c.tier = 'gold' GROUP BY c.cname`
		for _, strat := range []myriad.Strategy{myriad.StrategySimple, myriad.StrategyCostBased} {
			b.Run(fmt.Sprintf("%v/gold=%g", strat, hot), func(b *testing.B) {
				var shipped int
				semi := false
				for i := 0; i < b.N; i++ {
					_, m, err := dep.Fed.QueryMetered(ctx, sql, strat)
					if err != nil {
						b.Fatal(err)
					}
					shipped = m.RowsShipped
					semi = m.SemijoinUsed
				}
				b.ReportMetric(float64(shipped), "rows-shipped")
				if semi {
					b.ReportMetric(1, "semijoin")
				} else {
					b.ReportMetric(0, "semijoin")
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// E4 — two-phase commit overhead: a global transaction touching k sites
// (k=1 uses one-phase commit). Updates hit distinct keys so no lock
// waits pollute the measurement; sub-benches add simulated site latency.

func BenchmarkE4TwoPC(b *testing.B) {
	ctx := context.Background()
	for _, delay := range []time.Duration{0, 200 * time.Microsecond} {
		dep := workload.BuildBank(workload.BankSpec{Sites: 4, AccountsPerSite: 4096, InitialBalance: 1 << 40})
		dep.SeededDelay(delay)
		for _, sites := range []int{1, 2, 3, 4} {
			b.Run(fmt.Sprintf("delay=%v/sites=%d", delay, sites), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					txn := dep.Fed.Begin()
					for s := 0; s < sites; s++ {
						acct := (i*7 + s) % 4096
						sql := fmt.Sprintf(`UPDATE ACCT SET bal = bal + 1 WHERE id = %d`, acct)
						if _, err := txn.ExecSite(ctx, fmt.Sprintf("branch%d", s), sql); err != nil {
							b.Fatal(err)
						}
					}
					if err := txn.Commit(ctx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// E5 — resolving global deadlocks by timeout: concurrent cross-branch
// transfers with opposing lock orders under a sweep of timeout values.
// Short timeouts abort eagerly (wasted work, high abort rate); long
// timeouts stall deadlocked pairs. Goodput is committed transfers/sec.

func BenchmarkE5DeadlockTimeout(b *testing.B) {
	const workers = 8
	const hotAccounts = 4 // tiny pool -> frequent opposing lock orders
	// Each local operation takes ~500µs (simulated site latency), so a
	// 2ms timeout fires on ordinary lock waits too — the false-positive
	// half of the trade-off; 200ms converts true deadlocks into stalls.
	const siteDelay = 500 * time.Microsecond
	for _, timeout := range []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond} {
		b.Run(fmt.Sprintf("timeout=%v", timeout), func(b *testing.B) {
			dep := workload.BuildBank(workload.BankSpec{Sites: 2, AccountsPerSite: hotAccounts, InitialBalance: 1 << 40})
			dep.SeededDelay(siteDelay)
			dep.Fed.SetLocalQueryTimeout(timeout)
			ctx := context.Background()

			var aborts atomic.Int64
			var next atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						from, to := rng.Intn(2), rng.Intn(2)
						for to == from {
							to = rng.Intn(2)
						}
						acct := rng.Intn(hotAccounts)
						// Retry until the transfer commits; aborted
						// attempts count against goodput.
						for {
							err := dep.Fed.Transfer(ctx,
								fmt.Sprintf("branch%d", from),
								fmt.Sprintf(`UPDATE ACCT SET bal = bal - 1 WHERE id = %d`, acct),
								fmt.Sprintf("branch%d", to),
								fmt.Sprintf(`UPDATE ACCT SET bal = bal + 1 WHERE id = %d`, acct))
							if err == nil {
								break
							}
							if errors.Is(err, gtm.ErrDeadlockAbort) || errors.Is(err, gtm.ErrAborted) {
								aborts.Add(1)
								continue
							}
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(aborts.Load())/float64(b.N), "aborts/op")

			total, err := dep.TotalBalance(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if want := int64(2*hotAccounts) * (1 << 40); total != want {
				b.Fatalf("money not conserved: %d != %d", total, want)
			}
		})
	}
}

// ---------------------------------------------------------------------
// E6 — communication substrate: the identical query through in-process
// gateways vs real TCP-loopback gateways (the paper's BSD sockets).

func BenchmarkE6Transport(b *testing.B) {
	ctx := context.Background()

	build := func(remote bool) (*myriad.Federation, func()) {
		fed := myriad.NewFederation("e6")
		var stops []func() error
		for s := 0; s < 2; s++ {
			name := fmt.Sprintf("s%d", s)
			db := myriad.NewComponentDB(name)
			db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v FLOAT)`)
			stmt := ""
			for i := 0; i < 2000; i++ {
				if stmt != "" {
					stmt += ", "
				}
				stmt += fmt.Sprintf("(%d, %d.25)", i, i%97)
				if (i+1)%500 == 0 {
					db.MustExec("INSERT INTO t VALUES " + stmt)
					stmt = ""
				}
			}
			gw := myriad.NewGateway(name, db, myriad.DialectCanonical())
			if err := gw.DefineExport(myriad.Export{Name: "T", LocalTable: "t"}); err != nil {
				b.Fatal(err)
			}
			var conn myriad.Conn
			if remote {
				addr, stop, err := myriad.ServeGateway(gw, "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				stops = append(stops, stop)
				conn = myriad.DialGateway(name, addr, 4)
			} else {
				conn = myriad.LocalConn(gw)
			}
			if err := fed.AttachSite(ctx, conn); err != nil {
				b.Fatal(err)
			}
		}
		if err := fed.DefineIntegrated(&catalog.IntegratedDef{
			Name: "ALL_T",
			Columns: []schema.Column{
				{Name: "id", Type: schema.TInt}, {Name: "v", Type: schema.TFloat}},
			Combine: integration.UnionAll,
			Sources: []catalog.SourceDef{
				{Site: "s0", Export: "T", ColumnMap: map[string]string{"id": "id", "v": "v"}},
				{Site: "s1", Export: "T", ColumnMap: map[string]string{"id": "id", "v": "v"}},
			},
		}); err != nil {
			b.Fatal(err)
		}
		return fed, func() {
			for _, s := range stops {
				s() //nolint:errcheck
			}
		}
	}

	for _, mode := range []string{"inproc", "tcp"} {
		fed, cleanup := build(mode == "tcp")
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fed.Query(ctx, `SELECT COUNT(*), SUM(v) FROM ALL_T WHERE v < 50`); err != nil {
					b.Fatal(err)
				}
			}
		})
		cleanup()
	}
}

// ---------------------------------------------------------------------
// E7 — scale-out: a global aggregate as the federation grows. Remote
// scans run in parallel, so latency should grow sub-linearly while the
// data integrated grows linearly with the number of sites. The
// cost-based strategy additionally pushes partial aggregation into the
// sites, shipping one row per group per site instead of every row.

func BenchmarkE7Scaleout(b *testing.B) {
	ctx := context.Background()
	for _, sites := range []int{1, 2, 4, 8} {
		dep := workload.BuildParts(workload.PartsSpec{Sites: sites, RowsPerSite: 2000, Seed: 3})
		for _, strat := range []myriad.Strategy{myriad.StrategySimple, myriad.StrategyCostBased} {
			b.Run(fmt.Sprintf("%v/sites=%d", strat, sites), func(b *testing.B) {
				var shipped int
				for i := 0; i < b.N; i++ {
					_, m, err := dep.Fed.QueryMetered(ctx,
						`SELECT category, COUNT(*) AS n, ROUND(AVG(price), 2) AS avg_price FROM PARTS GROUP BY category`,
						strat)
					if err != nil {
						b.Fatal(err)
					}
					shipped = m.RowsShipped
				}
				b.ReportMetric(float64(shipped), "rows-shipped")
			})
		}
	}
}

// ---------------------------------------------------------------------
// E8 — the component DBMS's two-phase locking under contention: local
// transaction throughput with disjoint keys vs a 2-row hot set. With
// microsecond transactions the physical latch dominates, so the "hold"
// variants keep locks for an extra 200µs (think: user think-time or a
// slow disk in 1994) — there strict 2PL serializes the hot workload
// while the disjoint one still scales.

func BenchmarkE8LocalCC(b *testing.B) {
	for _, mode := range []string{"disjoint", "hot", "disjoint-hold", "hot-hold"} {
		hold := strings.HasSuffix(mode, "-hold")
		b.Run(mode, func(b *testing.B) {
			db := localdb.New("cc")
			db.MustExec(`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER NOT NULL)`)
			stmt := ""
			for i := 0; i < 1024; i++ {
				if stmt != "" {
					stmt += ", "
				}
				stmt += fmt.Sprintf("(%d, 1000)", i)
				if (i+1)%256 == 0 {
					db.MustExec("INSERT INTO acct VALUES " + stmt)
					stmt = ""
				}
			}
			var worker atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := int(worker.Add(1))
				rng := rand.New(rand.NewSource(int64(w)))
				i := 0
				for pb.Next() {
					var a, c int
					if strings.HasPrefix(mode, "disjoint") {
						a = (w*131 + i) % 512
						c = 512 + (w*131+i)%512
					} else {
						// Two hot rows: every transaction conflicts.
						a, c = 0, 1
						_ = rng
					}
					i++
					for {
						ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
						tx := db.Begin()
						_, err := tx.Exec(ctx, fmt.Sprintf(`UPDATE acct SET bal = bal - 1 WHERE id = %d`, a))
						if err == nil {
							if hold {
								time.Sleep(200 * time.Microsecond) // locks held
							}
							_, err = tx.Exec(ctx, fmt.Sprintf(`UPDATE acct SET bal = bal + 1 WHERE id = %d`, c))
						}
						cancel()
						if err != nil {
							tx.Rollback()
							continue
						}
						if err := tx.Commit(); err != nil {
							b.Error(err)
							return
						}
						break
					}
				}
			})
		})
	}
}
