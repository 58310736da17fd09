package localdb

import (
	"context"
	"fmt"
	"testing"

	"myriad/internal/schema"
)

// Micro-benchmarks for the component DBMS itself (the substrate the
// federation's numbers stand on). Run with:
//
//	go test -bench=. -benchmem ./internal/localdb/
func benchDB(b *testing.B, rows int) *DB {
	b.Helper()
	db := New("bench")
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val FLOAT, name TEXT)`)
	stmt := ""
	for i := 0; i < rows; i++ {
		if stmt != "" {
			stmt += ", "
		}
		stmt += fmt.Sprintf("(%d, %d, %d.5, 'row-%d')", i, i%64, i%997, i)
		if (i+1)%500 == 0 || i == rows-1 {
			db.MustExec("INSERT INTO t VALUES " + stmt)
			stmt = ""
		}
	}
	return db
}

func BenchmarkPointLookup(b *testing.B) {
	db := benchDB(b, 10000)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(ctx, fmt.Sprintf(`SELECT name FROM t WHERE id = %d`, i%10000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullScanFilter(b *testing.B) {
	db := benchDB(b, 10000)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(ctx, `SELECT id FROM t WHERE val < 100`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeFilterStream drains a range filter over a 20,000-row
// PARTS-shaped table through QueryStream, the path a gateway serves a
// pushed-down selection on: a full scan, a two-comparison WHERE on a
// FLOAT column with a folded constant bound, about 10% of rows kept.
// ns/row is per scanned row; allocs/op covers the whole query, so a
// predicate that allocated per row would show as ~20,000 more.
func BenchmarkRangeFilterStream(b *testing.B) {
	const rows = 20000
	db := New("bench")
	db.MustExec(`CREATE TABLE parts (pid INTEGER PRIMARY KEY, pname TEXT NOT NULL, weight FLOAT, price FLOAT, category TEXT)`)
	stmt := ""
	for i := 0; i < rows; i++ {
		if stmt != "" {
			stmt += ", "
		}
		stmt += fmt.Sprintf("(%d, 'part-%d', %d.%03d, %d.%02d, 'cat-%d')", i, i, (i*7919)%1000, (i*31)%1000, i%500, i%100, i%16)
		if (i+1)%500 == 0 || i == rows-1 {
			db.MustExec("INSERT INTO parts VALUES " + stmt)
			stmt = ""
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * 37) % 900
		rs, err := db.QueryStream(ctx, fmt.Sprintf(`SELECT pid, pname, weight, price, category FROM parts WHERE weight >= %d AND weight < %d+100`, lo, lo))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			r, err := rs.Next(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if r == nil {
				break
			}
			n++
		}
		rs.Close()
		if n == 0 {
			b.Fatal("range kept no rows")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

func BenchmarkSecondaryIndexProbe(b *testing.B) {
	db := benchDB(b, 10000)
	db.MustExec(`CREATE INDEX t_grp ON t (grp)`)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(ctx, fmt.Sprintf(`SELECT COUNT(*) FROM t WHERE grp = %d`, i%64)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoin(b *testing.B) {
	db := benchDB(b, 5000)
	db.MustExec(`CREATE TABLE g (grp INTEGER PRIMARY KEY, label TEXT)`)
	stmt := ""
	for i := 0; i < 64; i++ {
		if stmt != "" {
			stmt += ", "
		}
		stmt += fmt.Sprintf("(%d, 'g%d')", i, i)
	}
	db.MustExec("INSERT INTO g VALUES " + stmt)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(ctx, `SELECT COUNT(*) FROM t JOIN g ON t.grp = g.grp WHERE g.label = 'g7'`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupByAggregate(b *testing.B) {
	db := benchDB(b, 10000)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(ctx, `SELECT grp, COUNT(*), SUM(val) FROM t GROUP BY grp`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertTxn(b *testing.B) {
	db := New("ins")
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := tx.Exec(ctx, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'v')`, i)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdateCommitVsRollback(b *testing.B) {
	for _, mode := range []string{"commit", "rollback"} {
		b.Run(mode, func(b *testing.B) {
			db := benchDB(b, 1024)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := db.Begin()
				if _, err := tx.Exec(ctx, fmt.Sprintf(`UPDATE t SET val = val + 1 WHERE id = %d`, i%1024)); err != nil {
					b.Fatal(err)
				}
				if mode == "commit" {
					if err := tx.Commit(); err != nil {
						b.Fatal(err)
					}
				} else {
					tx.Rollback()
				}
			}
		})
	}
}

// BenchmarkTopKOrderLimit pins the fused ORDER BY + LIMIT operator
// against a full sort of the same 100k rows (the query without its
// LIMIT): the top-K heap retains 10 rows instead of sorting 100k, so
// allocs/op should be at least 5x lower than the fullsort
// sub-benchmark.
func BenchmarkTopKOrderLimit(b *testing.B) {
	db := benchDB(b, 100000)
	ctx := context.Background()
	const q = `SELECT id, name FROM t ORDER BY val, id`
	for _, mode := range []string{"topk", "fullsort"} {
		b.Run(mode, func(b *testing.B) {
			sql, want := q+" LIMIT 10", 10
			if mode == "fullsort" {
				sql, want = q, 100000
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, err := db.Query(ctx, sql)
				if err != nil {
					b.Fatal(err)
				}
				if len(rs.Rows) != want {
					b.Fatalf("%d rows", len(rs.Rows))
				}
			}
		})
	}
}

// BenchmarkLimitEarlyExit measures LIMIT-driven early termination: the
// scan stops as soon as 10 matching rows surface instead of walking
// all 100k slots.
func BenchmarkLimitEarlyExit(b *testing.B) {
	db := benchDB(b, 100000)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query(ctx, `SELECT id FROM t WHERE grp = 5 LIMIT 10`)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Rows) != 10 {
			b.Fatalf("%d rows", len(rs.Rows))
		}
	}
}

func BenchmarkParseOnly(b *testing.B) {
	db := benchDB(b, 16)
	ctx := context.Background()
	// One representative mixed query; measures parse+plan+execute floor.
	const q = `SELECT grp, COUNT(*) AS n FROM t WHERE val BETWEEN 1 AND 500 GROUP BY grp HAVING COUNT(*) > 0 ORDER BY n DESC LIMIT 5`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlainScanEncode times a site's plain scan into wire bytes:
// 20k rows, a WHERE keeping one in ten, four bare columns, encoded 256
// rows at a time. "rows" pulls each row with Next and encodes it with
// value.AppendRow (the row path every other shape takes); "batch"
// encodes straight from the heap with AppendRows.
func BenchmarkPlainScanEncode(b *testing.B) {
	db := benchDB(b, 20000)
	ctx := context.Background()
	const q = `SELECT id, grp, val, name FROM t WHERE val >= 100 AND val < 200`
	for _, mode := range []string{"rows", "batch"} {
		b.Run(mode, func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := db.QueryStream(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				for n := -1; n != 0; {
					buf = buf[:0]
					if mode == "batch" {
						buf, n, err = rows.AppendRows(ctx, buf, 256)
					} else {
						buf, n, err = schema.AppendRows(ctx, rows.Next, buf, 256)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				rows.Close()
			}
		})
	}
}
