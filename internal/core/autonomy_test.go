package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"myriad/internal/catalog"
	"myriad/internal/gateway"
	"myriad/internal/gtm"
	"myriad/internal/integration"
	"myriad/internal/schema"
)

// TestMultipleFederations exercises the paper's "In Myriad, multiple
// federations can be formed": two independent federations over the same
// component databases, each with its own integrated schema and
// coordinator, without interfering.
func TestMultipleFederations(t *testing.T) {
	base, east, west := buildUniversity(t)
	ctx := context.Background()

	// A second federation over the same gateways exposing a different,
	// narrower integrated view.
	hr := New("hr-federation")
	eastConn, _ := base.Conn("east")
	westConn, _ := base.Conn("west")
	if err := hr.AttachSite(ctx, eastConn); err != nil {
		t.Fatal(err)
	}
	if err := hr.AttachSite(ctx, westConn); err != nil {
		t.Fatal(err)
	}
	if err := hr.DefineIntegrated(&catalog.IntegratedDef{
		Name: "HEADCOUNT",
		Columns: []schema.Column{
			{Name: "campus", Type: schema.TText},
			{Name: "id", Type: schema.TInt},
		},
		Combine: integration.UnionAll,
		Sources: []catalog.SourceDef{
			{Site: "east", Export: "STUDENT", ColumnMap: map[string]string{"campus": "'east'", "id": "id"}},
			{Site: "west", Export: "STUDENT", ColumnMap: map[string]string{"campus": "'west'", "id": "id"}},
		},
	}); err != nil {
		t.Fatal(err)
	}

	// The new federation answers its own schema...
	rs, err := hr.Query(ctx, `SELECT COUNT(*) FROM HEADCOUNT`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Text() != "7" {
		t.Errorf("headcount: %s", rs.Rows[0][0].Text())
	}
	// ...but not the first federation's relations, and vice versa.
	if _, err := hr.Query(ctx, `SELECT COUNT(*) FROM ALL_STUDENTS`); err == nil {
		t.Error("federation schemas leaked across federations")
	}
	if _, err := base.Query(ctx, `SELECT COUNT(*) FROM HEADCOUNT`); err == nil {
		t.Error("federation schemas leaked across federations (reverse)")
	}

	// Transactions in both federations commit independently.
	east.MustExec(`CREATE TABLE audit (id INTEGER PRIMARY KEY, what TEXT)`)
	ge, _ := base.Conn("east")
	if err := ge.(*gateway.LocalConn).G.DefineExport(gateway.Export{Name: "AUDIT", LocalTable: "audit"}); err != nil {
		t.Fatal(err)
	}
	txn1 := base.Begin()
	txn2 := hr.Begin()
	if _, err := txn1.ExecSite(ctx, "east", `INSERT INTO AUDIT (id, what) VALUES (1, 'from base')`); err != nil {
		t.Fatal(err)
	}
	if _, err := txn2.ExecSite(ctx, "east", `INSERT INTO AUDIT (id, what) VALUES (2, 'from hr')`); err != nil {
		t.Fatal(err)
	}
	if err := txn1.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := txn2.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	rs, _ = east.Query(ctx, `SELECT COUNT(*) FROM audit`)
	if rs.Rows[0][0].Text() != "2" {
		t.Errorf("audit rows: %s", rs.Rows[0][0].Text())
	}
	_ = west
}

// TestSiteAutonomy checks the paper's core premise: component databases
// keep serving their local applications while federated. Local
// transactions and global queries interleave without corruption.
func TestSiteAutonomy(t *testing.T) {
	fed, east, _ := buildUniversity(t)
	ctx := context.Background()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 2)

	// A local application hammering the component database directly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1000; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tx := east.Begin()
			c, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
			_, err := tx.Exec(c, fmt.Sprintf(`INSERT INTO students (sid, sname, gpa, yr) VALUES (%d, 'local%d', 3.0, 1)`, i, i))
			cancel()
			if err != nil {
				tx.Rollback()
				continue
			}
			if err := tx.Commit(); err != nil {
				errCh <- err
				return
			}
		}
	}()

	// Federation queries running concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			rs, err := fed.Query(ctx, `SELECT COUNT(*) FROM ALL_STUDENTS`)
			if err != nil {
				errCh <- err
				return
			}
			if n, _ := rs.Rows[0][0].Int(); n < 7 {
				errCh <- fmt.Errorf("federation saw %d students, fewer than baseline 7", n)
				return
			}
		}
	}()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Let the federation reader finish, then stop the local writer.
	time.Sleep(300 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("autonomy test wedged")
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// queryTx runs a global SELECT inside txn and materializes it.
func queryTx(ctx context.Context, fed *Federation, txn *gtm.Txn, sql string) (*schema.ResultSet, error) {
	rows, _, err := fed.QueryTx(ctx, txn, sql, fed.Strategy)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	return schema.DrainStream(ctx, rows)
}

// TestTransactionalReadIsolation verifies that a global-transaction
// query acquires read locks at the sites, so concurrent writers cannot
// slip between two reads of the same integrated relation (serializable,
// not merely repeatable, via strict 2PL + 2PC).
func TestTransactionalReadIsolation(t *testing.T) {
	fed, east, _ := buildUniversity(t)
	ctx := context.Background()

	txn := fed.Begin()
	rs1, err := queryTx(ctx, fed, txn, `SELECT COUNT(*) FROM ALL_STUDENTS`)
	if err != nil {
		t.Fatal(err)
	}

	// A local writer must block behind the read locks...
	writerDone := make(chan error, 1)
	go func() {
		wtx := east.Begin()
		c, cancel := context.WithTimeout(ctx, 80*time.Millisecond)
		defer cancel()
		_, err := wtx.Exec(c, `INSERT INTO students (sid, sname, gpa, yr) VALUES (50, 'late', 2.0, 1)`)
		wtx.Rollback()
		writerDone <- err
	}()
	if err := <-writerDone; err == nil {
		t.Fatal("writer slipped past transactional read locks")
	}

	// ...so a second read inside the transaction sees the same count.
	rs2, err := queryTx(ctx, fed, txn, `SELECT COUNT(*) FROM ALL_STUDENTS`)
	if err != nil {
		t.Fatal(err)
	}
	if rs1.Rows[0][0].Text() != rs2.Rows[0][0].Text() {
		t.Errorf("non-repeatable read: %s then %s", rs1.Rows[0][0].Text(), rs2.Rows[0][0].Text())
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// After commit the writer succeeds.
	if _, err := east.Exec(ctx, `INSERT INTO students (sid, sname, gpa, yr) VALUES (50, 'late', 2.0, 1)`); err != nil {
		t.Fatal(err)
	}
}

func TestWithRetry(t *testing.T) {
	fed, east, west := buildUniversity(t)
	ctx := context.Background()

	east.MustExec(`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER NOT NULL)`)
	east.MustExec(`INSERT INTO acct VALUES (1, 100)`)
	west.MustExec(`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER NOT NULL)`)
	west.MustExec(`INSERT INTO acct VALUES (1, 100)`)
	for _, site := range []string{"east", "west"} {
		conn, _ := fed.Conn(site)
		if err := conn.(*gateway.LocalConn).G.DefineExport(gateway.Export{Name: "ACCT", LocalTable: "acct"}); err != nil {
			t.Fatal(err)
		}
	}
	fed.SetLocalQueryTimeout(60 * time.Millisecond)

	// Success path.
	err := fed.WithRetry(ctx, 3, func(txn *gtm.Txn) error {
		if _, err := txn.ExecSite(ctx, "east", `UPDATE ACCT SET bal = bal - 5 WHERE id = 1`); err != nil {
			return err
		}
		_, err := txn.ExecSite(ctx, "west", `UPDATE ACCT SET bal = bal + 5 WHERE id = 1`)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Non-retryable errors surface immediately.
	calls := 0
	err = fed.WithRetry(ctx, 5, func(txn *gtm.Txn) error {
		calls++
		return errors.New("business rule violated")
	})
	if err == nil || calls != 1 {
		t.Errorf("non-retryable: err=%v calls=%d", err, calls)
	}

	// Deadlock aborts retry until success: create contention that
	// resolves after the first holder commits.
	blocker := fed.Begin()
	if _, err := blocker.ExecSite(ctx, "east", `UPDATE ACCT SET bal = bal + 0 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	go func() {
		<-release
		blocker.Commit(ctx) //nolint:errcheck
	}()
	attempts := 0
	err = fed.WithRetry(ctx, 10, func(txn *gtm.Txn) error {
		attempts++
		if attempts == 1 {
			close(release) // free the lock while the first attempt waits
		}
		_, err := txn.ExecSite(ctx, "east", `UPDATE ACCT SET bal = bal - 1 WHERE id = 1`)
		return err
	})
	if err != nil {
		t.Fatalf("retry never succeeded after %d attempts: %v", attempts, err)
	}
}
