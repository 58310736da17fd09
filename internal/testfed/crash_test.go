package testfed

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"myriad/internal/catalog"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/localdb"
	"myriad/internal/schema"
	"myriad/internal/sqlparser"
)

const createEmp = `CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT, score FLOAT)`

// durableUnionFixture boots a durable site "a" (WAL in a temp dir,
// always-fsync) and a plain site "b", integrated as R = a.E UNION ALL
// b.E over the emp exports.
func durableUnionFixture(t *testing.T, checkpointBytes int64) *Fixture {
	t.Helper()
	setup := []string{createEmp, `CREATE ORDERED INDEX es ON emp (score)`}
	specs := []SiteSpec{
		{Name: "a", Setup: setup,
			Exports: []gateway.Export{{Name: "E", LocalTable: "emp"}},
			DataDir: t.TempDir(), CheckpointBytes: checkpointBytes},
		{Name: "b", Setup: setup,
			Exports: []gateway.Export{{Name: "E", LocalTable: "emp"}}},
	}
	def := &catalog.IntegratedDef{
		Name: "R",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "name", Type: schema.TText},
			{Name: "score", Type: schema.TFloat},
		},
		Key:     []string{"id"},
		Combine: integration.UnionAll,
		Sources: []catalog.SourceDef{
			{Site: "a", Export: "E", ColumnMap: map[string]string{"id": "id", "name": "name", "score": "score"}},
			{Site: "b", Export: "E", ColumnMap: map[string]string{"id": "id", "name": "name", "score": "score"}},
		},
	}
	return New(t, specs, []*catalog.IntegratedDef{def})
}

func empInsert(i int) string {
	return fmt.Sprintf(`INSERT INTO emp (id, name, score) VALUES (%d, 'w%d', %d.%d)`,
		i, i%7, (i*37)%97, i%10)
}

// runCrashMatrix drives the shared kill -9 scenario: a writer hammers
// the durable site with single-statement commits; mid-stream the site
// is hard-killed, restarted, and the recovered state is compared
// against a never-crashed reference database fed the same statements.
//
// The kill lands between a commit's WAL fsync and its acknowledgment
// for at most one statement, so the recovered row count k may exceed
// the acknowledged count by one — the classic commit-uncertainty
// window. Everything else must be exact: row-identical heap in scan
// order, identical ordered-index walks (byte-identical ORDER BY
// output), and the same stats-driven access-path choice.
func runCrashMatrix(t *testing.T, checkpointBytes int64) {
	fx := durableUnionFixture(t, checkpointBytes)
	ctx := context.Background()
	fx.Site("b").DB.MustExec(empInsert(1_000_001))

	siteDB := fx.Site("a").DB
	var acked atomic.Int64
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 1; ; i++ {
			if _, err := siteDB.Exec(ctx, empInsert(i)); err != nil {
				return // the crash severed the site mid-statement
			}
			acked.Store(int64(i))
		}
	}()

	for acked.Load() < 60 {
		time.Sleep(200 * time.Microsecond)
	}
	fx.Kill(t, "a")
	<-writerDone
	k0 := acked.Load()

	// The federation still lists the dead site; querying it fails.
	if _, err := fx.Query(ctx, `SELECT id FROM R`); err == nil {
		t.Fatal("query against killed site succeeded")
	}

	site := fx.Restart(t, "a")
	recovered := site.DB

	// Row count: every acknowledged commit survived (SyncAlways), plus
	// at most the single in-flight statement.
	rs, err := recovered.Query(ctx, `SELECT id FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	k := int64(len(rs.Rows))
	if k < k0 || k > k0+1 {
		t.Fatalf("recovered %d rows, want %d (acked) or %d (acked + in-flight)", k, k0, k0+1)
	}
	// Heap scan order is insertion order: ids 1..k in sequence.
	for i, r := range rs.Rows {
		if r[0].RawInt() != int64(i+1) {
			t.Fatalf("scan position %d holds id %d; recovered heap order differs from insertion order", i, r[0].RawInt())
		}
	}

	// Never-crashed reference: the same statements, same order.
	ref := localdb.NewScratch(nil)
	ref.MustExec(createEmp)
	ref.MustExec(`CREATE ORDERED INDEX es ON emp (score)`)
	for i := int64(1); i <= k; i++ {
		ref.MustExec(empInsert(int(i)))
	}

	// Logical state digest covers rows, scan order, and every
	// ordered-index walk with RowID tie-breaks.
	if got, want := recovered.StateDigest(), ref.StateDigest(); got != want {
		t.Fatalf("recovered site digest differs from never-crashed reference\n got %s\nwant %s", got, want)
	}

	// Ordered-index walk drives ORDER BY without a sort; the recovered
	// walk must be byte-identical, ties included.
	const orderBy = `SELECT id, score FROM emp ORDER BY score DESC`
	gotRS, err := recovered.Query(ctx, orderBy)
	if err != nil {
		t.Fatal(err)
	}
	wantRS, err := ref.Query(ctx, orderBy)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRS.Rows) != len(wantRS.Rows) {
		t.Fatalf("ORDER BY row counts differ: %d vs %d", len(gotRS.Rows), len(wantRS.Rows))
	}
	for i := range gotRS.Rows {
		if gotRS.Rows[i][0] != wantRS.Rows[i][0] {
			t.Fatalf("ORDER BY position %d: recovered id %d, reference id %d (tie-break order diverged)",
				i, gotRS.Rows[i][0].RawInt(), wantRS.Rows[i][0].RawInt())
		}
	}

	// Stats-driven access-path selection: recomputed statistics on the
	// recovered site must yield the same explain as the reference.
	stmt, err := sqlparser.Parse(`SELECT id FROM emp WHERE score > 50.0 ORDER BY score ASC`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*sqlparser.Select)
	gotEx, err := recovered.ExplainSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	wantEx, err := ref.ExplainSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	if gotEx != wantEx {
		t.Fatalf("explain diverged after recovery:\n got: %s\nwant: %s", gotEx, wantEx)
	}

	// The federation reconnected: a global query unions the recovered
	// site with the untouched one.
	frs, err := fx.Query(ctx, `SELECT id FROM R`)
	if err != nil {
		t.Fatalf("federated query after restart: %v", err)
	}
	if int64(len(frs.Rows)) != k+1 {
		t.Fatalf("federated union after restart: %d rows, want %d", len(frs.Rows), k+1)
	}

	// And the recovered site keeps accepting durable writes.
	site.DB.MustExec(empInsert(2_000_000))
	if rs, err := recovered.Query(ctx, `SELECT id FROM emp WHERE id = 2000000`); err != nil || len(rs.Rows) != 1 {
		t.Fatalf("write after recovery: rows=%v err=%v", rs, err)
	}
}

// TestKillMidWriteStream: kill -9 lands in the middle of a commit
// stream with no checkpointer — recovery is pure log replay.
func TestKillMidWriteStream(t *testing.T) {
	runCrashMatrix(t, 0)
}

// TestKillMidCheckpoint: an aggressive checkpointer (threshold far
// below the write stream's log volume) is snapshotting and truncating
// continuously when the kill lands, so recovery composes a mid-stream
// snapshot with a log tail — and may race a checkpoint in flight.
func TestKillMidCheckpoint(t *testing.T) {
	runCrashMatrix(t, 2048)
}
