package testfed

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"myriad/internal/catalog"
	"myriad/internal/comm"
	"myriad/internal/core"
	"myriad/internal/fedclient"
	"myriad/internal/fedserver"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/schema"
	"myriad/internal/value"
)

// budgetFed points the fixture's federation at a tiny per-query memory
// budget spilling into a fresh directory, returning the directory for
// leak checks. Cleanup restores the unlimited default.
func budgetFed(t testing.TB, fx *Fixture, limit int64) string {
	t.Helper()
	dir := t.TempDir()
	fx.Fed.MemBudget = limit
	fx.Fed.SpillDir = dir
	t.Cleanup(func() { fx.Fed.MemBudget, fx.Fed.SpillDir = 0, "" })
	return dir
}

func assertNoSpillFiles(t testing.TB, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("spill files leaked: %v", names)
	}
}

// TestFederatedExternalSortSpills is the tentpole acceptance test: a
// federated ORDER BY without LIMIT over 120k rows across two sites,
// under a 4KB per-query budget, completes via spilled runs with a
// result byte-identical to the unlimited in-memory sort, reports
// SpillRuns in metrics, and leaves no temp files behind.
func TestFederatedExternalSortSpills(t *testing.T) {
	fx := twoSiteUnion(t, integration.UnionAll, 60_000, 60_000, false, 0)
	warm(t, fx)
	ctx := context.Background()
	const sql = `SELECT id, v FROM R ORDER BY v, id`

	want, err := fx.Fed.Query(ctx, sql) // unlimited
	if err != nil {
		t.Fatal(err)
	}
	dir := budgetFed(t, fx, 4096)
	got, m, err := fx.Fed.QueryMetered(ctx, sql, fx.Fed.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 120_000 {
		t.Fatalf("rows = %d", len(got.Rows))
	}
	if m.SpillRuns == 0 || m.SpilledBytes == 0 {
		t.Fatalf("no spill recorded: runs=%d bytes=%d", m.SpillRuns, m.SpilledBytes)
	}
	assertSameResult(t, want, got)
	assertNoSpillFiles(t, dir)
}

// TestTinyBudgetCorpusEquivalence runs the whole equivalence corpus
// under a forced 4KB budget — every sort, merge and blocking combiner
// spills — holding every answer to the oracle under both strategies.
func TestTinyBudgetCorpusEquivalence(t *testing.T) {
	fx := equivalenceFixture(t)
	oracle := fx.Oracle(t)
	ctx := context.Background()
	dir := budgetFed(t, fx, 4096)
	var spills int64
	for _, strategy := range []core.Strategy{core.StrategyCostBased, core.StrategySimple} {
		for _, sql := range equivalenceCorpus {
			name := fmt.Sprintf("%v/%s", strategy, sql)
			t.Run(name, func(t *testing.T) {
				got, m, err := fx.Fed.QueryMetered(ctx, sql, strategy)
				if err != nil {
					t.Fatalf("spilling: %v", err)
				}
				spills += m.SpillRuns
				if err := oracle.Check(ctx, sql, got); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	if spills == 0 {
		t.Fatal("corpus ran without a single spill under a 4KB budget")
	}
	assertNoSpillFiles(t, dir)
}

// logSink collects a streamed response in memory.
type logSink struct {
	cols []string
	rows []schema.Row
}

func (s *logSink) Header(cols []string) error { s.cols = cols; return nil }
func (s *logSink) Batch(n int, payload []byte) error {
	rows, err := value.DecodeRows(s.rows, n, payload)
	s.rows = rows
	return err
}
func (s *logSink) Fill(fill func([]byte, int) ([]byte, int, error)) (int, error) {
	payload, n, err := fill(nil, comm.DefaultBatchRows)
	if derr := s.Batch(n, payload); err == nil {
		err = derr
	}
	return n, err
}

// TestFedserverLogsSpillRuns: the acceptance criterion's observability
// half — after a spilling query streams to a client, the fedserver
// metrics log line reports spill_runs > 0.
func TestFedserverLogsSpillRuns(t *testing.T) {
	fx := twoSiteUnion(t, integration.UnionAll, 10_000, 10_000, false, 0)
	warm(t, fx)
	dir := budgetFed(t, fx, 4096)

	var lines []string
	srv := fedserver.New(fx.Fed)
	srv.Logf = func(format string, v ...any) { lines = append(lines, fmt.Sprintf(format, v...)) }

	sink := &logSink{}
	err := srv.HandleStream(context.Background(),
		&comm.Request{Op: comm.OpQuery, SQL: `SELECT id, v FROM R ORDER BY v, id`}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.rows) != 20_000 {
		t.Fatalf("streamed %d rows", len(sink.rows))
	}
	found := false
	for _, line := range lines {
		if !strings.Contains(line, "spill_runs=") {
			continue
		}
		found = true
		if strings.Contains(line, "spill_runs=0") {
			t.Fatalf("spilling query logged spill_runs=0: %s", line)
		}
	}
	if !found {
		t.Fatalf("no spill_runs log line in %q", lines)
	}
	assertNoSpillFiles(t, dir)
}

// TestSortKeysOfAnotherTypeStayAtCoordinator: site b stores R's INTEGER
// v as TEXT, where '10' sorts before '9'. A top-K ORDER BY on v must
// not ship there: the site's top-K would pick the wrong candidates.
// Every answer equals the oracle's.
func TestSortKeysOfAnotherTypeStayAtCoordinator(t *testing.T) {
	specs := []SiteSpec{
		{Name: "a", Setup: []string{createT}, Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}},
		{Name: "b", Setup: []string{`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`},
			Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}},
	}
	fx := New(t, specs, []*catalog.IntegratedDef{unionDef(integration.UnionAll, "a", "b")})
	vi, vt := value.NewInt, value.NewText
	fx.LoadRows(t, "a", "t", []schema.Row{{vi(1), vi(50)}, {vi(2), vi(5)}})
	fx.LoadRows(t, "b", "t", []schema.Row{{vi(3), vt("10")}, {vi(4), vt("9")}, {vi(5), vt("100")}})
	oracle := fx.Oracle(t)
	ctx := context.Background()
	for _, sql := range []string{
		`SELECT id, v FROM R ORDER BY v LIMIT 2`,
		`SELECT id, v FROM R ORDER BY v DESC LIMIT 3`,
		`SELECT id, v FROM R ORDER BY v`,
	} {
		got, err := fx.Fed.Query(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Check(ctx, sql, got); err != nil {
			t.Errorf("%s: %v", sql, err)
		}
	}
}

// TestOrdinalOrderByStaysAtCoordinator: an ORDER BY position names an
// item of the query's select list, not of a site scan's, so a top-K by
// ordinal must not ship (it used to, and each site picked its
// candidates by its scan's first column, id). Every answer equals the
// oracle's.
func TestOrdinalOrderByStaysAtCoordinator(t *testing.T) {
	fx := twoSiteUnion(t, integration.UnionAll, 200, 200, false, 0)
	oracle := fx.Oracle(t)
	ctx := context.Background()
	for _, sql := range []string{
		`SELECT v, id FROM R ORDER BY 1, 2 LIMIT 4`,
		`SELECT v, id FROM R ORDER BY 1 DESC, 2 LIMIT 3`,
		`SELECT v, id FROM R ORDER BY 1, 2`,
	} {
		got, err := fx.Fed.Query(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Check(ctx, sql, got); err != nil {
			t.Errorf("%s: %v", sql, err)
		}
	}
}

// outerMergeFixture builds M = a.T outer-merge b.T on id over sizable
// overlapping fragments, with site b optionally faulty.
func outerMergeFixture(t testing.TB, rowsEach int, faultyB bool) *Fixture {
	t.Helper()
	specs := []SiteSpec{
		{Name: "a", Setup: []string{createT},
			Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}},
		{Name: "b", Setup: []string{createT},
			Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}, Faulty: faultyB},
	}
	def := unionDef(integration.MergeOuter, "a", "b")
	def.Resolvers = map[string]string{"v": "max"}
	fx := New(t, specs, []*catalog.IntegratedDef{def})
	fx.LoadRows(t, "a", "t", genRows(0, rowsEach))
	fx.LoadRows(t, "b", "t", genRows(rowsEach/2, rowsEach))
	return fx
}

// TestOuterMergeSpillFederated: a federated OUTERJOIN-MERGE whose
// sources exceed the budget spills both fragments and still resolves
// the same entities the unlimited run does.
func TestOuterMergeSpillFederated(t *testing.T) {
	fx := outerMergeFixture(t, 20_000, false)
	warm(t, fx)
	ctx := context.Background()
	const sql = `SELECT id, v FROM R ORDER BY id`

	want, err := fx.Fed.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	dir := budgetFed(t, fx, 4096)
	got, m, err := fx.Fed.QueryMetered(ctx, sql, fx.Fed.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	if m.SpillRuns == 0 {
		t.Fatal("outer merge did not spill")
	}
	assertSameResult(t, want, got)
	assertNoSpillFiles(t, dir)
}

// TestOuterMergeSpillCancelRemovesTempFiles: the testfed fault proxy
// severs site b mid-drain while the combiner is already spilling; the
// query errors (no hang, no partial silent result) and every spill
// temp file is removed once the stream tears down.
func TestOuterMergeSpillCancelRemovesTempFiles(t *testing.T) {
	fx := outerMergeFixture(t, 20_000, true)
	warm(t, fx)
	dir := budgetFed(t, fx, 4096)
	fx.Site("b").Proxy.DropAfter(50_000)

	res := await(t, runAsync(context.Background(), fx, `SELECT id, v FROM R ORDER BY id`), 30*time.Second)
	if res.err == nil {
		t.Fatalf("mid-stream drop returned %d rows with no error", len(res.rs.Rows))
	}
	assertNoSpillFiles(t, dir)
}

// TestSpilledOrderByOverTCP: a three-site ORDER BY on a TEXT key and on
// a FLOAT key (ties, -0.0), spilled under a 4 KB budget, reaches a
// fedclient over TCP as frames the coordinator filled from its run
// bytes; every answer equals the oracle's and no run file is left.
func TestSpilledOrderByOverTCP(t *testing.T) {
	create := `CREATE TABLE p (id INTEGER PRIMARY KEY, price FLOAT, name TEXT)`
	def := &catalog.IntegratedDef{
		Name: "P",
		Columns: []schema.Column{{Name: "id", Type: schema.TInt}, {Name: "price", Type: schema.TFloat},
			{Name: "name", Type: schema.TText}},
		Combine: integration.UnionAll,
	}
	var specs []SiteSpec
	for _, s := range []string{"a", "b", "c"} {
		specs = append(specs, SiteSpec{Name: s, Setup: []string{create},
			Exports: []gateway.Export{{Name: "P", LocalTable: "p"}}})
		def.Sources = append(def.Sources, catalog.SourceDef{Site: s, Export: "P",
			ColumnMap: map[string]string{"id": "id", "price": "price", "name": "name"}})
	}
	fx := New(t, specs, []*catalog.IntegratedDef{def})
	for i, s := range []string{"a", "b", "c"} {
		rows := make([]schema.Row, 900)
		for j := range rows {
			id := i*len(rows) + j
			price := value.NewFloat(float64(id*7919%500) / 8)
			if id%11 == 0 {
				price = value.NewFloat(math.Copysign(0, -1))
			}
			rows[j] = schema.Row{value.NewInt(int64(id)), price, value.NewText(fmt.Sprintf("item-%03d", id*31%211))}
		}
		fx.LoadRows(t, s, "p", rows)
	}
	oracle := fx.Oracle(t)
	dir := budgetFed(t, fx, 4096)
	addr, fs := relayServer(t, fx)
	var lines []string
	var mu sync.Mutex
	fs.Logf = func(format string, v ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, v...))
		mu.Unlock()
	}
	cl := fedclient.Dial(addr, 2)
	t.Cleanup(func() { cl.Close() }) //nolint:errcheck
	ctx := context.Background()
	for _, sql := range []string{
		`SELECT id, price, name FROM P ORDER BY name, id`,
		`SELECT name, id FROM P ORDER BY name DESC, id DESC`,
		`SELECT price, id, name FROM P ORDER BY price, id`,
		`SELECT id, price FROM P ORDER BY price DESC, id`,
	} {
		got, err := cl.Query(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if len(got.Rows) != 2700 {
			t.Fatalf("%s: %d rows", sql, len(got.Rows))
		}
		if err := oracle.Check(ctx, sql, got); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		mu.Lock()
		last := lines[len(lines)-1]
		mu.Unlock()
		if !strings.Contains(last, "spill_runs=") || strings.Contains(last, "spill_runs=0 ") {
			t.Fatalf("%s: not spilled: %s", sql, last)
		}
	}
	assertNoSpillFiles(t, dir)
}
