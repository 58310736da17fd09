package fedserver

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"myriad/internal/catalog"
	"myriad/internal/comm"
	"myriad/internal/core"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/localdb"
	"myriad/internal/schema"
	"myriad/internal/value"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	db := localdb.New("s0")
	db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	db.MustExec(`INSERT INTO kv VALUES (1, 'a')`)
	gw := gateway.New("s0", db, nil)
	if err := gw.DefineExport(gateway.Export{Name: "KV", LocalTable: "kv"}); err != nil {
		t.Fatal(err)
	}
	fed := core.New("unit")
	if err := fed.AttachSite(context.Background(), &gateway.LocalConn{G: gw}); err != nil {
		t.Fatal(err)
	}
	if err := fed.DefineIntegrated(&catalog.IntegratedDef{
		Name:    "T",
		Columns: []schema.Column{{Name: "k", Type: schema.TInt}, {Name: "v", Type: schema.TText}},
		Combine: integration.UnionAll,
		Sources: []catalog.SourceDef{{Site: "s0", Export: "KV",
			ColumnMap: map[string]string{"k": "k", "v": "v"}}},
	}); err != nil {
		t.Fatal(err)
	}
	return New(fed)
}

func TestHandleErrors(t *testing.T) {
	s := testServer(t)
	ctx := context.Background()

	for _, req := range []*comm.Request{
		{Op: "bogus"},
		{Op: comm.OpQuery, SQL: "SELECT k FROM T"}, // queries only stream
		{Op: comm.OpExecAt, TxnID: 999, Table: "s0", SQL: "DELETE FROM KV"},
		{Op: comm.OpCommit, TxnID: 999},
		{Op: comm.OpDefine, SQL: "{not json"},
		{Op: comm.OpDefine, SQL: `{"name":"X","combine":"zap"}`},
		{Op: comm.OpDrop, Table: "GHOST"},
		{Op: comm.OpExplain, SQL: "SELECT nope FROM GHOST"},
	} {
		if resp := s.Handle(ctx, req); resp.AsError() == nil {
			t.Errorf("op %q with bad input succeeded", req.Op)
		}
	}
	for _, req := range []*comm.Request{
		{Op: comm.OpPing},
		{Op: comm.OpQuery, SQL: "SELECT FROM"},
		{Op: comm.OpQuery, TxnID: 999, SQL: "SELECT k FROM T"},
	} {
		if err := s.HandleStream(ctx, req, &collectSink{}); err == nil {
			t.Errorf("streamed op %q (%q) with bad input succeeded", req.Op, req.SQL)
		}
	}
	// Abort of an unknown transaction is benign (idempotent).
	if resp := s.Handle(ctx, &comm.Request{Op: comm.OpAbort, TxnID: 999}); resp.AsError() != nil {
		t.Errorf("abort of unknown txn errored: %v", resp.AsError())
	}
}

func TestIntegratedDefJSONToDef(t *testing.T) {
	j := &IntegratedDefJSON{
		Name:    "X",
		Columns: []ColumnJSON{{Name: "a", Type: "INTEGER"}, {Name: "b", Type: "VARCHAR"}},
		Key:     []string{"a"},
		Combine: "merge",
		Sources: []SourceJSON{{Site: "s", Export: "E", Map: map[string]string{"a": "a", "b": "b"}, Filter: "a > 0"}},
		Resolve: map[string]string{"b": "first"},
	}
	def, err := j.ToDef()
	if err != nil {
		t.Fatal(err)
	}
	if def.Combine != integration.MergeOuter || def.Columns[1].Type != schema.TText {
		t.Errorf("conversion: %+v", def)
	}
	if def.Sources[0].Filter != "a > 0" || def.Resolvers["b"] != "first" {
		t.Errorf("conversion details: %+v", def)
	}
	j.Columns[0].Type = "BLOB"
	if _, err := j.ToDef(); err == nil {
		t.Error("bad type accepted")
	}
}

func TestCatalogRendering(t *testing.T) {
	s := testServer(t)
	resp := s.Handle(context.Background(), &comm.Request{Op: comm.OpCatalog})
	if resp.AsError() != nil {
		t.Fatal(resp.AsError())
	}
	var lines []string
	for _, r := range resp.Rows.Rows {
		lines = append(lines, r[0].Text())
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"federation unit", "site s0", "export KV", "integrated T", "from s0.KV"} {
		if !strings.Contains(joined, want) {
			t.Errorf("catalog missing %q:\n%s", want, joined)
		}
	}
}

func TestExplainStrategyPrefix(t *testing.T) {
	s := testServer(t)
	ctx := context.Background()
	resp := s.Handle(ctx, &comm.Request{Op: comm.OpExplain, SQL: "simple:SELECT k FROM T"})
	if resp.AsError() != nil {
		t.Fatal(resp.AsError())
	}
	if !strings.Contains(resp.Rows.Rows[0][0].Text(), "simple") {
		t.Errorf("strategy prefix ignored: %v", resp.Rows.Rows[0])
	}
}

func TestQueryStrategyPrefix(t *testing.T) {
	s := testServer(t)
	ctx := context.Background()
	for _, sql := range []string{
		"SELECT v FROM T WHERE k = 1",
		"simple:SELECT v FROM T WHERE k = 1",
		"cost:SELECT v FROM T WHERE k = 1",
	} {
		sink := &collectSink{}
		if err := s.HandleStream(ctx, &comm.Request{Op: comm.OpQuery, SQL: sql}, sink); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if len(sink.rows) != 1 || sink.rows[0][0].Text() != "a" {
			t.Errorf("%q: %v", sql, sink.rows)
		}
	}
}

// collectSink is a comm.RowSink that buffers everything in memory.
type collectSink struct {
	cols []string
	rows []schema.Row
}

func (s *collectSink) Header(cols []string) error { s.cols = cols; return nil }
func (s *collectSink) Batch(n int, payload []byte) error {
	rows, err := value.DecodeRows(s.rows, n, payload)
	s.rows = rows
	return err
}
func (s *collectSink) Fill(fill func([]byte, int) ([]byte, int, error)) (int, error) {
	payload, n, err := fill(nil, comm.DefaultBatchRows)
	if derr := s.Batch(n, payload); err == nil {
		err = derr
	}
	return n, err
}

// TestStreamMetricsLogged: a streamed query reports per-source metrics
// through Logf once the stream has completed.
func TestStreamMetricsLogged(t *testing.T) {
	s := testServer(t)
	var lines []string
	s.Logf = func(format string, v ...any) {
		lines = append(lines, fmt.Sprintf(format, v...))
	}
	sink := &collectSink{}
	if err := s.HandleStream(context.Background(), &comm.Request{Op: comm.OpQuery, SQL: `SELECT k, v FROM T`}, sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.rows) != 1 {
		t.Fatalf("streamed %d rows", len(sink.rows))
	}
	if len(lines) != 1 {
		t.Fatalf("Logf lines = %d: %v", len(lines), lines)
	}
	if !strings.Contains(lines[0], "s0") || !strings.Contains(lines[0], "rows=1") {
		t.Fatalf("metrics line missing site counters: %q", lines[0])
	}
}
