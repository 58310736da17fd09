package fedserver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"regexp"
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

// frame is one recorded batch frame.
type frame struct {
	n       int
	payload string
}

// frameRecorder is a comm.RowSink that packs Fill's rows into frames of
// comm.DefaultBatchRows as the server's frame writer does, and keeps a
// Batch as a frame of its own. end keeps the partial last frame of a
// clean stream and drops it after an error, which supersedes it on the
// wire. afterFirst, when set, runs once the first frame is cut.
type frameRecorder struct {
	cols       []string
	frames     []frame
	payload    []byte
	pending    int
	afterFirst func()
}

func (r *frameRecorder) Header(cols []string) error { r.cols = cols; return nil }

func (r *frameRecorder) Batch(n int, payload []byte) error {
	if r.pending > 0 {
		r.cut()
	}
	r.frames = append(r.frames, frame{n, string(payload)})
	return nil
}

func (r *frameRecorder) Fill(fill func([]byte, int) ([]byte, int, error)) (int, error) {
	room := comm.DefaultBatchRows - r.pending
	payload, n, err := fill(r.payload, room)
	if n > room {
		return 0, fmt.Errorf("frameRecorder: %d rows filled into room for %d", n, room)
	}
	r.payload, r.pending = payload, r.pending+n
	if r.pending == comm.DefaultBatchRows {
		r.cut()
	}
	return n, err
}

func (r *frameRecorder) cut() {
	r.frames = append(r.frames, frame{r.pending, string(r.payload)})
	r.payload, r.pending = nil, 0
	if len(r.frames) == 1 && r.afterFirst != nil {
		r.afterFirst()
	}
}

func (r *frameRecorder) end(err error) {
	if err == nil && r.pending > 0 {
		r.cut()
	}
}

// pack is the frames of rows encoded comm.DefaultBatchRows to a frame.
func pack(rows []schema.Row) []frame {
	var out []frame
	for len(rows) > 0 {
		k := min(len(rows), comm.DefaultBatchRows)
		var b []byte
		for _, r := range rows[:k] {
			b = value.AppendRow(b, r)
		}
		out = append(out, frame{k, string(b)})
		rows = rows[k:]
	}
	return out
}

// spillServer serves I(id, price, name): n rows at each of two sites,
// prices with ties, -0.0 and NaN, under a 4 KB query budget spilling
// into dir.
func spillServer(t *testing.T, n int) (*Server, *core.Federation, string) {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	fed := core.New("frames")
	fed.MemBudget, fed.SpillDir = 4096, dir
	def := &catalog.IntegratedDef{
		Name: "I",
		Columns: []schema.Column{{Name: "id", Type: schema.TInt}, {Name: "price", Type: schema.TFloat},
			{Name: "name", Type: schema.TText}},
		Combine: integration.UnionAll,
	}
	prices := []float64{math.Copysign(0, -1), 0, math.NaN(), 2.5, -1}
	for s := 0; s < 2; s++ {
		site := fmt.Sprintf("s%d", s)
		db := localdb.New(site)
		db.MustExec(`CREATE TABLE item (id INTEGER PRIMARY KEY, price FLOAT, name TEXT)`)
		rows := make([]schema.Row, n)
		for i := range rows {
			p := float64((i*7919)%400) / 4
			if i%9 == 0 {
				p = prices[i%len(prices)]
			}
			rows[i] = schema.Row{value.NewInt(int64(s*n + i)), value.NewFloat(p), value.NewText(fmt.Sprintf("name-%02d", i%37))}
		}
		if err := db.Load("item", rows); err != nil {
			t.Fatal(err)
		}
		gw := gateway.New(site, db, nil)
		if err := gw.DefineExport(gateway.Export{Name: "ITEM", LocalTable: "item"}); err != nil {
			t.Fatal(err)
		}
		if err := fed.AttachSite(ctx, &gateway.LocalConn{G: gw}); err != nil {
			t.Fatal(err)
		}
		def.Sources = append(def.Sources, catalog.SourceDef{Site: site, Export: "ITEM",
			ColumnMap: map[string]string{"id": "id", "price": "price", "name": "name"}})
	}
	if err := fed.DefineIntegrated(def); err != nil {
		t.Fatal(err)
	}
	return New(fed), fed, dir
}

var spillRunsRe = regexp.MustCompile(`spill_runs=(\d+)`)

// TestHandleStreamFramesMatchRows: the frames HandleStream fills — a
// spilled ORDER BY's copied from its runs, a GROUP BY's, a point read's
// and a transactional read's encoded from rows — are the rows a drain
// of the same query returns, encoded comm.DefaultBatchRows to a frame.
func TestHandleStreamFramesMatchRows(t *testing.T) {
	s, fed, dir := spillServer(t, 700)
	var spillRuns string
	s.Logf = func(format string, v ...any) {
		if m := spillRunsRe.FindStringSubmatch(fmt.Sprintf(format, v...)); m != nil {
			spillRuns = m[1]
		}
	}
	ctx := context.Background()
	for _, tc := range []struct {
		sql     string
		spilled bool
	}{
		{`SELECT id, price, name FROM I ORDER BY price`, true},
		{`SELECT name, id FROM I ORDER BY name DESC, price`, true},
		{`SELECT name, COUNT(*) AS n, SUM(price) AS total FROM I GROUP BY name`, false},
		{`SELECT name, price FROM I WHERE id = 5`, false},
	} {
		want, _, err := fed.QueryMetered(ctx, tc.sql, fed.Strategy)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		rec := &frameRecorder{}
		err = s.HandleStream(ctx, &comm.Request{Op: comm.OpQuery, SQL: tc.sql}, rec)
		rec.end(err)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if fmt.Sprint(rec.frames) != fmt.Sprint(pack(want.Rows)) {
			t.Fatalf("%s: %d frames differ from the %d rows packed", tc.sql, len(rec.frames), len(want.Rows))
		}
		if tc.spilled && (spillRuns == "" || spillRuns == "0") {
			t.Fatalf("%s: spill_runs=%q, want a spilled sort", tc.sql, spillRuns)
		}
	}

	// A transactional read.
	resp := s.Handle(ctx, &comm.Request{Op: comm.OpBegin})
	if resp.AsError() != nil {
		t.Fatal(resp.AsError())
	}
	const txSQL = `SELECT name, id FROM I WHERE id < 900 ORDER BY name, id DESC`
	want, _, err := fed.QueryMetered(ctx, txSQL, fed.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	rec := &frameRecorder{}
	err = s.HandleStream(ctx, &comm.Request{Op: comm.OpQuery, TxnID: resp.TxnID, SQL: txSQL}, rec)
	rec.end(err)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rec.frames) != fmt.Sprint(pack(want.Rows)) {
		t.Fatalf("transactional read: %d frames differ from the %d rows packed", len(rec.frames), len(want.Rows))
	}
	if resp := s.Handle(ctx, &comm.Request{Op: comm.OpAbort, TxnID: resp.TxnID}); resp.AsError() != nil {
		t.Fatal(resp.AsError())
	}
	assertNoRunFiles(t, dir)
}

// stopCtx is a context that a test ends by hand with DeadlineExceeded.
type stopCtx struct {
	context.Context
	done chan struct{}
}

func (c *stopCtx) Done() <-chan struct{} { return c.done }

func (c *stopCtx) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// TestHandleStreamErrorMidMerge: a query whose deadline passes once the
// first frame of a spilled ORDER BY is out ends with the trailer a drain
// of its rows gives — the same kind and text — after exactly that frame,
// and leaves no run file.
func TestHandleStreamErrorMidMerge(t *testing.T) {
	s, fed, dir := spillServer(t, 700)
	const sql = `SELECT id, price, name FROM I ORDER BY price DESC`

	// The row path: drain one frame's rows, end the context, pull again.
	ctx := &stopCtx{Context: context.Background(), done: make(chan struct{})}
	rows, _, err := fed.QueryStreamMetered(ctx, sql, fed.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	var first []schema.Row
	for len(first) < comm.DefaultBatchRows {
		r, err := rows.Next(ctx)
		if err != nil || r == nil {
			t.Fatalf("row %d: %v", len(first), err)
		}
		first = append(first, r)
	}
	close(ctx.done)
	_, rowErr := rows.Next(ctx)
	rows.Close()
	if rowErr == nil {
		t.Fatal("the row path outlived its context")
	}
	wantErr := streamErr(rowErr)

	ctx = &stopCtx{Context: context.Background(), done: make(chan struct{})}
	rec := &frameRecorder{afterFirst: func() { close(ctx.done) }}
	err = s.HandleStream(ctx, &comm.Request{Op: comm.OpQuery, SQL: sql}, rec)
	rec.end(err)
	var ke *comm.KindError
	if !errors.As(err, &ke) || ke.Kind != comm.ErrTimeout || ke.Kind != wantErr.(*comm.KindError).Kind ||
		err.Error() != wantErr.Error() {
		t.Fatalf("trailer error %v, want %v (kind %v)", err, wantErr, wantErr.(*comm.KindError).Kind)
	}
	if fmt.Sprint(rec.frames) != fmt.Sprint(pack(first)) {
		t.Fatalf("%d frames out, want the first frame only", len(rec.frames))
	}
	assertNoRunFiles(t, dir)
}

func assertNoRunFiles(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d spill files left in %s", len(ents), dir)
	}
}
