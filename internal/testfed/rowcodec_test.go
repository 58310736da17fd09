package testfed

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"myriad/internal/comm"
	"myriad/internal/schema"
	"myriad/internal/spill"
	"myriad/internal/value"
	"myriad/internal/wal"
)

// codecEdgeRows covers every value kind at its edges, plus a
// zero-column row, in rows of varying width.
func codecEdgeRows() []schema.Row {
	return []schema.Row{
		{value.Null(), value.NewInt(math.MinInt64), value.NewInt(math.MaxInt64), value.NewInt(0)},
		{value.NewFloat(math.NaN()), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1))},
		{value.NewText(""), value.NewText("\xff\xfe\x00 not utf-8"), value.NewText("plain")},
		{value.NewBool(true), value.NewBool(false)},
		{},
		{value.NewFloat(1.5), value.Null(), value.NewText("mixed"), value.NewBool(true), value.NewInt(-7)},
	}
}

// sameRow reports whether got came back from want intact: each value
// Compare-equal (NULL only to NULL) with the same Kind, floats
// bit-identical so NaN and -0.0 survive. A zero-column row must not
// come back nil, which every row stream reads as end of stream.
func sameRow(got, want schema.Row) bool {
	if got == nil || len(got) != len(want) {
		return false
	}
	for i, w := range want {
		g := got[i]
		if g.K != w.K {
			return false
		}
		if c, ok := value.Compare(g, w); ok != !w.IsNull() || c != 0 {
			return false
		}
		if w.K == value.KindFloat && math.Float64bits(g.RawFloat()) != math.Float64bits(w.RawFloat()) {
			return false
		}
	}
	return true
}

func assertSameRows(t *testing.T, layer string, got, want []schema.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows back, want %d", layer, len(got), len(want))
	}
	for i := range want {
		if !sameRow(got[i], want[i]) {
			t.Fatalf("%s: row %d came back as %#v, want %#v", layer, i, got[i], want[i])
		}
	}
}

// edgeStreamer serves every Stream=true request with rows.
type edgeStreamer struct{ rows []schema.Row }

func (h edgeStreamer) Handle(context.Context, *comm.Request) *comm.Response {
	return &comm.Response{}
}

func (h edgeStreamer) HandleStream(_ context.Context, _ *comm.Request, sink comm.RowSink) error {
	if err := sink.Header([]string{"v"}); err != nil {
		return err
	}
	rows := h.rows
	for len(rows) > 0 {
		n, err := sink.Fill(func(p []byte, room int) ([]byte, int, error) {
			k := min(room, len(rows))
			for _, r := range rows[:k] {
				p = value.AppendRow(p, r)
			}
			return p, k, nil
		})
		if err != nil {
			return err
		}
		rows = rows[n:]
	}
	return nil
}

// TestRowCodecAcrossLayers sends the same edge-case rows through all
// three places rows leave memory — a comm stream over TCP, a spill run
// under a forced 4 KB budget, and a WAL record — and requires each to
// come back unchanged.
func TestRowCodecAcrossLayers(t *testing.T) {
	var rows []schema.Row
	for i := 0; i < 100; i++ { // enough bytes to overflow the spill budget
		rows = append(rows, codecEdgeRows()...)
	}

	t.Run("comm", func(t *testing.T) {
		srv := comm.NewServer(edgeStreamer{rows: rows})
		srv.BatchRows = 7 // rows straddle many batch frames
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cl := comm.Dial(addr, 1)
		defer cl.Close()
		st, err := cl.DoStream(context.Background(), &comm.Request{Op: comm.OpQuery})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var got []schema.Row
		for {
			r, err := st.Next()
			if err != nil {
				t.Fatal(err)
			}
			if r == nil {
				break
			}
			got = append(got, r)
		}
		assertSameRows(t, "comm stream", got, rows)
	})

	t.Run("spill", func(t *testing.T) {
		// Every row ties, so the stable sort returns arrival order.
		s := spill.NewSorterFunc(spill.NewBudget(4096, t.TempDir()), func(a, b schema.Row) int { return 0 })
		for _, r := range rows {
			if err := s.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		it, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		if !it.Spilled() {
			t.Fatal("sort stayed in memory; the run path went untested")
		}
		var got []schema.Row
		for {
			r, err := it.Next(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if r == nil {
				break
			}
			got = append(got, r)
		}
		assertSameRows(t, "spill run", got, rows)
	})

	t.Run("wal", func(t *testing.T) {
		edge := codecEdgeRows()
		rec := &wal.Record{Kind: wal.RecCommit}
		for i, r := range edge {
			rec.Ops = append(rec.Ops, wal.Op{Kind: wal.OpInsert, Table: "t", Row: int64(i), Vals: r})
		}
		path := filepath.Join(t.TempDir(), "wal.log")
		l, err := wal.Open(path, wal.Options{Sync: wal.SyncAlways}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var got []schema.Row
		l, err = wal.Open(path, wal.Options{Sync: wal.SyncAlways}, func(r *wal.Record) error {
			for _, op := range r.Ops {
				got = append(got, op.Vals)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		assertSameRows(t, "wal record", got, edge)
	})
}
