package gateway

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"myriad/internal/comm"
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
// comm.DefaultBatchRows as the server's frame writer does. It keeps
// every full frame; end keeps the partial last one of a clean stream,
// and drops it after a handler error, which supersedes it on the wire.
type frameRecorder struct {
	cols    []string
	frames  []frame
	payload []byte
	pending int
}

func (r *frameRecorder) Header(cols []string) error { r.cols = cols; return nil }
func (r *frameRecorder) Batch(int, []byte) error    { return errors.New("frameRecorder: Batch") }

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
	r.payload, r.pending = r.payload[:0], 0
}

func (r *frameRecorder) end(err error) {
	if err == nil && r.pending > 0 {
		r.cut()
	}
}

// pack is the frames the row path sends: value.AppendRow of each row,
// comm.DefaultBatchRows rows a frame.
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

// kindsGateway serves t(id, f, s, b, n) with n rows as export E: every
// kind, NULLs, -0.0, NaN and TEXT holding 0x1f.
func kindsGateway(t *testing.T, n int) (*Gateway, *localdb.DB) {
	t.Helper()
	db := localdb.New("kinds")
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, f FLOAT, s TEXT, b BOOLEAN, n INTEGER)`)
	fs := []value.Value{value.NewFloat(math.Copysign(0, -1)), value.NewFloat(math.NaN()), value.NewFloat(2.5), value.Null()}
	ss := []value.Value{value.NewText("x\x1fy"), value.NewText(""), value.Null()}
	bs := []value.Value{value.NewBool(true), value.NewBool(false), value.Null()}
	rows := make([]schema.Row, n)
	for i := range rows {
		nv := value.Null()
		if i%5 != 0 {
			nv = value.NewInt(int64(-i))
		}
		rows[i] = schema.Row{value.NewInt(int64(i)), fs[i%len(fs)], ss[i%len(ss)], bs[i%len(bs)], nv}
	}
	if err := db.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	g := New("kinds", db, nil)
	if err := g.DefineExport(Export{Name: "E", LocalTable: "t"}); err != nil {
		t.Fatal(err)
	}
	return g, db
}

// record runs sql through HandleStream into a frameRecorder.
func record(g *Gateway, txn uint64, sql string) (*frameRecorder, error) {
	rec := &frameRecorder{}
	err := g.HandleStream(context.Background(), &comm.Request{Op: comm.OpQuery, TxnID: txn, SQL: sql}, rec)
	rec.end(err)
	return rec, err
}

// TestHandleStreamFramesMatchRowPath: the frames HandleStream writes —
// a plain scan's encoded straight from the heap, any other statement's
// and a transactional read's row by row — are value.AppendRow over
// db.Query's rows, packed comm.DefaultBatchRows to a frame.
func TestHandleStreamFramesMatchRowPath(t *testing.T) {
	queries := []string{
		`SELECT * FROM E`,
		`SELECT s, id, s, f FROM E`,
		`SELECT b, n FROM E WHERE id >= 0`,
		`SELECT id FROM E WHERE id < 0`,
		`SELECT f, s FROM E WHERE n < -100 OR b IS NULL`,
		`SELECT id * 2 AS d, s FROM E`,
		`SELECT DISTINCT b FROM E`,
	}
	ctx := context.Background()
	for _, n := range []int{0, 1, 255, 256, 257, 513} {
		g, db := kindsGateway(t, n)
		for _, sql := range queries {
			want, err := db.Query(ctx, strings.Replace(sql, "FROM E", "FROM t", 1))
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			rec, err := record(g, 0, sql)
			if err != nil {
				t.Fatalf("%d rows, %s: %v", n, sql, err)
			}
			if len(rec.cols) != len(want.Columns) {
				t.Fatalf("%s: columns %v, want %v", sql, rec.cols, want.Columns)
			}
			if got, w := rec.frames, pack(want.Rows); fmt.Sprint(got) != fmt.Sprint(w) {
				t.Fatalf("%d rows, %s: %d frames differ from the row path's %d", n, sql, len(got), len(w))
			}
		}
		// A transactional read materializes in its branch and is framed
		// from the result.
		txn, err := g.Begin(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := db.Query(ctx, `SELECT * FROM t`)
		rec, err := record(g, txn, `SELECT * FROM E`)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(rec.frames) != fmt.Sprint(pack(want.Rows)) {
			t.Fatalf("%d rows, transactional read: frames differ from the row path's", n)
		}
		if err := g.Abort(ctx, txn); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHandleStreamPredicateError: a WHERE that divides by zero on one
// row partway into the scan fails the stream with the row path's error
// text, and only the full frames before that row are out. A third of
// the rows fail the WHERE, so frames do not line up with scan batches
// and a frame can fill within the batch that holds the failing row.
func TestHandleStreamPredicateError(t *testing.T) {
	g, db := kindsGateway(t, 600)
	ctx := context.Background()
	for _, bad := range []int{1, 256, 299, 500, 599} {
		sql := fmt.Sprintf(`SELECT id, s FROM E WHERE id %% 3 <> 0 AND 10 / (id - %d) <> 99`, bad)
		_, rowErr := query(ctx, g, 0, sql)
		if rowErr == nil {
			t.Fatalf("%s: row path succeeded", sql)
		}
		rec, err := record(g, 0, sql)
		if err == nil || err.Error() != rowErr.Error() {
			t.Fatalf("%s: error %v, want %v", sql, err, rowErr)
		}
		before, err := db.Query(ctx, fmt.Sprintf(`SELECT id, s FROM t WHERE id %% 3 <> 0 AND id < %d`, bad))
		if err != nil {
			t.Fatal(err)
		}
		full := len(before.Rows) / comm.DefaultBatchRows
		if want := pack(before.Rows)[:full]; fmt.Sprint(rec.frames) != fmt.Sprint(want) {
			t.Fatalf("%s: %d frames out, want the %d full frames before row %d", sql, len(rec.frames), full, bad)
		}
	}
}
