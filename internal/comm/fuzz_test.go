package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/value"
)

// FuzzBatchFraming drives the real data path end to end: a
// fuzzer-shaped result (header, rows of every value kind and width,
// optional error trailer) goes through frameWriter, the envelope codec
// and Stream.Next, and must come back identical — the framing
// invariant every streaming query rides on. The same input is then
// replayed as a raw batch frame whose payload is the fuzz bytes
// themselves: the client must reject it as a ProtocolError or decode
// exactly the claimed rows, and never panic.
func FuzzBatchFraming(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte("the quick brown fox"))
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x7f}, 40))
	f.Add(value.AppendRow([]byte{3, 1}, []value.Value{value.NewText("\xff"), value.NewFloat(math.NaN())}))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		ncols := int(r.next() % 5)
		cols := make([]string, ncols)
		for i := range cols {
			cols[i] = fmt.Sprintf("c%d_%d", i, r.next())
		}
		batchRows := 1 + int(r.next()%8)
		chunk := 1 + int(r.next()%10)
		rows := make([]schema.Row, int(r.next()%40))
		for i := range rows {
			rows[i] = make(schema.Row, ncols)
			for c := range rows[i] {
				rows[i][c] = fuzzValue(r)
			}
		}
		var herr error
		if r.next()%3 == 0 {
			herr = errors.New("boom: " + string(r.take(int(r.next()%32))))
			if r.next()%2 == 0 {
				herr = &KindError{Kind: ErrTimeout, Err: herr}
			}
		}

		var buf bytes.Buffer
		w := newFrameWriter(newWire(bufConn{buf: &buf}), batchRows)
		if err := w.Header(cols); err != nil {
			t.Fatal(err)
		}
		if err := fillRows(w, rows, chunk); err != nil {
			t.Fatal(err)
		}
		if err := w.finish(herr); err != nil {
			t.Fatal(err)
		}

		st := bufferStream(&buf)
		if err := st.readHeader(); err != nil {
			t.Fatalf("header: %v", err)
		}
		if fmt.Sprint(st.Columns()) != fmt.Sprint(cols) {
			t.Fatalf("columns %q, want %q", st.Columns(), cols)
		}
		// An error trailer supersedes the unflushed partial batch.
		want := rows
		if herr != nil {
			want = rows[:len(rows)/batchRows*batchRows]
		}
		got, err := drain(st)
		if herr == nil && err != nil {
			t.Fatalf("clean stream failed: %v", err)
		}
		if herr != nil && (err == nil || !strings.HasSuffix(err.Error(), herr.Error()) ||
			errors.Is(err, TimeoutError) != (kindOf(herr) == ErrTimeout)) {
			t.Fatalf("trailer error %v, want %v", err, herr)
		}
		assertRowsEqual(t, got, want)
		if st.RowCount() != len(want) {
			t.Fatalf("trailer count %d, want %d", st.RowCount(), len(want))
		}
		if left := buf.Len() + st.cc.r.Buffered(); left != 0 {
			t.Fatalf("%d bytes left after the trailer", left)
		}

		// The fuzz bytes as a raw batch payload, its claimed row count
		// taken from the first byte.
		buf.Reset()
		n := 0
		if len(data) > 0 {
			n = int(data[0]) - 8 // negative counts are corrupt too
		}
		if err := writeFrames(bufConn{buf: &buf},
			&Frame{Kind: FrameHeader, Columns: cols},
			&Frame{Kind: FrameBatch, N: n, Payload: data},
			&Frame{Kind: FrameTrailer, Count: n},
		); err != nil {
			t.Fatal(err)
		}
		st = bufferStream(&buf)
		if err := st.readHeader(); err != nil {
			t.Fatalf("header: %v", err)
		}
		got, err = drain(st)
		if err != nil {
			if !errors.Is(err, ProtocolError) || !errors.Is(err, value.ErrCorrupt) {
				t.Fatalf("malformed payload surfaced as %v, want a ProtocolError", err)
			}
			if st.done {
				t.Fatal("a stream failed on a malformed payload claims a clean conn")
			}
		} else if len(got) != n {
			t.Fatalf("decoded %d rows from a payload claiming %d", len(got), n)
		}
	})
}

// bufConn is a connection whose reads and writes go to an in-memory
// buffer; nothing but Read and Write may be called on it.
type bufConn struct {
	net.Conn
	buf *bytes.Buffer
}

func (c bufConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }
func (c bufConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// bufferStream is a client Stream reading frames from buf instead of a
// pooled connection (nothing that touches the conn may be called).
func bufferStream(buf *bytes.Buffer) *Stream {
	return &Stream{c: &Client{addr: "fuzz"}, cc: newWire(bufConn{buf: buf})}
}

// writeFrames writes frames to conn in one write, as a server would.
func writeFrames(conn net.Conn, frames ...*Frame) error {
	w := newWire(conn)
	for _, f := range frames {
		start := w.beginMessage()
		w.out = appendFrame(w.out, f)
		if err := w.endMessage(start); err != nil {
			return err
		}
	}
	return w.flush()
}

func drain(st *Stream) ([]schema.Row, error) {
	var rows []schema.Row
	for {
		row, err := st.Next()
		if err != nil || row == nil {
			return rows, err
		}
		rows = append(rows, row)
	}
}

// fuzzValue shapes fuzz bytes into a value of any kind, including the
// edge cases: raw float bits (NaN, -0.0, ±Inf) and non-UTF-8 text.
func fuzzValue(r *byteReader) value.Value {
	switch r.next() % 5 {
	case 0:
		return value.Null()
	case 1:
		return value.NewInt(int64(binary.LittleEndian.Uint64(r.take(8))))
	case 2:
		return value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(r.take(8))))
	case 3:
		return value.NewText(string(r.take(int(r.next() % 24))))
	default:
		return value.NewBool(r.next()%2 == 0)
	}
}

// byteReader yields fuzz bytes, zero-padding past the end.
type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *byteReader) take(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = r.next()
	}
	return out
}

// assertRowsEqual requires bit-identical values (floats by their bits,
// so NaN and -0.0 count) and non-nil rows, zero-column ones included.
func assertRowsEqual(t *testing.T, got, want []schema.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] == nil || len(got[i]) != len(want[i]) {
			t.Fatalf("row %d: %v, want %v", i, got[i], want[i])
		}
		for c, w := range want[i] {
			g := got[i][c]
			if g.K != w.K || g.RawInt() != w.RawInt() || g.S != w.S || g.RawBool() != w.RawBool() ||
				math.Float64bits(g.RawFloat()) != math.Float64bits(w.RawFloat()) {
				t.Fatalf("row %d col %d: %#v, want %#v", i, c, g, w)
			}
		}
	}
}
