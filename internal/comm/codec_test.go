package comm

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"sync/atomic"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/storage"
	"myriad/internal/value"
)

// TestEnvelopeRoundTrip is the codec's property test: seeded random
// Requests, Responses and Frames — every exported field filled by
// reflection, so a field added later without a codec change fails
// here — survive encode → frame → read → decode exactly, nil and empty
// slices kept apart and float values compared by their bits.
func TestEnvelopeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		var req Request
		var resp Response
		var frame Frame
		fill(t, rng, reflect.ValueOf(&req).Elem())
		fill(t, rng, reflect.ValueOf(&resp).Elem())
		fill(t, rng, reflect.ValueOf(&frame).Elem())
		frame.Kind = FrameKind(1 + i%3) // every frame kind in turn

		var buf bytes.Buffer
		w := newWire(bufConn{buf: &buf})
		for _, appendBody := range []func([]byte) []byte{
			func(b []byte) []byte { return appendRequest(b, &req) },
			func(b []byte) []byte { return appendResponse(b, &resp) },
			func(b []byte) []byte { return appendFrame(b, &frame) },
		} {
			start := w.beginMessage()
			w.out = appendBody(w.out)
			if err := w.endMessage(start); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.flush(); err != nil {
			t.Fatal(err)
		}

		var gotReq Request
		var gotResp Response
		var gotFrame Frame
		for _, decode := range []func([]byte) error{
			func(b []byte) error { return decodeRequest(b, &gotReq) },
			func(b []byte) error { return decodeResponse(b, &gotResp) },
			func(b []byte) error { return decodeFrame(b, &gotFrame) },
		} {
			body, err := w.readMessage()
			if err != nil {
				t.Fatalf("case %d: read: %v", i, err)
			}
			if err := decode(body); err != nil {
				t.Fatalf("case %d: decode: %v", i, err)
			}
		}
		// The payload aliases the read buffer; keep it past the next read.
		gotFrame.Payload = bytes.Clone(gotFrame.Payload)
		if _, err := w.readMessage(); err != io.EOF {
			t.Fatalf("case %d: after the last message: %v, want io.EOF", i, err)
		}
		for _, c := range []struct{ got, want any }{{gotReq, req}, {gotResp, resp}, {gotFrame, frame}} {
			if !sameValue(reflect.ValueOf(c.got), reflect.ValueOf(c.want)) {
				t.Fatalf("case %d: round trip changed a %T:\n got  %+v\n want %+v", i, c.want, c.got, c.want)
			}
		}
	}
}

// fill sets every exported field reachable from v to seeded random
// content: pointers and slices nil, empty or populated, strings with
// arbitrary bytes, values of every kind (NaN floats included). A kind
// it does not know fails the test, so the codec cannot silently skip a
// new field type.
func fill(t *testing.T, rng *rand.Rand, v reflect.Value) {
	t.Helper()
	if v.Type() == reflect.TypeOf(value.Value{}) {
		v.Set(reflect.ValueOf(randomValue(rng)))
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, rng, v.Field(i))
			}
		}
	case reflect.Pointer:
		if rng.Intn(4) == 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, rng, v.Elem())
	case reflect.Slice:
		// A row (a slice of values) is never nil on the wire: the row
		// codec has no nil form.
		row := v.Type().Elem() == reflect.TypeOf(value.Value{})
		switch k := rng.Intn(4); {
		case k == 0 && !row:
			v.SetZero()
		default:
			n := 0
			if k > 1 {
				n = 1 + rng.Intn(3)
			}
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fill(t, rng, v.Index(i))
			}
		}
	case reflect.String:
		b := make([]byte, rng.Intn(12))
		rng.Read(b) //nolint:errcheck // math/rand's Read never fails
		v.SetString(string(b))
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int64:
		v.SetInt(rng.Int63() - rng.Int63())
	case reflect.Uint8:
		v.SetUint(uint64(rng.Intn(256)))
	case reflect.Uint64:
		v.SetUint(rng.Uint64())
	default:
		t.Fatalf("fill: no generator for %s (%s): extend the codec and this test", v.Type(), v.Kind())
	}
}

func randomValue(rng *rand.Rand) value.Value {
	switch rng.Intn(6) {
	case 0:
		return value.Null()
	case 1:
		return value.NewInt(rng.Int63() - rng.Int63())
	case 2:
		return value.NewFloat(math.NaN())
	case 3:
		return value.NewFloat(math.Float64frombits(rng.Uint64()))
	case 4:
		b := make([]byte, rng.Intn(10))
		rng.Read(b) //nolint:errcheck // math/rand's Read never fails
		return value.NewText(string(b))
	default:
		return value.NewBool(rng.Intn(2) == 0)
	}
}

// sameValue is reflect.DeepEqual with floats compared by their bits,
// so NaN equals itself and -0.0 differs from 0.0.
func sameValue(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// FuzzDecodeMessage feeds arbitrary bytes to every envelope decoder,
// both as a message body and as a connection's input stream: nothing
// panics, and every failure is a ProtocolError (a clean end of input
// between messages is io.EOF).
func FuzzDecodeMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendRequest(nil, &Request{Op: OpQuery, SQL: "SELECT 1", Stream: true, TimeoutMs: -1}))
	f.Add(appendResponse(nil, &Response{
		Rows:    &schema.ResultSet{Columns: []string{"a"}, Rows: []schema.Row{{value.NewText("x")}}},
		Schemas: []*schema.Schema{{Table: "t", Columns: []schema.Column{{Name: "a"}}}, nil},
		Stats:   &storage.TableStats{Table: "t", Columns: []storage.ColumnStats{{Name: "a", Max: value.NewInt(3)}}},
		Waits:   []WaitEdge{{Waiter: 1, Holders: []uint64{2}}},
	}))
	f.Add(appendFrame(nil, &Frame{Kind: FrameBatch, N: 1, Payload: value.AppendRow(nil, []value.Value{value.NewInt(1)})}))
	var framed bytes.Buffer
	if err := writeFrames(bufConn{buf: &framed}, &Frame{Kind: FrameHeader, Columns: []string{"c"}}, &Frame{Kind: FrameTrailer}); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes())
	// A length prefix one byte over the cap, and one too long to read.
	f.Add(binary.AppendUvarint(nil, maxMessageBytes+1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeAll := func(what string, body []byte) {
			for name, err := range map[string]error{
				"request":  decodeRequest(body, &Request{}),
				"response": decodeResponse(body, &Response{}),
				"frame":    decodeFrame(body, &Frame{}),
			} {
				if err != nil && !errors.Is(err, ProtocolError) {
					t.Fatalf("%s as a %s: %v is not a ProtocolError", what, name, err)
				}
			}
		}
		decodeAll("raw bytes", data)
		w := newWire(bufConn{buf: bytes.NewBuffer(data)})
		for {
			body, err := w.readMessage()
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ProtocolError) {
					t.Fatalf("reading a message: %v is not a ProtocolError", err)
				}
				return
			}
			decodeAll("a framed body", body)
		}
	})
}

// TestOversizeMessage: a declared length over the cap fails as a
// ProtocolError before any body is read, and a sender refuses to
// buffer a body over the cap.
func TestOversizeMessage(t *testing.T) {
	in := append(binary.AppendUvarint(nil, maxMessageBytes+1), 0)
	w := newWire(bufConn{buf: bytes.NewBuffer(in)})
	if _, err := w.readMessage(); !errors.Is(err, ProtocolError) {
		t.Fatalf("oversize length prefix: %v, want a ProtocolError", err)
	}
	if cap(w.in) != 0 {
		t.Fatalf("an oversize claim allocated %d bytes", cap(w.in))
	}

	// A claim under the cap whose bytes never arrive allocates only
	// about what did arrive.
	in = append(binary.AppendUvarint(nil, maxMessageBytes-1), make([]byte, 100)...)
	w = newWire(bufConn{buf: bytes.NewBuffer(in)})
	if _, err := w.readMessage(); !errors.Is(err, ProtocolError) {
		t.Fatalf("truncated message: %v, want a ProtocolError", err)
	}
	if cap(w.in) > 2*readBufBytes {
		t.Fatalf("a 100-byte truncated message allocated %d bytes", cap(w.in))
	}

	var out bytes.Buffer
	w = newWire(bufConn{buf: &out})
	start := w.beginMessage()
	w.out = appendString(w.out, string(make([]byte, maxMessageBytes)))
	if err := w.endMessage(start); err == nil {
		t.Fatal("a body over the cap was accepted for sending")
	}
	if len(w.out) != 0 {
		t.Fatalf("%d bytes of a refused message stay buffered", len(w.out))
	}
}

// countingConn counts Write calls: each is one socket write.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: l.writes}, nil
}

// TestSocketWritesPerExchange pins the flush points: a Do round trip is
// one write each way; a stream of at most BatchRows rows is one server
// write (header, batch and trailer together); a longer stream adds one
// write per further batch, the trailer riding with the last.
func TestSocketWritesPerExchange(t *testing.T) {
	var serverWrites, clientWrites atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(&streamHandler{})
	srv.start(countingListener{Listener: ln, writes: &serverWrites})
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck

	c := Dial(ln.Addr().String(), 1)
	defer c.Close()
	<-c.pool // take the lazy slot and fill it with a counted conn
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := newWire(countingConn{Conn: conn, writes: &clientWrites})
	c.all = append(c.all, cc)
	c.pool <- cc

	ctx := context.Background()
	writes := func(exchange func()) (client, server int64) {
		c0, s0 := clientWrites.Load(), serverWrites.Load()
		exchange()
		return clientWrites.Load() - c0, serverWrites.Load() - s0
	}
	if cw, sw := writes(func() {
		if _, err := c.Do(ctx, &Request{Op: OpPing}); err != nil {
			t.Fatal(err)
		}
	}); cw != 1 || sw != 1 {
		t.Fatalf("Do: %d client and %d server writes, want 1 and 1", cw, sw)
	}
	// Rows packed by Fill and rows handed over as encoded batches flush
	// alike: a batch waits for the next one or the trailer.
	for _, mode := range []string{"", ":batches"} {
		for _, tc := range []struct{ rows, serverWrites int }{
			{0, 1},
			{1, 1},
			{DefaultBatchRows, 1},
			{DefaultBatchRows + 1, 2},
			{3*DefaultBatchRows + 1, 4},
		} {
			cw, sw := writes(func() {
				st, err := c.DoStream(ctx, &Request{Op: OpQuery, SQL: fmt.Sprintf("rows:%d%s", tc.rows, mode)})
				if err != nil {
					t.Fatal(err)
				}
				if got := len(drainStream(t, st)); got != tc.rows || st.RowCount() != tc.rows {
					t.Fatalf("%d rows, trailer count %d, want %d", got, st.RowCount(), tc.rows)
				}
				st.Close()
			})
			if cw != 1 || sw != int64(tc.serverWrites) {
				t.Fatalf("stream of %d rows%s: %d client and %d server writes, want 1 and %d",
					tc.rows, mode, cw, sw, tc.serverWrites)
			}
		}
	}
}

// TestFillFramesPackRows: rows a handler encodes into the pending
// frame with Fill, in chunks of any size, go out as value.AppendRow's
// bytes packed DefaultBatchRows to a frame — an error trailer drops the
// partial last batch — and in one socket write per full batch a further
// row follows, plus one: with a clean end and with an error trailer,
// whether the error comes after the last chunk or with it.
func TestFillFramesPackRows(t *testing.T) {
	cols := []string{"i", "label"}
	row := func(i int) schema.Row {
		return schema.Row{value.NewInt(int64(i)), value.NewText(fmt.Sprintf("row-%d", i))}
	}
	boom := errors.New("boom")
	for _, n := range []int{0, 1, 255, 256, 257, 513} {
		for _, herr := range []error{nil, boom} {
			frames := []*Frame{{Kind: FrameHeader, Columns: cols}}
			count := 0
			for i := 0; i < n; i += DefaultBatchRows {
				k := min(DefaultBatchRows, n-i)
				if k < DefaultBatchRows && herr != nil {
					break
				}
				var p []byte
				for j := i; j < i+k; j++ {
					p = value.AppendRow(p, row(j))
				}
				frames = append(frames, &Frame{Kind: FrameBatch, N: k, Payload: p})
				count += k
			}
			trailer := &Frame{Kind: FrameTrailer, Count: count}
			if herr != nil {
				trailer.Err, trailer.ErrKind = herr.Error(), kindOf(herr)
			}
			var want bytes.Buffer
			if err := writeFrames(bufConn{buf: &want}, append(frames, trailer)...); err != nil {
				t.Fatal(err)
			}
			wantWrites := 1 + max(n-1, 0)/DefaultBatchRows
			for _, chunk := range []int{1, 7, DefaultBatchRows} {
				for _, errWithRows := range []bool{false, true} {
					var buf bytes.Buffer
					var writes atomic.Int64
					w := newFrameWriter(newWire(countingConn{Conn: bufConn{buf: &buf}, writes: &writes}), DefaultBatchRows)
					if err := w.Header(cols); err != nil {
						t.Fatal(err)
					}
					next := 0
					var herrOut error
					for {
						k, err := w.Fill(func(p []byte, room int) ([]byte, int, error) {
							k := min(room, chunk, n-next)
							for j := next; j < next+k; j++ {
								p = value.AppendRow(p, row(j))
							}
							next += k
							if next == n && (k == 0 || errWithRows) {
								return p, k, herr
							}
							return p, k, nil
						})
						if err != nil || k == 0 {
							herrOut = err
							break
						}
					}
					if err := w.finish(herrOut); err != nil {
						t.Fatal(err)
					}
					if buf.String() != want.String() || writes.Load() != int64(wantWrites) {
						t.Fatalf("%d rows, error %v, chunks of %d (error with rows %v): %d bytes in %d writes, want %d in %d",
							n, herr, chunk, errWithRows, buf.Len(), writes.Load(), want.Len(), wantWrites)
					}
				}
			}
		}
	}
}
