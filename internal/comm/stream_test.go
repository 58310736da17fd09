package comm

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"myriad/internal/schema"
	"myriad/internal/value"
)

// streamHandler serves OpQuery as a row stream. SQL encodes the script:
// "rows:N" emits N rows, "rows:N:err" fails after N rows, "rows:N:slow"
// sleeps between rows until the context dies, "rows:N:timeout" fails
// after N rows with a timeout-kind error, and "rows:N:batches" sends the
// N rows already encoded, DefaultBatchRows to a Batch. Any other
// streamed request is refused; plain requests go to the echo handler.
type streamHandler struct {
	echoHandler
	started  atomic.Int64
	finished atomic.Int64
}

func (h *streamHandler) HandleStream(ctx context.Context, req *Request, sink RowSink) error {
	if req.Op != OpQuery || !strings.HasPrefix(req.SQL, "rows:") {
		return fmt.Errorf("streamHandler: refusing %q", req.SQL)
	}
	h.started.Add(1)
	defer h.finished.Add(1)
	parts := strings.Split(req.SQL, ":")
	n, _ := strconv.Atoi(parts[1])
	mode := ""
	if len(parts) > 2 {
		mode = parts[2]
	}
	if err := sink.Header([]string{"i", "label"}); err != nil {
		return err
	}
	row := func(i int) schema.Row {
		return schema.Row{value.NewInt(int64(i)), value.NewText(fmt.Sprintf("row-%d", i))}
	}
	switch mode {
	case "batches":
		for i := 0; i < n; i += DefaultBatchRows {
			var payload []byte
			k := min(DefaultBatchRows, n-i)
			for j := i; j < i+k; j++ {
				payload = value.AppendRow(payload, row(j))
			}
			if err := sink.Batch(k, payload); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if mode == "slow" && i > 0 {
			select {
			case <-time.After(5 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err := fillRows(sink, []schema.Row{row(i)}, 1); err != nil {
			return err
		}
	}
	switch mode {
	case "err":
		return errors.New("synthetic mid-stream failure")
	case "timeout":
		return &KindError{Kind: ErrTimeout, Err: errors.New("synthetic timeout")}
	}
	return nil
}

// fillRows sends rows through sink.Fill, at most chunk rows a call.
func fillRows(sink RowSink, rows []schema.Row, chunk int) error {
	for len(rows) > 0 {
		n, err := sink.Fill(func(p []byte, room int) ([]byte, int, error) {
			k := min(room, chunk, len(rows))
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

func startStreamServer(t *testing.T) (string, *streamHandler) {
	t.Helper()
	h := &streamHandler{}
	srv := NewServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	return addr, h
}

func drainStream(t *testing.T, st *Stream) []schema.Row {
	t.Helper()
	var rows []schema.Row
	for {
		r, err := st.Next()
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		if r == nil {
			return rows
		}
		rows = append(rows, r)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	addr, _ := startStreamServer(t)
	c := Dial(addr, 1)
	defer c.Close()
	ctx := context.Background()

	const n = 1000 // spans several 256-row batches
	st, err := c.DoStream(ctx, &Request{Op: OpQuery, SQL: fmt.Sprintf("rows:%d", n)})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Columns(); len(got) != 2 || got[0] != "i" {
		t.Fatalf("bad header: %v", got)
	}
	rows := drainStream(t, st)
	if len(rows) != n {
		t.Fatalf("got %d rows, want %d", len(rows), n)
	}
	for i, r := range rows {
		if v, _ := r[0].Int(); v != int64(i) {
			t.Fatalf("row %d out of order: %s", i, r[0])
		}
	}
	if st.RowCount() != n {
		t.Fatalf("trailer count %d, want %d", st.RowCount(), n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Fully consumed stream: the (single) pooled conn must be reusable.
	if _, err := c.Do(ctx, &Request{Op: OpPing}); err != nil {
		t.Fatalf("conn not reusable after drained stream: %v", err)
	}
}

// TestEarlyCloseDoesNotPoisonPool is the connection-pool regression: a
// half-consumed stream's conn has batches in flight and must NOT be
// returned to the (size-1) pool, or the next request would read stale
// frames.
func TestEarlyCloseDoesNotPoisonPool(t *testing.T) {
	addr, _ := startStreamServer(t)
	c := Dial(addr, 1)
	defer c.Close()
	ctx := context.Background()

	st, err := c.DoStream(ctx, &Request{Op: OpQuery, SQL: "rows:100000"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The next requests on the same pool must see clean exchanges.
	for i := 0; i < 3; i++ {
		resp, err := c.Do(ctx, &Request{Op: OpQuery, SQL: "hello"})
		if err != nil {
			t.Fatalf("request %d after early close: %v", i, err)
		}
		if len(resp.Rows.Rows) != 1 || resp.Rows.Rows[0][0].Text() != "hello" {
			t.Fatalf("request %d got a stale/foreign response: %+v", i, resp.Rows)
		}
	}
}

func TestStreamServerErrorMidStream(t *testing.T) {
	addr, _ := startStreamServer(t)
	c := Dial(addr, 1)
	defer c.Close()
	ctx := context.Background()

	st, err := c.DoStream(ctx, &Request{Op: OpQuery, SQL: "rows:700:err"})
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	var serr error
	for {
		r, err := st.Next()
		if err != nil {
			serr = err
			break
		}
		if r == nil {
			break
		}
		rows++
	}
	if serr == nil || !strings.Contains(serr.Error(), "synthetic mid-stream failure") {
		t.Fatalf("want synthetic failure after %d rows, got %v", rows, serr)
	}
	// Error arrived in the trailer: the frame sequence is complete and
	// the conn stays clean.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(ctx, &Request{Op: OpPing}); err != nil {
		t.Fatalf("conn not reusable after trailer error: %v", err)
	}
}

func TestStreamTimeoutKindSurvivesTrailer(t *testing.T) {
	addr, _ := startStreamServer(t)
	c := Dial(addr, 1)
	defer c.Close()

	st, err := c.DoStream(context.Background(), &Request{Op: OpQuery, SQL: "rows:5:timeout"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var serr error
	for {
		r, nerr := st.Next()
		if nerr != nil {
			serr = nerr
			break
		}
		if r == nil {
			break
		}
	}
	if !errors.Is(serr, TimeoutError) {
		t.Fatalf("timeout kind lost across the trailer: %v", serr)
	}
}

func TestStreamContextCancellation(t *testing.T) {
	addr, _ := startStreamServer(t)
	c := Dial(addr, 1)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	st, err := c.DoStream(ctx, &Request{Op: OpQuery, SQL: "rows:100000:slow"})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	var serr error
	for {
		r, nerr := st.Next()
		if nerr != nil {
			serr = nerr
			break
		}
		if r == nil {
			break
		}
	}
	if serr == nil {
		t.Fatal("cancelled stream completed successfully")
	}
	if since := time.Since(start); since > 5*time.Second {
		t.Fatalf("cancellation took %v to unblock Next", since)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The conn was abandoned mid-stream; the pool must recover with a
	// fresh one.
	if _, err := c.Do(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatalf("pool did not recover after cancelled stream: %v", err)
	}
}

// TestStreamRefusedOpErrorsCleanly: a streamed request the handler does
// not stream — no HandleStream at all, or an op HandleStream refuses —
// comes back as an error out of DoStream, and the same pooled
// connection then serves a plain request.
func TestStreamRefusedOpErrorsCleanly(t *testing.T) {
	plainAddr, _ := startServer(t) // echoHandler only: no StreamHandler
	streamAddr, _ := startStreamServer(t)
	for _, tc := range []struct {
		name, addr, sql, want string
	}{
		{"plain handler", plainAddr, "framed", "does not stream"},
		{"refused op", streamAddr, "framed", "refusing"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := Dial(tc.addr, 1)
			defer c.Close()
			ctx := context.Background()
			st, err := c.DoStream(ctx, &Request{Op: OpQuery, SQL: tc.sql})
			if err == nil {
				st.Close()
				t.Fatal("unstreamed request answered with a stream")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("wrong error: %v", err)
			}
			if _, err := c.Do(ctx, &Request{Op: OpPing}); err != nil {
				t.Fatalf("conn not reusable after refused stream: %v", err)
			}
			if n := len(c.all); n != 1 {
				t.Fatalf("client dialed %d connections; the refused stream broke its conn", n)
			}
		})
	}
}

// TestStreamWriteTimeoutFreesServer covers the wedged-client hazard: a
// client that opens a stream and then stops reading (without closing)
// fills the socket buffers and blocks the server's frame writes. The
// per-frame write deadline must fail the write so the handler returns
// (releasing whatever scan locks it held) even though the connection
// is still open.
func TestStreamWriteTimeoutFreesServer(t *testing.T) {
	h := &streamHandler{}
	srv := NewServer(h)
	srv.StreamWriteTimeout = 300 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	c := Dial(addr, 1)
	defer c.Close()

	st, err := c.DoStream(context.Background(), &Request{Op: OpQuery, SQL: "rows:10000000"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	// Read nothing more; keep the conn open. The handler must still
	// finish once the write deadline trips.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if h.finished.Load() == h.started.Load() && h.started.Load() > 0 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("server handler still blocked on a wedged client (%d started, %d finished)",
		h.started.Load(), h.finished.Load())
}

// TestStreamTeardownReleasesServer verifies the server-side half of a
// client half-close: once the client abandons a big stream, the
// server's handler must get a write error and return instead of
// producing forever.
func TestStreamTeardownReleasesServer(t *testing.T) {
	addr, h := startStreamServer(t)
	c := Dial(addr, 1)

	st, err := c.DoStream(context.Background(), &Request{Op: OpQuery, SQL: "rows:10000000"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	st.Close() // half-close: conn destroyed with ~10M rows unsent
	c.Close()

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if h.finished.Load() == h.started.Load() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("server handler still producing after client half-close (%d started, %d finished)",
		h.started.Load(), h.finished.Load())
}

// TestMalformedBatchBreaksConn serves a batch whose payload does not
// hold the rows it claims: Next must return a ProtocolError (wrapping
// the codec's ErrCorrupt) rather than panic or yield rows, and the conn
// — its trailer never consumed — must not return to the pool.
func TestMalformedBatchBreaksConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func() {
				defer conn.Close()
				w := newWire(conn)
				for {
					if _, err := w.readMessage(); err != nil {
						return
					}
					if writeFrames(conn,
						&Frame{Kind: FrameHeader, Columns: []string{"i"}},
						&Frame{Kind: FrameBatch, N: 3, Payload: []byte{1, 1}}, // one truncated row
						&Frame{Kind: FrameTrailer, Count: 3},
					) != nil {
						return
					}
				}
			}()
		}
	}()

	c := Dial(ln.Addr().String(), 1)
	defer c.Close()
	// Streams 1 and 2 are read by rows, 3 and 4 by batches: NextBatch
	// checks a batch exactly as Next does, with the same failure.
	for i := 1; i <= 4; i++ {
		st, err := c.DoStream(context.Background(), &Request{Op: OpQuery, Stream: true})
		if err != nil {
			t.Fatal(err)
		}
		var rows bool
		if i <= 2 {
			r, rerr := st.Next()
			rows, err = r != nil, rerr
		} else {
			b, berr := st.NextBatch()
			rows, err = b.N != 0, berr
		}
		if !errors.Is(err, ProtocolError) || !errors.Is(err, value.ErrCorrupt) || rows {
			t.Fatalf("stream %d: rows %v, err %v; want a ProtocolError and no rows", i, rows, err)
		}
		st.Close()
		if got := accepted.Load(); got != int64(i) {
			t.Fatalf("stream %d ran on conn %d: a conn that saw a malformed batch was reused", i, got)
		}
	}
}
