package comm

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"myriad/internal/schema"
)

// The streaming response protocol: a Request with Stream=true is
// answered not by one Response but by a sequence of gob-encoded Frames
// on the same connection — one header (column names), zero or more row
// batches, and exactly one trailer (error + row count). See PROTOCOL.md
// for the wire contract.

// FrameKind discriminates streaming frames.
type FrameKind uint8

// Streaming frame kinds.
const (
	FrameHeader  FrameKind = 1 // first frame: column names
	FrameBatch   FrameKind = 2 // up to BatchRows rows
	FrameTrailer FrameKind = 3 // last frame: error + total row count
)

// DefaultBatchRows is how many rows a server packs per batch frame when
// no explicit batch size is configured: large enough to amortize gob
// framing, small enough that the first batch flushes quickly and a
// LIMIT 10 never drags hundreds of rows over the wire.
const DefaultBatchRows = 256

// Frame is one message of a streaming response.
type Frame struct {
	Kind    FrameKind
	Columns []string     // header
	Rows    []schema.Row // batch
	Err     string       // trailer
	ErrKind ErrKind      // trailer
	Count   int          // trailer: rows sent in the whole stream
}

// KindError tags an error with the wire ErrKind a streaming trailer
// should carry (handlers use it to report timeouts across the wire).
type KindError struct {
	Kind ErrKind
	Err  error
}

func (e *KindError) Error() string { return e.Err.Error() }

// Unwrap exposes the tagged error to errors.Is/As.
func (e *KindError) Unwrap() error { return e.Err }

// DefaultStreamWriteTimeout bounds how long a streaming response may go
// without write progress: each frame write must complete within it. A slow
// consumer that keeps draining (backpressure) always makes progress; a
// dead or wedged client that stops reading trips the deadline, failing
// the write so the handler tears its scan down and releases locks
// instead of pinning them until the TCP connection dies.
const DefaultStreamWriteTimeout = 2 * time.Minute

// kindOf maps a handler error to the trailer's ErrKind.
func kindOf(err error) ErrKind {
	var ke *KindError
	if errors.As(err, &ke) {
		return ke.Kind
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrTimeout
	}
	return ErrGeneric
}

// RowSink receives a streaming response as it is produced. Header must
// be called exactly once before any Row. Both return an error when the
// client is gone; the handler should stop producing.
type RowSink interface {
	Header(columns []string) error
	Row(row schema.Row) error
}

// StreamHandler is implemented by handlers that can produce a query
// result incrementally. The server writes the trailer itself from the
// returned error (wrap with KindError to control the wire error kind).
// A Stream=true request is only ever answered by HandleStream: against
// a plain Handler, or for an op HandleStream refuses, the client gets
// an error trailer and the connection stays reusable.
type StreamHandler interface {
	Handler
	HandleStream(ctx context.Context, req *Request, sink RowSink) error
}

// ---------------------------------------------------------------------
// Server side: frameWriter drives a gob encoder as a RowSink.

type frameWriter struct {
	enc       encoder
	batchRows int
	// conn and writeTimeout arm a per-frame write deadline: every frame
	// must reach the kernel within writeTimeout or the write fails and
	// the handler tears down (a scan must not hold its locks hostage to
	// a client that stopped reading). Zero conn/timeout disables it.
	conn         net.Conn
	writeTimeout time.Duration

	buf        []schema.Row
	count      int
	headerSent bool
	writeErr   error // transport failure: the conn is dead
}

// encoder is the subset of gob.Encoder the writer needs (swappable in
// tests and the fuzzer).
type encoder interface {
	Encode(v any) error
}

func newFrameWriter(enc encoder, batchRows int) *frameWriter {
	if batchRows <= 0 {
		batchRows = DefaultBatchRows
	}
	return &frameWriter{enc: enc, batchRows: batchRows}
}

// encode writes one frame under the progress deadline.
func (w *frameWriter) encode(f *Frame) error {
	if w.conn != nil && w.writeTimeout > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(w.writeTimeout)) //nolint:errcheck
	}
	return w.enc.Encode(f)
}

func (w *frameWriter) Header(columns []string) error {
	if w.writeErr != nil {
		return w.writeErr
	}
	if w.headerSent {
		return errors.New("comm: stream header sent twice")
	}
	w.headerSent = true
	if err := w.encode(&Frame{Kind: FrameHeader, Columns: columns}); err != nil {
		w.writeErr = err
		return err
	}
	return nil
}

func (w *frameWriter) Row(row schema.Row) error {
	if w.writeErr != nil {
		return w.writeErr
	}
	if !w.headerSent {
		return errors.New("comm: stream row before header")
	}
	w.buf = append(w.buf, row)
	if len(w.buf) >= w.batchRows {
		return w.flush()
	}
	return nil
}

func (w *frameWriter) flush() error {
	if len(w.buf) == 0 {
		return w.writeErr
	}
	frame := &Frame{Kind: FrameBatch, Rows: w.buf}
	err := w.encode(frame)
	if err == nil {
		// Count only what actually went out: an error trailer may
		// supersede a pending batch, and its Count must not include
		// rows that were buffered but never sent.
		w.count += len(w.buf)
	}
	w.buf = w.buf[:0]
	if err != nil {
		w.writeErr = err
	}
	return err
}

// finish flushes pending rows and writes the trailer. A handler error
// supersedes a pending-batch flush error (both mean the same dead conn).
func (w *frameWriter) finish(handlerErr error) error {
	if handlerErr == nil {
		if err := w.flush(); err != nil {
			return err
		}
	}
	t := &Frame{Kind: FrameTrailer, Count: w.count}
	if handlerErr != nil {
		t.Err = handlerErr.Error()
		t.ErrKind = kindOf(handlerErr)
	}
	if err := w.encode(t); err != nil {
		w.writeErr = err
		return err
	}
	return nil
}

// serveStream answers one Stream=true request with a frame sequence.
// It returns false when the connection is no longer usable.
func (s *Server) serveStream(ctx context.Context, req *Request, conn net.Conn, enc encoder) bool {
	w := newFrameWriter(enc, s.BatchRows)
	w.conn = conn
	w.writeTimeout = s.StreamWriteTimeout
	if w.writeTimeout == 0 {
		w.writeTimeout = DefaultStreamWriteTimeout
	}
	if w.writeTimeout < 0 {
		w.writeTimeout = 0 // explicit opt-out
	}
	defer conn.SetWriteDeadline(time.Time{}) //nolint:errcheck // the conn is reused for later exchanges
	var herr error
	if sh, ok := s.handler.(StreamHandler); ok {
		herr = sh.HandleStream(ctx, req, w)
	} else {
		herr = fmt.Errorf("comm: op %q does not stream", req.Op)
	}
	if w.writeErr != nil {
		return false // client is gone; tear the conn down
	}
	return w.finish(herr) == nil
}

// ---------------------------------------------------------------------
// Client side

// Stream is one in-flight streaming response. It owns a pooled
// connection until Close: a fully consumed stream (trailer read)
// returns the connection for reuse; Close before the trailer marks the
// connection broken — a conn with unread frames in flight can never be
// handed to the next request. Not safe for concurrent use.
type Stream struct {
	c  *Client
	cc *clientConn

	cols  []string
	batch []schema.Row
	bpos  int
	count int

	mu       sync.Mutex
	done     bool  // trailer consumed: conn is clean
	err      error // terminal error (trailer error or transport error)
	released bool  // conn handed back (or abandoned) — guards the watcher
	stop     chan struct{}
}

// DoStream sends req with Stream=true and returns the response stream
// after reading its header. The context governs the whole stream: its
// deadline propagates to the server (TimeoutMs) and is enforced on the
// socket; cancelling it aborts the stream and unblocks a pending Next.
func (c *Client) DoStream(ctx context.Context, req *Request) (*Stream, error) {
	req.Stream = true
	if dl, ok := ctx.Deadline(); ok && req.TimeoutMs == 0 {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.TimeoutMs = ms
	}
	cc, err := c.get(ctx)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		cc.conn.SetDeadline(dl.Add(250 * time.Millisecond)) //nolint:errcheck
	} else {
		cc.conn.SetDeadline(time.Time{}) //nolint:errcheck
	}
	if err := cc.enc.Encode(req); err != nil {
		c.put(cc, true)
		return nil, fmt.Errorf("comm: send to %s: %w", c.addr, err)
	}
	st := &Stream{c: c, cc: cc, stop: make(chan struct{})}
	go st.watch(ctx)

	var first Frame
	if err := cc.dec.Decode(&first); err != nil {
		st.fail(fmt.Errorf("comm: receive from %s: %w", c.addr, err))
		st.Close()
		return nil, st.err
	}
	switch first.Kind {
	case FrameHeader:
		st.cols = first.Columns
		return st, nil
	case FrameTrailer:
		// Error before the header (or an empty degenerate stream).
		st.consumeTrailer(&first)
		err := st.err
		st.Close()
		if err == nil {
			err = errors.New("comm: stream ended before header")
		}
		return nil, err
	default:
		st.fail(fmt.Errorf("comm: protocol error: first frame kind %d", first.Kind))
		st.Close()
		return nil, st.err
	}
}

// watch aborts the stream when ctx is cancelled so a blocked Next
// returns instead of hanging; it exits silently once the stream is
// released.
func (s *Stream) watch(ctx context.Context) {
	select {
	case <-ctx.Done():
		s.mu.Lock()
		if !s.released {
			if s.err == nil {
				s.err = ctx.Err()
			}
			// Expire any pending socket read; Close will mark the conn
			// broken since the trailer was not consumed.
			s.cc.conn.SetDeadline(time.Unix(1, 0)) //nolint:errcheck
		}
		s.mu.Unlock()
	case <-s.stop:
	}
}

// Columns returns the column names from the stream header.
func (s *Stream) Columns() []string { return s.cols }

// RowCount reports the server-side row total from the trailer; valid
// once Next has returned (nil, nil).
func (s *Stream) RowCount() int { return s.count }

func (s *Stream) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

func (s *Stream) consumeTrailer(f *Frame) {
	s.mu.Lock()
	s.done = true
	s.count = f.Count
	if f.Err != "" && s.err == nil {
		resp := &Response{Err: f.Err, Kind: f.ErrKind}
		s.err = resp.AsError()
	}
	s.mu.Unlock()
}

// Next returns the next row, or (nil, nil) once the trailer has been
// consumed with no error. After an error (server-reported, transport,
// or context cancellation) every subsequent call returns it again.
func (s *Stream) Next() (schema.Row, error) {
	s.mu.Lock()
	err, done, released := s.err, s.done, s.released
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if done || released {
		return nil, nil
	}
	for s.bpos >= len(s.batch) {
		var f Frame
		if err := s.cc.dec.Decode(&f); err != nil {
			s.fail(fmt.Errorf("comm: receive from %s: %w", s.c.addr, err))
			s.mu.Lock()
			err = s.err
			s.mu.Unlock()
			return nil, err
		}
		switch f.Kind {
		case FrameBatch:
			s.batch, s.bpos = f.Rows, 0
		case FrameTrailer:
			s.consumeTrailer(&f)
			s.mu.Lock()
			err := s.err
			s.mu.Unlock()
			return nil, err
		default:
			s.fail(fmt.Errorf("comm: protocol error: frame kind %d mid-stream", f.Kind))
			return nil, s.err
		}
	}
	r := s.batch[s.bpos]
	s.bpos++
	return r, nil
}

// AsRowStream adapts the stream to schema.RowStream. errMap, when
// non-nil, translates wire errors into the caller's vocabulary. The
// per-call ctx is checked between rows; a blocked wire read is
// unblocked by the DoStream context (watched at the comm layer).
func (s *Stream) AsRowStream(errMap func(error) error) schema.RowStream {
	return &rowStreamAdapter{st: s, errMap: errMap}
}

type rowStreamAdapter struct {
	st     *Stream
	errMap func(error) error
}

func (a *rowStreamAdapter) Columns() []string { return a.st.Columns() }

func (a *rowStreamAdapter) Next(ctx context.Context) (schema.Row, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, err := a.st.Next()
	if err != nil {
		if a.errMap != nil {
			err = a.errMap(err)
		}
		return nil, err
	}
	return r, nil
}

func (a *rowStreamAdapter) Close() error { return a.st.Close() }

// Close releases the stream's connection. A stream whose trailer was
// consumed releases a clean connection back to the pool; a half-consumed
// stream's connection still has frames in flight and is closed instead
// (the pool slot refreshes lazily). Idempotent.
func (s *Stream) Close() error {
	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		return nil
	}
	s.released = true
	// A server-reported trailer error still ends with a fully drained
	// frame sequence: the conn itself is in sync and reusable. Anything
	// short of a consumed trailer leaves frames in flight — broken.
	clean := s.done
	close(s.stop)
	s.mu.Unlock()
	s.c.put(s.cc, !clean)
	return nil
}
