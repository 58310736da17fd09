package comm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"myriad/internal/schema"
	"myriad/internal/value"
)

// The streaming response protocol: a Request with Stream=true is
// answered not by one Response but by a sequence of Frames on the same
// connection — one header (column names), zero or more row batches, and
// exactly one trailer (error + row count). A batch's rows travel as one
// opaque payload in the shared row codec (value.AppendRow). The header
// is buffered until the first batch or the trailer goes out, so a
// result of up to BatchRows rows is one socket write. See PROTOCOL.md
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
// no explicit batch size is configured: large enough to amortize the
// per-frame cost (one envelope, one write syscall), small enough
// that the first batch flushes quickly and a LIMIT 10 never drags
// hundreds of rows over the wire.
const DefaultBatchRows = 256

// Frame is one message of a streaming response.
type Frame struct {
	Kind    FrameKind
	Columns []string // header
	N       int      // batch: rows in Payload
	Payload []byte   // batch: N rows, each value.AppendRow-encoded
	Err     string   // trailer
	ErrKind ErrKind  // trailer
	Count   int      // trailer: rows sent in the whole stream
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
// without write progress: each socket write must complete within it. A slow
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
// be called exactly once before any Fill or Batch. Fill lets the
// handler encode rows in the row codec (value.AppendRow encodings back
// to back) straight into the pending frame: fill gets the frame's
// payload and its room — the rows it may still take — and returns the
// payload with at most room rows appended and how many; Fill reports
// that count, and a count of zero tells the handler nothing more was
// encoded. Frames are packed by row count alone, so the bytes on the
// wire do not depend on how many rows each fill call encoded. Batch
// takes n rows already encoded elsewhere and sends them as one batch
// frame. Both return an error when the client is gone (Fill also
// returns fill's error); the handler should stop producing.
type RowSink interface {
	Header(columns []string) error
	Fill(fill func(payload []byte, room int) ([]byte, int, error)) (int, error)
	Batch(n int, payload []byte) error
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
// Server side: frameWriter appends frames to the connection's output
// buffer as a RowSink. The header waits there for the first batch or
// the trailer; a full batch flushes once a further row follows it; the
// last batch and the trailer flush together.

type frameWriter struct {
	w         *wire
	batchRows int

	payload    []byte // pending batch, reused across frames
	pending    int    // rows in payload
	count      int
	headerSent bool
	batchDone  bool  // a full batch is buffered, waiting for the next row
	writeErr   error // transport failure: the conn is dead
}

func newFrameWriter(w *wire, batchRows int) *frameWriter {
	if batchRows <= 0 {
		batchRows = DefaultBatchRows
	}
	return &frameWriter{w: w, batchRows: batchRows}
}

// append adds one frame to the output buffer without writing it.
func (w *frameWriter) append(f *Frame) error {
	start := w.w.beginMessage()
	w.w.out = appendFrame(w.w.out, f)
	return w.w.endMessage(start)
}

// flush writes everything buffered in one socket write.
func (w *frameWriter) flush() error {
	if err := w.w.flush(); err != nil {
		w.writeErr = err
		return err
	}
	return nil
}

func (w *frameWriter) Header(columns []string) error {
	if w.writeErr != nil {
		return w.writeErr
	}
	if w.headerSent {
		return errors.New("comm: stream header sent twice")
	}
	if err := w.append(&Frame{Kind: FrameHeader, Columns: columns}); err != nil {
		return err
	}
	w.headerSent = true
	return nil
}

// Fill appends the rows fill encodes to the pending batch. A full
// batch goes out once fill has added a further row: waiting for that
// row lets a result of exactly batchRows rows leave in one write with
// its trailer.
func (w *frameWriter) Fill(fill func(payload []byte, room int) ([]byte, int, error)) (int, error) {
	if w.writeErr != nil {
		return 0, w.writeErr
	}
	if !w.headerSent {
		return 0, errors.New("comm: stream rows before header")
	}
	room := w.batchRows - w.pending
	payload, n, err := fill(w.payload, room)
	w.payload = payload
	if n > room {
		return 0, fmt.Errorf("comm: %d rows filled into a batch with room for %d", n, room)
	}
	if n > 0 && w.batchDone {
		w.batchDone = false
		if err := w.flush(); err != nil {
			return 0, err
		}
	}
	w.pending += n
	if w.pending == w.batchRows {
		w.batchDone = true
		if aerr := w.appendBatch(); err == nil {
			err = aerr
		}
	}
	return n, err
}

// Batch sends n encoded rows as one batch frame of their own, after any
// rows Fill has pending. It follows Fill's flush rule at batch
// granularity: a batch waits in the buffer until another batch or the
// trailer follows it, so a result of one batch is one socket write.
func (w *frameWriter) Batch(n int, payload []byte) error {
	if w.writeErr != nil {
		return w.writeErr
	}
	if !w.headerSent {
		return errors.New("comm: stream batch before header")
	}
	if err := w.appendBatch(); err != nil {
		return err
	}
	if w.batchDone {
		w.batchDone = false
		if err := w.flush(); err != nil {
			return err
		}
	}
	if err := w.append(&Frame{Kind: FrameBatch, N: n, Payload: payload}); err != nil {
		return err
	}
	w.count += n
	w.batchDone = true
	return nil
}

// appendBatch moves the pending rows into the output buffer as one
// batch frame.
func (w *frameWriter) appendBatch() error {
	if w.pending == 0 {
		return nil
	}
	err := w.append(&Frame{Kind: FrameBatch, N: w.pending, Payload: w.payload})
	if err == nil {
		// Count only what goes out: an error trailer may supersede a
		// pending batch, and its Count must not include rows that were
		// buffered but never sent.
		w.count += w.pending
	}
	w.payload, w.pending = w.payload[:0], 0
	return err
}

// finish appends the pending rows and the trailer and writes them (and
// whatever else is buffered) in one socket write. A handler error
// supersedes a partial pending batch.
func (w *frameWriter) finish(handlerErr error) error {
	if handlerErr == nil {
		handlerErr = w.appendBatch()
	}
	t := &Frame{Kind: FrameTrailer, Count: w.count}
	if handlerErr != nil {
		t.Err = handlerErr.Error()
		t.ErrKind = kindOf(handlerErr)
	}
	if err := w.append(t); err != nil {
		w.writeErr = err
		return err
	}
	return w.flush()
}

// serveStream answers one Stream=true request with a frame sequence.
// It returns false when the connection is no longer usable.
func (s *Server) serveStream(ctx context.Context, req *Request, conn *wire) bool {
	w := newFrameWriter(conn, s.BatchRows)
	timeout := s.StreamWriteTimeout
	if timeout == 0 {
		timeout = DefaultStreamWriteTimeout
	}
	if timeout > 0 { // negative: explicit opt-out
		conn.writeTimeout = timeout
		defer func() {
			// The conn is reused for later exchanges.
			conn.writeTimeout = 0
			conn.conn.SetWriteDeadline(time.Time{}) //nolint:errcheck
		}()
	}
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
	cc *wire

	cols  []string
	batch []schema.Row
	bpos  int
	count int
	scan  value.RowScanner // checks the batches NextBatch hands over

	mu        sync.Mutex
	done      bool  // trailer consumed: conn is clean
	err       error // terminal error (trailer error or transport error)
	released  bool  // conn handed back (or abandoned) — guards abort
	stopWatch func() bool
}

// DoStream sends req with Stream=true and returns the response stream
// after reading its header, which arrives together with the first
// batch or the trailer. The context governs the whole stream: its
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
	if err := cc.send(req); err != nil {
		c.put(cc, true)
		return nil, fmt.Errorf("comm: send to %s: %w", c.addr, err)
	}
	st := &Stream{c: c, cc: cc}
	st.stopWatch = context.AfterFunc(ctx, func() { st.abort(ctx.Err()) })
	if err := st.readHeader(); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// readFrame reads and decodes the next frame into f.
func (s *Stream) readFrame(f *Frame) error {
	body, err := s.cc.readMessage()
	if err == nil {
		err = decodeFrame(body, f)
	}
	if err != nil {
		return s.fail(fmt.Errorf("comm: receive from %s: %w", s.c.addr, err))
	}
	return nil
}

// readHeader consumes the stream's first frame: the header, or a
// trailer standing in for it (an error before any rows).
func (s *Stream) readHeader() error {
	var first Frame
	if err := s.readFrame(&first); err != nil {
		return err
	}
	switch first.Kind {
	case FrameHeader:
		s.cols = first.Columns
		return nil
	case FrameTrailer:
		// A trailer error wins; an empty degenerate stream gets this one.
		s.consumeTrailer(&first)
		return s.fail(errors.New("comm: stream ended before header"))
	default:
		return s.fail(fmt.Errorf("%w: first frame kind %d", ProtocolError, first.Kind))
	}
}

// abort runs when the DoStream context is cancelled: it latches the
// context's error and expires any pending socket read so a blocked Next
// returns (Close then marks the conn broken, since the trailer was not
// consumed). A no-op once the stream is released.
func (s *Stream) abort(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.released {
		return
	}
	if s.err == nil {
		s.err = err
	}
	s.cc.conn.SetDeadline(time.Unix(1, 0)) //nolint:errcheck
}

// Columns returns the column names from the stream header.
func (s *Stream) Columns() []string { return s.cols }

// RowCount reports the server-side row total from the trailer; valid
// once Next has returned (nil, nil).
func (s *Stream) RowCount() int { return s.count }

// fail records err as the terminal error unless one is already set,
// and returns whichever is.
func (s *Stream) fail(err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
	return s.err
}

// consumeTrailer records the trailer and returns the stream's terminal
// error, if any.
func (s *Stream) consumeTrailer(f *Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done = true
	s.count = f.Count
	if f.Err != "" && s.err == nil {
		resp := &Response{Err: f.Err, Kind: f.ErrKind}
		s.err = resp.AsError()
	}
	return s.err
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
		if err := s.readFrame(&f); err != nil {
			return nil, err
		}
		switch f.Kind {
		case FrameBatch:
			// The rows must not alias the payload (it is the connection's
			// read buffer, and consumers keep rows); the decoder copies
			// every text out of it.
			batch, err := value.DecodeRows(s.batch[:0], f.N, f.Payload)
			if err != nil {
				return nil, s.badBatch(err)
			}
			s.batch, s.bpos = batch, 0
		case FrameTrailer:
			return nil, s.consumeTrailer(&f)
		default:
			return nil, s.fail(fmt.Errorf("%w: frame kind %d mid-stream", ProtocolError, f.Kind))
		}
	}
	r := s.batch[s.bpos]
	s.bpos++
	return r, nil
}

// NextBatch returns the next batch frame's rows still encoded, checked
// exactly as Next checks a batch and with the same failure, in a
// payload the caller owns; a zero Batch once the trailer has been
// consumed with no error. A stream is read by Next or by NextBatch,
// never both.
func (s *Stream) NextBatch() (schema.Batch, error) {
	s.mu.Lock()
	err, done, released := s.err, s.done, s.released
	s.mu.Unlock()
	if err != nil {
		return schema.Batch{}, err
	}
	if done || released {
		return schema.Batch{}, nil
	}
	for {
		var f Frame
		if err := s.readFrame(&f); err != nil {
			return schema.Batch{}, err
		}
		switch f.Kind {
		case FrameBatch:
			if err := s.scan.Reset(f.Payload, f.N); err != nil {
				return schema.Batch{}, s.badBatch(err)
			}
			for {
				_, _, ok, err := s.scan.Next()
				if err != nil {
					return schema.Batch{}, s.badBatch(err)
				}
				if !ok {
					break
				}
			}
			if f.N > 0 {
				// The payload aliases the connection's read buffer, which
				// the next frame overwrites.
				return schema.Batch{N: f.N, Payload: append([]byte(nil), f.Payload...)}, nil
			}
		case FrameTrailer:
			return schema.Batch{}, s.consumeTrailer(&f)
		default:
			return schema.Batch{}, s.fail(fmt.Errorf("%w: frame kind %d mid-stream", ProtocolError, f.Kind))
		}
	}
}

// badBatch fails the stream on a batch that does not decode. Unread
// frames may follow; the trailer is never consumed, so Close marks the
// conn broken.
func (s *Stream) badBatch(err error) error {
	return s.fail(fmt.Errorf("%w: batch from %s: %w", ProtocolError, s.c.addr, err))
}

// AsRowStream adapts the stream to schema.RowStream. errMap, when
// non-nil, translates wire errors into the caller's vocabulary. The
// per-call ctx is checked between rows; a blocked wire read is
// unblocked by the DoStream context (registered at the comm layer).
func (s *Stream) AsRowStream(errMap func(error) error) schema.RowStream {
	return &rowStreamAdapter{st: s, errMap: errMap}
}

type rowStreamAdapter struct {
	st     *Stream
	errMap func(error) error
}

func (a *rowStreamAdapter) Columns() []string { return a.st.Columns() }

func (a *rowStreamAdapter) Next(ctx context.Context) (schema.Row, error) {
	if err := schema.Canceled(ctx); err != nil {
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

// Batched: a wire stream always hands over its batch frames.
func (a *rowStreamAdapter) Batched() bool { return true }

func (a *rowStreamAdapter) NextBatch(ctx context.Context) (schema.Batch, error) {
	if err := schema.Canceled(ctx); err != nil {
		return schema.Batch{}, err
	}
	b, err := a.st.NextBatch()
	if err != nil && a.errMap != nil {
		err = a.errMap(err)
	}
	return b, err
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
	s.mu.Unlock()
	s.stopWatch()
	s.c.put(s.cc, !clean)
	return nil
}
