// Package comm is MYRIAD's communication substrate: length-prefixed
// binary messages over pooled TCP connections. It plays the role of the
// BSD-socket message layer in the 1994 prototype, extended with a
// streaming row-batch transport the original lacked.
//
// Two exchange shapes share each connection:
//
//   - Request/Response: one synchronous round trip (Client.Do), used
//     for control operations (ping, schema, stats, transactions, DML).
//   - Request/Frame-stream: a Stream=true request (Client.DoStream) is
//     answered by a header frame (columns), row batches (each one frame
//     whose payload holds its rows in the shared value row codec), and a
//     trailer (error + row count), letting query results pipeline
//     site → federation → client without materializing. The header
//     rides in the same socket write as the first batch or the trailer,
//     so a result of up to BatchRows rows crosses each hop in one write.
//     See PROTOCOL.md.
//
// The same Request serves the gateway protocol (federation to component
// DBMS) and the federation's client protocol; which fields are
// populated depends on Op.
package comm

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"myriad/internal/schema"
	"myriad/internal/storage"
)

// Op identifies a request type.
type Op string

// Gateway and federation protocol operations.
const (
	OpPing    Op = "ping"
	OpSchema  Op = "schema"  // list export relations
	OpStats   Op = "stats"   // table statistics for one export
	OpQuery   Op = "query"   // SELECT (optionally inside a transaction)
	OpExec    Op = "exec"    // DML/DDL (optionally inside a transaction)
	OpBegin   Op = "begin"   // open a transaction branch
	OpPrepare Op = "prepare" // 2PC phase one
	OpCommit  Op = "commit"  // 2PC phase two (or one-phase commit)
	OpAbort   Op = "abort"   // rollback

	// Federation-protocol extensions (myriadd <-> myriadctl/clients).
	OpExplain Op = "explain" // render the plan for SQL
	OpDefine  Op = "define"  // install an integrated relation (JSON in SQL field)
	OpDrop    Op = "drop"    // remove an integrated relation (name in Table)
	OpCatalog Op = "catalog" // render the federation catalog
	OpExecAt  Op = "execat"  // DML at one site inside a global txn (site in Table)
	// OpTxnStatus asks the federation coordinator for a prepared
	// branch's outcome (site in Table, branch id in TxnID); the answer
	// — commit/abort/pending — rides Response.Status. Recovering sites
	// use it to resolve in-doubt branches before releasing locks.
	OpTxnStatus Op = "txnstatus"
	// OpWaitGraph snapshots live lock waits-for edges as
	// Response.Waits. Against a gateway it returns the site's local
	// edges (the coordinator's deadlock detector pulls these every
	// tick); against a federation server it returns the stitched
	// edges of every reachable site.
	OpWaitGraph Op = "waitgraph"
)

// Request is one protocol message from client to server.
type Request struct {
	Op        Op
	TxnID     uint64 // 0 means autocommit
	SQL       string
	Table     string // for OpStats
	TimeoutMs int64  // per-request server-side timeout (0 = none)
	// Stream requests a frame-sequence response (header, row batches,
	// trailer) instead of a single Response; see Client.DoStream.
	Stream bool
	// GID carries the owning global transaction's id on OpBegin (0 =
	// no global transaction), giving the site the branch→global
	// mapping its waits-for edges report back.
	GID uint64
}

// ErrKind discriminates error causes across the wire.
type ErrKind string

// Error kinds carried in responses.
const (
	ErrNone    ErrKind = ""
	ErrGeneric ErrKind = "error"
	ErrTimeout ErrKind = "timeout" // lock/deadline expiry: presumed deadlock
	ErrInDoubt ErrKind = "indoubt" // commit decided but not acknowledged everywhere
	ErrWounded ErrKind = "wounded" // chosen as deadlock victim; abort and retry
)

// WaitEdge is one live waits-for edge reported by a site: branch
// Waiter has been blocked on Resource for WaitMs milliseconds behind
// the Holders branches. WaiterGID/HolderGIDs carry the global
// transaction ids of global branches (0 = purely local), the key the
// coordinator stitches per-site edges on. Durations travel as elapsed
// milliseconds, not timestamps, so sites need no clock agreement.
type WaitEdge struct {
	Waiter     uint64
	WaiterGID  uint64
	Holders    []uint64
	HolderGIDs []uint64
	Resource   string
	WaitMs     int64
}

// Response is one protocol message from server to client.
type Response struct {
	Err      string
	Kind     ErrKind
	TxnID    uint64
	Rows     *schema.ResultSet
	Affected int
	Schemas  []*schema.Schema
	Stats    *storage.TableStats
	Status   string     // OpTxnStatus: commit | abort | pending
	Waits    []WaitEdge // OpWaitGraph: live waits-for edges
}

// TimeoutError is the client-side representation of a server-reported
// timeout (presumed deadlock, per the paper's resolution policy).
var TimeoutError = errors.New("comm: remote timeout (presumed deadlock)")

// InDoubtError is the client-side representation of a server-reported
// in-doubt commit: the decision is durable and WILL be applied, but not
// every participant had acknowledged it when the reply was sent.
var InDoubtError = errors.New("comm: commit in doubt (decision logged, acknowledgement pending)")

// WoundedError is the client-side representation of a server-reported
// wound: the transaction was chosen as a deadlock victim (by the
// wound-wait fast path or the coordinator's detector), must abort, and
// may be retried under a fresh global id.
var WoundedError = errors.New("comm: transaction wounded (deadlock victim, retry)")

// ProtocolError wraps every violation of the wire contract: a
// truncated or malformed message, a length over the message cap, an
// out-of-sequence frame or a malformed batch payload. The connection is
// never reused after one.
var ProtocolError = errors.New("comm: protocol error")

// socketBufferBytes fixes SO_RCVBUF/SO_SNDBUF on every protocol
// connection. A fixed window turns the transport's backpressure into
// hard TCP flow control: a streaming producer can never outrun a
// paused consumer by more than this, and — the reason it exists — it
// disables kernel receive-buffer autotuning, which under bursty
// row-batch streams can balloon the advertised window past what the
// host tolerates and then prune the receive queue, dropping segments
// and stalling the stream on ~200ms retransmission timeouts.
const socketBufferBytes = 256 << 10

func tuneConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(socketBufferBytes)  //nolint:errcheck
		tc.SetWriteBuffer(socketBufferBytes) //nolint:errcheck
	}
}

// AsError converts a Response's error fields into a Go error.
func (r *Response) AsError() error {
	switch r.Kind {
	case ErrNone:
		return nil
	case ErrTimeout:
		return fmt.Errorf("%w: %s", TimeoutError, r.Err)
	case ErrInDoubt:
		return fmt.Errorf("%w: %s", InDoubtError, r.Err)
	case ErrWounded:
		return fmt.Errorf("%w: %s", WoundedError, r.Err)
	default:
		return errors.New(r.Err)
	}
}

// Handler serves decoded requests. Implementations must be safe for
// concurrent use.
type Handler interface {
	Handle(ctx context.Context, req *Request) *Response
}

// Server accepts connections and pumps the request/response loop.
type Server struct {
	handler Handler

	// BatchRows caps rows per streaming batch frame (0 = DefaultBatchRows).
	// Set before Listen.
	BatchRows int

	// StreamWriteTimeout is the per-frame write progress deadline for
	// streaming responses (0 = DefaultStreamWriteTimeout; negative
	// disables). It bounds how long a dead client that stopped reading
	// can keep a handler — and the scan locks behind it — alive.
	StreamWriteTimeout time.Duration

	mu    sync.Mutex
	ln    net.Listener
	wg    sync.WaitGroup
	conns map[net.Conn]bool

	// baseCtx parents every request context and is canceled by Close,
	// so a handler parked inside the engine (a lock wait, a stalled
	// scan) cannot hold shutdown hostage for its full timeout.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	closed bool
}

// NewServer wraps handler; call Listen (or Serve) to start.
func NewServer(handler Handler) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		handler: handler,
		conns:   make(map[net.Conn]bool),
		baseCtx: ctx, baseCancel: cancel,
	}
}

// Listen binds addr ("host:port"; ":0" picks a free port) and serves in
// the background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.start(ln)
	return ln.Addr().String(), nil
}

// start serves ln in the background.
func (s *Server) start(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serve(ln)
	}()
}

func (s *Server) serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		tuneConn(conn)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	w := newWire(conn)
	for {
		body, err := w.readMessage()
		if err != nil {
			return
		}
		var req Request
		if decodeRequest(body, &req) != nil {
			return
		}
		ctx := s.baseCtx
		cancel := func() {}
		if req.TimeoutMs > 0 {
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		}
		if req.Stream {
			ok := s.serveStream(ctx, &req, w)
			cancel()
			if !ok {
				return
			}
			continue
		}
		resp := s.handler.Handle(ctx, &req)
		cancel()
		if resp == nil {
			resp = &Response{}
		}
		start := w.beginMessage()
		w.out = appendResponse(w.out, resp)
		if err := w.endMessage(start); err != nil {
			start = w.beginMessage()
			w.out = appendResponse(w.out, &Response{Err: err.Error(), Kind: ErrGeneric})
			w.endMessage(start) //nolint:errcheck // a one-string response is far below the cap
		}
		if err := w.flush(); err != nil {
			return
		}
	}
}

// Close stops accepting, closes active connections, and waits for the
// per-connection goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.baseCancel()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Client is a connection pool speaking the protocol to one server. It is
// safe for concurrent use; each in-flight request occupies one pooled
// connection.
type Client struct {
	addr string
	pool chan *wire
	mu   sync.Mutex
	all  []*wire
	shut bool
}

// Dial creates a client with a pool of up to poolSize connections
// (established lazily).
func Dial(addr string, poolSize int) *Client {
	if poolSize < 1 {
		poolSize = 1
	}
	c := &Client{addr: addr, pool: make(chan *wire, poolSize)}
	for i := 0; i < poolSize; i++ {
		c.pool <- nil // lazy slot
	}
	return c
}

func (c *Client) get(ctx context.Context) (*wire, error) {
	select {
	case cc := <-c.pool:
		if cc != nil {
			return cc, nil
		}
		d := net.Dialer{}
		conn, err := d.DialContext(ctx, "tcp", c.addr)
		if err != nil {
			c.pool <- nil // return the slot
			return nil, err
		}
		tuneConn(conn)
		cc = newWire(conn)
		c.mu.Lock()
		c.all = append(c.all, cc)
		c.mu.Unlock()
		return cc, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// put returns a connection to the pool. broken must be true whenever
// the request/response (or frame) sequence did not complete — in
// particular for a half-consumed stream, whose conn still has batches
// in flight: reusing it would hand stale frames to the next request.
// Broken conns are closed and their slot refreshed lazily.
func (c *Client) put(cc *wire, broken bool) {
	if broken {
		cc.conn.Close()
		c.pool <- nil
		return
	}
	cc.conn.SetDeadline(time.Time{}) //nolint:errcheck // clear per-request deadline before reuse
	c.pool <- cc
}

// Do performs one request/response exchange. The context deadline, if
// any, is propagated to the server via TimeoutMs (when not already set)
// and enforced locally on the socket.
func (c *Client) Do(ctx context.Context, req *Request) (*Response, error) {
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
		// Socket deadline slightly beyond the server timeout so the
		// server's own timeout response wins when possible.
		cc.conn.SetDeadline(dl.Add(250 * time.Millisecond)) //nolint:errcheck
	} else {
		cc.conn.SetDeadline(time.Time{}) //nolint:errcheck
	}
	if err := cc.send(req); err != nil {
		c.put(cc, true)
		return nil, fmt.Errorf("comm: send to %s: %w", c.addr, err)
	}
	var resp Response
	body, err := cc.readMessage()
	if err == nil {
		err = decodeResponse(body, &resp)
	}
	if err != nil {
		c.put(cc, true)
		return nil, fmt.Errorf("comm: receive from %s: %w", c.addr, err)
	}
	c.put(cc, false)
	return &resp, nil
}

// send writes req in one socket write.
func (w *wire) send(req *Request) error {
	start := w.beginMessage()
	w.out = appendRequest(w.out, req)
	if err := w.endMessage(start); err != nil {
		return err
	}
	return w.flush()
}

// Close tears down every pooled connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shut {
		return nil
	}
	c.shut = true
	for _, cc := range c.all {
		cc.conn.Close()
	}
	return nil
}
