package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"time"

	"myriad/internal/schema"
	"myriad/internal/storage"
	"myriad/internal/value"
)

// The envelope codec: every message on a connection — Request,
// Response or Frame — is a uvarint body length followed by the body,
// whose fields follow in a fixed order (see PROTOCOL.md):
//
//	uint, int     uvarint / zigzag varint
//	bool, kinds   one byte
//	string        uvarint length + raw bytes
//	slice         uvarint n+1 (0 = nil) + n elements
//	pointer       presence byte (0 = nil) + the pointed-to value
//	row values    the value row codec (value.AppendRow)
//
// Each side of a connection reads through one bufio.Reader and writes
// through one reused output buffer that reaches the socket only at a
// flush: one conn.Write per request, per response, and per streamed
// batch (see frameWriter for where stream frames flush).

// maxMessageBytes caps a message body. A declared length above it is a
// protocol error, so a garbled length prefix fails instead of waiting
// on (or allocating for) bytes that will never make sense. It is far
// above any envelope or 256-row batch the system sends.
const maxMessageBytes = 64 << 20

// lenPrefixBytes is the room reserved for a body's length prefix while
// the body is appended: the uvarint of any length up to
// maxMessageBytes (< 1<<28) fits in four bytes.
const lenPrefixBytes = 4

// readBufBytes sizes each connection's bufio.Reader (a whole default
// batch usually arrives in one read) and is the least a message buffer
// grows by while a larger body arrives; beyond that it grows by
// doubling what has actually been read, so allocation tracks received
// bytes, not the length prefix's claim.
const readBufBytes = 64 << 10

// wire is one end of a protocol connection: a buffered reader and a
// reused output buffer. Messages are appended to out between
// beginMessage and endMessage; flush hands everything pending to the
// socket in one Write.
type wire struct {
	conn net.Conn
	r    *bufio.Reader
	in   []byte // the last message body read, reused
	out  []byte // messages not yet flushed, reused

	// writeTimeout, when positive, arms a write deadline immediately
	// before every socket write.
	writeTimeout time.Duration
}

func newWire(conn net.Conn) *wire {
	return &wire{conn: conn, r: bufio.NewReaderSize(conn, readBufBytes)}
}

// beginMessage reserves the length prefix of a message whose body the
// caller appends to w.out; it returns the message's start offset.
func (w *wire) beginMessage() int {
	start := len(w.out)
	w.out = append(w.out, make([]byte, lenPrefixBytes)...)
	return start
}

// endMessage writes the length prefix of the message begun at start,
// closing the gap the reservation left. A body over the cap is dropped
// from the buffer and reported; nothing of it is sent.
func (w *wire) endMessage(start int) error {
	body := len(w.out) - start - lenPrefixBytes
	if body > maxMessageBytes {
		w.out = w.out[:start]
		return fmt.Errorf("comm: %d-byte message exceeds the %d-byte cap", body, maxMessageBytes)
	}
	var prefix [lenPrefixBytes]byte
	n := binary.PutUvarint(prefix[:], uint64(body))
	copy(w.out[start+n:], w.out[start+lenPrefixBytes:])
	copy(w.out[start:], prefix[:n])
	w.out = w.out[:start+n+body]
	return nil
}

// flush writes every pending message in one socket write.
func (w *wire) flush() error {
	if len(w.out) == 0 {
		return nil
	}
	if w.writeTimeout > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(w.writeTimeout)) //nolint:errcheck
	}
	_, err := w.conn.Write(w.out)
	w.out = w.out[:0]
	return err
}

// errTruncated reports a connection that ended inside a message.
var errTruncated = fmt.Errorf("%w: truncated message", ProtocolError)

// readMessage returns the next message's body, valid until the next
// readMessage. A connection closed between messages returns io.EOF; a
// message cut short or a length over the cap is a ProtocolError.
func (w *wire) readMessage() ([]byte, error) {
	var n uint64
	for i := 0; ; i++ {
		if i == lenPrefixBytes {
			return nil, fmt.Errorf("%w: length prefix exceeds the %d-byte cap", ProtocolError, maxMessageBytes)
		}
		c, err := w.r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = errTruncated
			}
			return nil, err
		}
		n |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			break
		}
	}
	if n > maxMessageBytes {
		return nil, fmt.Errorf("%w: %d-byte message exceeds the %d-byte cap", ProtocolError, n, maxMessageBytes)
	}
	need := int(n)
	buf := w.in[:0]
	for len(buf) < need {
		chunk := min(need-len(buf), max(cap(buf)-len(buf), len(buf), readBufBytes))
		buf = slices.Grow(buf, chunk)
		m, err := io.ReadFull(w.r, buf[len(buf):len(buf)+chunk])
		buf = buf[:len(buf)+m]
		if err != nil {
			w.in = buf
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				err = errTruncated
			}
			return nil, err
		}
	}
	w.in = buf
	return buf, nil
}

// ---------------------------------------------------------------------
// Encoding

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendCount writes a slice's length as n+1, keeping nil (0) apart
// from empty (1).
func appendCount(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

func appendStrings(b []byte, ss []string) []byte {
	b = appendCount(b, len(ss), ss == nil)
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendUints(b []byte, us []uint64) []byte {
	b = appendCount(b, len(us), us == nil)
	for _, u := range us {
		b = binary.AppendUvarint(b, u)
	}
	return b
}

func appendBytes(b, p []byte) []byte {
	b = appendCount(b, len(p), p == nil)
	return append(b, p...)
}

func appendRequest(b []byte, r *Request) []byte {
	b = appendString(b, string(r.Op))
	b = binary.AppendUvarint(b, r.TxnID)
	b = appendString(b, r.SQL)
	b = appendString(b, r.Table)
	b = binary.AppendVarint(b, r.TimeoutMs)
	b = appendBool(b, r.Stream)
	return binary.AppendUvarint(b, r.GID)
}

func appendResponse(b []byte, r *Response) []byte {
	b = appendString(b, r.Err)
	b = appendString(b, string(r.Kind))
	b = binary.AppendUvarint(b, r.TxnID)
	b = appendBool(b, r.Rows != nil)
	if r.Rows != nil {
		b = appendStrings(b, r.Rows.Columns)
		b = appendCount(b, len(r.Rows.Rows), r.Rows.Rows == nil)
		for _, row := range r.Rows.Rows {
			b = value.AppendRow(b, row)
		}
	}
	b = binary.AppendVarint(b, int64(r.Affected))
	b = appendCount(b, len(r.Schemas), r.Schemas == nil)
	for _, s := range r.Schemas {
		b = appendBool(b, s != nil)
		if s != nil {
			b = appendSchema(b, s)
		}
	}
	b = appendBool(b, r.Stats != nil)
	if r.Stats != nil {
		b = appendStats(b, r.Stats)
	}
	b = appendString(b, r.Status)
	b = appendCount(b, len(r.Waits), r.Waits == nil)
	for i := range r.Waits {
		e := &r.Waits[i]
		b = binary.AppendUvarint(b, e.Waiter)
		b = binary.AppendUvarint(b, e.WaiterGID)
		b = appendUints(b, e.Holders)
		b = appendUints(b, e.HolderGIDs)
		b = appendString(b, e.Resource)
		b = binary.AppendVarint(b, e.WaitMs)
	}
	return b
}

func appendSchema(b []byte, s *schema.Schema) []byte {
	b = appendString(b, s.Table)
	b = appendCount(b, len(s.Columns), s.Columns == nil)
	for _, c := range s.Columns {
		b = appendString(b, c.Name)
		b = append(b, byte(c.Type))
		b = appendBool(b, c.NotNull)
	}
	return appendStrings(b, s.Key)
}

func appendStats(b []byte, ts *storage.TableStats) []byte {
	b = appendString(b, ts.Table)
	b = binary.AppendVarint(b, ts.Rows)
	b = appendCount(b, len(ts.Columns), ts.Columns == nil)
	for _, c := range ts.Columns {
		b = appendString(b, c.Name)
		b = binary.AppendVarint(b, c.Distinct)
		b = binary.AppendVarint(b, c.Nulls)
		b = value.AppendRow(b, []value.Value{c.Min, c.Max})
	}
	return b
}

func appendFrame(b []byte, f *Frame) []byte {
	b = append(b, byte(f.Kind))
	b = appendStrings(b, f.Columns)
	b = binary.AppendVarint(b, int64(f.N))
	b = appendBytes(b, f.Payload)
	b = appendString(b, f.Err)
	b = appendString(b, string(f.ErrKind))
	return binary.AppendVarint(b, int64(f.Count))
}

// ---------------------------------------------------------------------
// Decoding

// decoder reads one message body. The first failure sticks: later
// reads return zero values, and err reports it as a ProtocolError.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ProtocolError}, args...)...)
	}
	d.b = nil
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) u8() byte {
	if len(d.b) == 0 {
		d.fail("truncated message")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) flag() bool { return d.u8() != 0 }

// bytes returns the next n bytes, aliasing the message body.
func (d *decoder) bytes(n uint64) []byte {
	if n > uint64(len(d.b)) {
		d.fail("%d-byte field overruns %d remaining bytes", n, len(d.b))
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) str() string { return string(d.bytes(d.uvarint())) }

// count reads a slice length written by appendCount: -1 for nil. Every
// element costs at least one byte, so a count beyond the remaining
// bytes fails before anything is allocated for it.
func (d *decoder) count() int {
	c := d.uvarint()
	if c == 0 || d.err != nil {
		return -1
	}
	if c-1 > uint64(len(d.b)) {
		d.fail("count %d exceeds %d remaining bytes", c-1, len(d.b))
		return -1
	}
	return int(c - 1)
}

func (d *decoder) strings() []string {
	n := d.count()
	if n < 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.str()
	}
	return ss
}

func (d *decoder) uints() []uint64 {
	n := d.count()
	if n < 0 {
		return nil
	}
	us := make([]uint64, n)
	for i := range us {
		us[i] = d.uvarint()
	}
	return us
}

// payload reads a byte slice written by appendBytes, aliasing the body.
func (d *decoder) payload() []byte {
	n := d.count()
	if n < 0 {
		return nil
	}
	return d.bytes(uint64(n))
}

// row reads one value.AppendRow encoding; width, when positive, is the
// number of values it must hold. A malformed row is a ProtocolError
// that also wraps value.ErrCorrupt, and returns nil.
func (d *decoder) row(what string, width int) schema.Row {
	if d.err != nil {
		return nil
	}
	row, n, err := value.DecodeRow(nil, d.b)
	if err == nil && width > 0 && len(row) != width {
		err = fmt.Errorf("%w: %d values, want %d", value.ErrCorrupt, len(row), width)
	}
	if err != nil {
		d.err = fmt.Errorf("%w: %s: %w", ProtocolError, what, err)
		d.b = nil
		return nil
	}
	d.b = d.b[n:]
	return row
}

// finish reports the sticky error, or trailing bytes after the last
// field.
func (d *decoder) finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

func decodeRequest(body []byte, r *Request) error {
	d := decoder{b: body}
	*r = Request{
		Op:        Op(d.str()),
		TxnID:     d.uvarint(),
		SQL:       d.str(),
		Table:     d.str(),
		TimeoutMs: d.varint(),
		Stream:    d.flag(),
		GID:       d.uvarint(),
	}
	return d.finish()
}

func decodeResponse(body []byte, r *Response) error {
	d := decoder{b: body}
	*r = Response{
		Err:   d.str(),
		Kind:  ErrKind(d.str()),
		TxnID: d.uvarint(),
	}
	if d.flag() {
		r.Rows = &schema.ResultSet{Columns: d.strings()}
		if n := d.count(); n >= 0 {
			r.Rows.Rows = make([]schema.Row, n)
			for i := range r.Rows.Rows {
				r.Rows.Rows[i] = d.row("result row", 0)
			}
		}
	}
	r.Affected = int(d.varint())
	if n := d.count(); n >= 0 {
		r.Schemas = make([]*schema.Schema, n)
		for i := range r.Schemas {
			if d.flag() {
				r.Schemas[i] = d.schema()
			}
		}
	}
	if d.flag() {
		r.Stats = d.stats()
	}
	r.Status = d.str()
	if n := d.count(); n >= 0 {
		r.Waits = make([]WaitEdge, n)
		for i := range r.Waits {
			r.Waits[i] = WaitEdge{
				Waiter:     d.uvarint(),
				WaiterGID:  d.uvarint(),
				Holders:    d.uints(),
				HolderGIDs: d.uints(),
				Resource:   d.str(),
				WaitMs:     d.varint(),
			}
		}
	}
	return d.finish()
}

func (d *decoder) schema() *schema.Schema {
	s := &schema.Schema{Table: d.str()}
	if n := d.count(); n >= 0 {
		s.Columns = make([]schema.Column, n)
		for i := range s.Columns {
			s.Columns[i] = schema.Column{Name: d.str(), Type: schema.Type(d.u8()), NotNull: d.flag()}
		}
	}
	s.Key = d.strings()
	return s
}

func (d *decoder) stats() *storage.TableStats {
	ts := &storage.TableStats{Table: d.str(), Rows: d.varint()}
	if n := d.count(); n >= 0 {
		ts.Columns = make([]storage.ColumnStats, n)
		for i := range ts.Columns {
			c := &ts.Columns[i]
			c.Name, c.Distinct, c.Nulls = d.str(), d.varint(), d.varint()
			if minMax := d.row("column min/max", 2); minMax != nil {
				c.Min, c.Max = minMax[0], minMax[1]
			}
		}
	}
	return ts
}

// decodeFrame decodes a frame into f. f.Payload aliases body.
func decodeFrame(body []byte, f *Frame) error {
	d := decoder{b: body}
	*f = Frame{
		Kind:    FrameKind(d.u8()),
		Columns: d.strings(),
		N:       int(d.varint()),
		Payload: d.payload(),
		Err:     d.str(),
		ErrKind: ErrKind(d.str()),
		Count:   int(d.varint()),
	}
	return d.finish()
}
