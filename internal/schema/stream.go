package schema

import (
	"context"
	"slices"

	"myriad/internal/value"
)

// RowStream is a pull-based stream of rows: the unit of the federation's
// pipelined transport. Next returns the next row, or (nil, nil) when the
// stream is exhausted; Close releases underlying resources (iterators,
// transactions, pooled connections) and is idempotent. A RowStream is
// single-consumer: callers must not invoke Next concurrently.
type RowStream interface {
	Columns() []string
	Next(ctx context.Context) (Row, error)
	Close() error
}

// Batch is N rows still in the shared row codec: value.AppendRow
// encodings back to back in one payload, as a batch frame carries them.
type Batch struct {
	N       int
	Payload []byte
}

// BatchStream is a RowStream that can also hand its rows over as
// encoded batches, so a consumer that only forwards them never builds
// a Value. Batched reports whether NextBatch is available: a wrapper
// offers batches only when the stream it wraps does. A stream is read
// by Next or by NextBatch, never both. NextBatch returns the next
// non-empty batch, whose payload the caller owns, or a zero Batch once
// the stream is exhausted.
type BatchStream interface {
	RowStream
	Batched() bool
	NextBatch(ctx context.Context) (Batch, error)
}

// Batches returns s as a BatchStream when it offers batches, else nil.
func Batches(s RowStream) BatchStream {
	if bs, ok := s.(BatchStream); ok && bs.Batched() {
		return bs
	}
	return nil
}

// RowAppender is a RowStream that can also encode its rows itself:
// AppendRows appends up to max next rows to dst in the row codec —
// the bytes value.AppendRow gives each row Next would return — and
// reports how many; zero rows and a nil error end the stream. A stream
// may build no row to do so (a spilled sort copies its run bytes).
type RowAppender interface {
	RowStream
	AppendRows(ctx context.Context, dst []byte, max int) ([]byte, int, error)
}

// AppendRows appends up to max rows pulled from next to dst in the row
// codec (value.AppendRow encodings back to back) and reports how many;
// it stops early at the end of the stream or on an error.
func AppendRows[R ~[]value.Value](ctx context.Context, next func(context.Context) (R, error), dst []byte, max int) ([]byte, int, error) {
	for n := 0; n < max; n++ {
		r, err := next(ctx)
		if err != nil || r == nil {
			return dst, n, err
		}
		dst = value.AppendRow(dst, r)
	}
	return dst, max, nil
}

// Canceled returns ctx's error once ctx is done, and nil until then.
// Row sources call it as they pull: it polls ctx.Done() without
// blocking, where ctx.Err() takes the context's mutex on each call.
func Canceled(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// sliceStream adapts a materialized ResultSet to RowStream.
type sliceStream struct {
	rs     *ResultSet
	pos    int
	closed bool
}

// StreamOf wraps a materialized result as a RowStream (used wherever a
// non-streaming producer feeds a streaming consumer).
func StreamOf(rs *ResultSet) RowStream {
	if rs == nil {
		rs = &ResultSet{}
	}
	return &sliceStream{rs: rs}
}

func (s *sliceStream) Columns() []string { return s.rs.Columns }

func (s *sliceStream) Next(ctx context.Context) (Row, error) {
	if err := Canceled(ctx); err != nil {
		return nil, err
	}
	if s.closed || s.pos >= len(s.rs.Rows) {
		return nil, nil
	}
	r := s.rs.Rows[s.pos]
	s.pos++
	return r, nil
}

// Batched: an empty result offers batches, so a pruned source does not
// stop its scan set's batches from passing through; a result with rows
// is read by Next.
func (s *sliceStream) Batched() bool { return len(s.rs.Rows) == 0 }

// NextBatch ends the empty result.
func (s *sliceStream) NextBatch(ctx context.Context) (Batch, error) {
	return Batch{}, Canceled(ctx)
}

func (s *sliceStream) Close() error { s.closed = true; return nil }

// DrainStream pulls a stream dry into a materialized ResultSet. It does
// not close the stream; the caller owns Close.
func DrainStream(ctx context.Context, s RowStream) (*ResultSet, error) {
	rs := &ResultSet{Columns: s.Columns()}
	for {
		r, err := s.Next(ctx)
		if err != nil {
			return nil, err
		}
		if r == nil {
			return rs, nil
		}
		if len(rs.Rows) == cap(rs.Rows) {
			// Double: append's own growth falls to 1.25x past 256
			// rows, which copies a large result several times over.
			rs.Rows = slices.Grow(rs.Rows, max(len(rs.Rows), 16))
		}
		rs.Rows = append(rs.Rows, r)
	}
}

// onCloseStream runs a cleanup exactly once when the stream closes.
type onCloseStream struct {
	RowStream
	fn   func()
	done bool
}

// StreamWithCleanup attaches a cleanup function (e.g. a context cancel)
// to a stream's Close.
func StreamWithCleanup(s RowStream, fn func()) RowStream {
	return &onCloseStream{RowStream: s, fn: fn}
}

func (s *onCloseStream) Close() error {
	err := s.RowStream.Close()
	if !s.done {
		s.done = true
		s.fn()
	}
	return err
}

// Batched reports whether the wrapped stream offers batches.
func (s *onCloseStream) Batched() bool { return Batches(s.RowStream) != nil }

// NextBatch forwards the wrapped stream's batches.
func (s *onCloseStream) NextBatch(ctx context.Context) (Batch, error) {
	return s.RowStream.(BatchStream).NextBatch(ctx)
}

// AppendRows forwards the wrapped stream's AppendRows, or encodes the
// rows its Next returns when it has none.
func (s *onCloseStream) AppendRows(ctx context.Context, dst []byte, max int) ([]byte, int, error) {
	if ra, ok := s.RowStream.(RowAppender); ok {
		return ra.AppendRows(ctx, dst, max)
	}
	return AppendRows(ctx, s.RowStream.Next, dst, max)
}

// Ordering forwards the wrapped stream's sort guarantee (nil when it
// makes none) — attaching a cleanup must not erase the contract.
func (s *onCloseStream) Ordering() []SortKey { return StreamOrdering(s.RowStream) }
