package schema

import "context"

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

// Canceled returns ctx's error once ctx is done, and nil until then.
// Row sources call it on every Next: it polls ctx.Done() without
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

// Ordering forwards the wrapped stream's sort guarantee (nil when it
// makes none) — attaching a cleanup must not erase the contract.
func (s *onCloseStream) Ordering() []SortKey { return StreamOrdering(s.RowStream) }
