package spill

import (
	"context"
	"errors"
	"fmt"
	"os"

	"myriad/internal/schema"
)

// Spool buffers one stream of rows for replay in arrival order. Rows
// stay in memory while the budget grants their bytes; at the first row
// it refuses, the buffered rows move to a single run file, their
// reservation is released, and that row and every later one append to
// the same file — so a spool past the budget holds none of it, leaving
// the budget to the operators that read it. It backs the executor's
// bind-join build side, whose rows are read once for their distinct
// join keys and once more as the relation the residual joins. Not safe
// for concurrent use.
type Spool struct {
	budget   *Budget
	mem      []schema.Row
	reserved int64
	w        *runWriter // non-nil while rows past the budget are being written
	run      *runFile   // the sealed overflow run
	n        int
	sealed   bool
	closed   bool
}

// NewSpool creates an empty spool under budget (nil = unlimited, never
// spills).
func NewSpool(budget *Budget) *Spool { return &Spool{budget: budget} }

// Add appends one row. It fails after the first Rows call.
func (s *Spool) Add(row schema.Row) error {
	if s.sealed || s.closed {
		return errors.New("spill: Add on a sealed spool")
	}
	s.n++
	if s.w == nil {
		if s.budget.Limit() <= 0 {
			s.mem = append(s.mem, row)
			return nil
		}
		if n := schema.RowBytes(row); s.budget.Reserve(n) {
			s.reserved += n
			s.mem = append(s.mem, row)
			return nil
		}
		w, err := newRunWriter(s.budget)
		if err != nil {
			return err
		}
		s.w = w
		for _, r := range s.mem {
			if err := w.add(r); err != nil {
				return err
			}
		}
		s.mem = nil
		s.budget.Release(s.reserved)
		s.reserved = 0
	}
	return s.w.add(row)
}

// SpoolStream drains st into a new spool under budget and closes st.
func SpoolStream(ctx context.Context, st schema.RowStream, budget *Budget) (*Spool, error) {
	defer st.Close()
	sp := NewSpool(budget)
	for {
		r, err := st.Next(ctx)
		if err == nil && r != nil {
			err = sp.Add(r)
		}
		if err != nil {
			sp.Close()
			return nil, err
		}
		if r == nil {
			return sp, nil
		}
	}
}

// Evict moves the rows held in memory to a run file and releases their
// reservation, leaving the whole budget to the spool's readers. It is a
// no-op for a spool already on disk or holding no reservation. No
// reader may be open.
func (s *Spool) Evict() error {
	if s.closed {
		return errors.New("spill: evicting a closed spool")
	}
	if s.reserved == 0 {
		return nil
	}
	run, err := writeRun(s.budget, s.mem)
	if err != nil {
		return err
	}
	s.run = run
	s.mem = nil
	s.budget.Release(s.reserved)
	s.reserved = 0
	return nil
}

// Len reports the number of rows added.
func (s *Spool) Len() int { return s.n }

// Spilled reports whether any row went to disk.
func (s *Spool) Spilled() bool { return s.w != nil || s.run != nil }

// Rows seals the spool and returns a fresh pass over every row in
// arrival order. Close each reader before closing the spool.
func (s *Spool) Rows() (*SpoolReader, error) {
	if s.closed {
		return nil, errors.New("spill: reading a closed spool")
	}
	s.sealed = true
	if s.w != nil {
		run, err := s.w.finish()
		s.w = nil
		if err != nil {
			return nil, err
		}
		s.run = run
	}
	r := &SpoolReader{mem: s.mem}
	if s.run != nil {
		f, err := os.Open(s.run.name)
		if err != nil {
			return nil, fmt.Errorf("spill: reopening spool: %w", err)
		}
		r.f = f
		r.cur = newRunCursor(f, nil)
	}
	return r, nil
}

// Close drops the rows, removes the run file and releases the
// reservation. Idempotent.
func (s *Spool) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.w != nil {
		s.w.abandon()
		s.w = nil
	}
	if s.run != nil {
		s.run.close()
		s.run = nil
	}
	s.mem = nil
	s.budget.Release(s.reserved)
	s.reserved = 0
}

// Stream returns one more pass over the spool as a row stream with the
// given columns. The stream owns the spool: closing it closes both.
func (s *Spool) Stream(cols []string) schema.RowStream {
	return &spoolStream{cols: cols, sp: s}
}

type spoolStream struct {
	cols []string
	sp   *Spool
	rd   *SpoolReader
}

func (s *spoolStream) Columns() []string { return s.cols }

func (s *spoolStream) Next(ctx context.Context) (schema.Row, error) {
	if s.rd == nil {
		rd, err := s.sp.Rows()
		if err != nil {
			return nil, err
		}
		s.rd = rd
	}
	return s.rd.Next(ctx)
}

func (s *spoolStream) Close() error {
	if s.rd != nil {
		s.rd.Close()
	}
	s.sp.Close()
	return nil
}

// SpoolReader is one pass over a Spool.
type SpoolReader struct {
	mem []schema.Row
	pos int
	f   *os.File
	cur *runCursor
}

// Next returns the next row, or nil at the end.
func (r *SpoolReader) Next(ctx context.Context) (schema.Row, error) {
	if err := schema.Canceled(ctx); err != nil {
		return nil, err
	}
	if r.pos < len(r.mem) {
		row := r.mem[r.pos]
		r.pos++
		return row, nil
	}
	if r.cur == nil {
		return nil, nil
	}
	if ok, err := r.cur.step(); !ok {
		return nil, err
	}
	return r.cur.row, nil
}

// Close ends the pass. Idempotent.
func (r *SpoolReader) Close() {
	r.mem, r.cur = nil, nil
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}
