package integration

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/value"
)

// batchSource hands over fixed encoded batches, as a site stream does,
// or the same rows one by one.
type batchSource struct {
	batches []schema.Batch
	rows    []schema.Row
	closed  bool
}

func (s *batchSource) Columns() []string { return []string{"id", "v"} }
func (s *batchSource) Batched() bool     { return true }
func (s *batchSource) Close() error      { s.closed = true; return nil }

func (s *batchSource) Next(ctx context.Context) (schema.Row, error) {
	if len(s.rows) == 0 {
		b, err := s.NextBatch(ctx)
		if b.N == 0 || err != nil {
			return nil, err
		}
		if s.rows, err = value.DecodeRows(s.rows, b.N, b.Payload); err != nil {
			return nil, err
		}
	}
	r := s.rows[0]
	s.rows = s.rows[1:]
	return r, nil
}

func (s *batchSource) NextBatch(context.Context) (schema.Batch, error) {
	if len(s.batches) == 0 || s.closed {
		return schema.Batch{}, nil
	}
	b := s.batches[0]
	s.batches = s.batches[1:]
	return b, nil
}

// encodeRun encodes rows base..base+n-1 as one batch.
func encodeRun(base, n int) schema.Batch {
	b := schema.Batch{N: n}
	for i := base; i < base+n; i++ {
		b.Payload = value.AppendRow(b.Payload, row2(int64(i), int64(i%7)))
	}
	return b
}

// drainBatches reads s by NextBatch, returning the batches and every
// row decoded.
func drainBatches(t *testing.T, s schema.RowStream) (batches []schema.Batch, rows []schema.Row) {
	t.Helper()
	bs := schema.Batches(s)
	if bs == nil {
		t.Fatal("fan-in does not offer batches")
	}
	for {
		b, err := bs.NextBatch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if b.N == 0 {
			return batches, rows
		}
		batches = append(batches, b)
		if rows, err = value.DecodeRows(rows, b.N, b.Payload); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFanInPassesBatches: a UNION ALL fan-in over sources that offer
// batches hands them on as they came, in source order, cutting only a
// batch over feedBatchRows rows — or, under a byte budget, over the
// per-batch byte cap — at row boundaries.
func TestFanInPassesBatches(t *testing.T) {
	spec := &Spec{Kind: UnionAll, Columns: []string{"id", "v"}}
	sources := func() []schema.RowStream {
		return []schema.RowStream{
			&batchSource{batches: []schema.Batch{encodeRun(0, 600)}},
			&batchSource{},
			&batchSource{batches: []schema.Batch{encodeRun(600, 10), encodeRun(610, 5)}},
		}
	}
	var handed [3]atomic.Int64 // OnBatch runs on each source's feeder
	c := CombineStreamsOpts(context.Background(), spec, sources(), StreamOptions{
		OnBatch: func(src, n int) { handed[src].Add(int64(n)) },
	})
	batches, rows := drainBatches(t, c)
	c.Close()
	var sizes []int
	for _, b := range batches {
		sizes = append(sizes, b.N)
	}
	if fmt.Sprint(sizes) != "[256 256 88 10 5]" {
		t.Fatalf("batch sizes %v, want [256 256 88 10 5]", sizes)
	}
	for i, r := range rows {
		if r[0].RawInt() != int64(i) {
			t.Fatalf("row %d is %v: not in source order", i, r)
		}
	}
	if handed[0].Load() != 600 || handed[2].Load() != 15 {
		t.Fatalf("OnBatch counted %d and %d rows, want 600 and 15", handed[0].Load(), handed[2].Load())
	}

	// Under a byte budget every batch fits the per-batch byte cap.
	opts := StreamOptions{ByteBudget: 3000}
	c = CombineStreamsOpts(context.Background(), spec, sources(), opts)
	batches, rows = drainBatches(t, c)
	c.Close()
	limit := perBatchBytes(3, opts)
	for _, b := range batches {
		if int64(len(b.Payload)) > limit {
			t.Fatalf("a %d-row batch of %d bytes under a %d-byte cap", b.N, len(b.Payload), limit)
		}
	}
	if len(rows) != 615 || len(batches) < 615*5/int(limit) {
		t.Fatalf("under a %d-byte cap: %d rows in %d batches", limit, len(rows), len(batches))
	}

	c = CombineStreamsOpts(context.Background(), spec, sources(), StreamOptions{Mode: FanInInterleave})
	if _, rows = drainBatches(t, c); len(rows) != 615 {
		t.Fatalf("interleaved: %d rows", len(rows))
	}
	c.Close()
}

// TestFanInBatchesOnlyWhenOffered: UNION distinct, a source that only
// yields rows, and a fan-in already read by rows keep decoding; a fan-in
// closed before its first pull started no feeder.
func TestFanInBatchesOnlyWhenOffered(t *testing.T) {
	ctx := context.Background()
	all := &Spec{Kind: UnionAll, Columns: []string{"id", "v"}}
	rowsOnly := &gatedStream{cols: []string{"id", "v"}, rows: []schema.Row{row2(1, 1)}}
	for name, c := range map[string]schema.RowStream{
		"distinct": CombineStreams(ctx, &Spec{Kind: UnionDistinct, Columns: []string{"id", "v"}},
			[]schema.RowStream{&batchSource{batches: []schema.Batch{encodeRun(0, 3)}}}),
		"row source": CombineStreams(ctx, all, []schema.RowStream{&batchSource{}, rowsOnly}),
	} {
		if schema.Batches(c) != nil {
			t.Errorf("%s: offers batches", name)
		}
		c.Close()
	}

	c := CombineStreams(ctx, all, []schema.RowStream{&batchSource{batches: []schema.Batch{encodeRun(0, 2)}}})
	if schema.Batches(c) == nil {
		t.Fatal("a fan-in over a batch source offers no batches")
	}
	if r, err := c.Next(ctx); err != nil || r == nil {
		t.Fatalf("Next: %v %v", r, err)
	}
	if schema.Batches(c) != nil {
		t.Fatal("a fan-in read by rows still offers batches")
	}
	if _, err := c.(schema.BatchStream).NextBatch(ctx); err == nil {
		t.Fatal("NextBatch after Next succeeded")
	}
	c.Close()

	src := &batchSource{batches: []schema.Batch{encodeRun(0, 3)}}
	c = CombineStreamsOpts(ctx, all, []schema.RowStream{src}, StreamOptions{Mode: FanInInterleave})
	if err := c.Close(); err != nil || !src.closed || len(src.batches) != 1 {
		t.Fatalf("close before the first pull: err %v, source closed %v, batches left %d", err, src.closed, len(src.batches))
	}
}
