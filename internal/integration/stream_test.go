package integration

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"myriad/internal/schema"
)

// gatedStream yields its rows only once gate is closed (nil gate =
// immediately), emulating a slow site behind a fast one.
type gatedStream struct {
	cols   []string
	rows   []schema.Row
	gate   chan struct{}
	err    error // returned after rows are exhausted, instead of EOF
	pos    int
	closed bool
}

func (g *gatedStream) Columns() []string { return g.cols }

func (g *gatedStream) Next(ctx context.Context) (schema.Row, error) {
	if g.gate != nil {
		select {
		case <-g.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if g.closed {
		return nil, nil
	}
	if g.pos >= len(g.rows) {
		return nil, g.err
	}
	r := g.rows[g.pos]
	g.pos++
	return r, nil
}

func (g *gatedStream) Close() error { g.closed = true; return nil }

func row2(a, b int64) schema.Row { return schema.Row{vi(a), vi(b)} }

func drainN(t *testing.T, s schema.RowStream, n int) []schema.Row {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var out []schema.Row
	for i := 0; i < n; i++ {
		r, err := s.Next(ctx)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if r == nil {
			t.Fatalf("stream ended after %d rows, want %d", i, n)
		}
		out = append(out, r)
	}
	return out
}

func TestInterleaveNotGatedBySlowSource(t *testing.T) {
	spec := &Spec{Kind: UnionAll, Columns: []string{"id", "src"}}
	gate := make(chan struct{})
	slow := &gatedStream{cols: spec.Columns, gate: gate,
		rows: []schema.Row{row2(10, 0), row2(11, 0)}}
	fast := &gatedStream{cols: spec.Columns,
		rows: []schema.Row{row2(1, 1), row2(2, 1), row2(3, 1)}}

	c := CombineStreamsOpts(context.Background(), spec, []schema.RowStream{slow, fast},
		StreamOptions{Mode: FanInInterleave})
	defer c.Close()

	// The slow source (index 0) is wedged; the fast one's rows must
	// arrive anyway — under source order they would wait forever.
	for i, r := range drainN(t, c, 3) {
		if src, _ := r[1].Int(); src != 1 {
			t.Fatalf("row %d came from source %d while the fast source had rows", i, src)
		}
	}
	close(gate)
	rest := drainN(t, c, 2)
	for _, r := range rest {
		if src, _ := r[1].Int(); src != 0 {
			t.Fatalf("expected slow source rows after release, got %v", r)
		}
	}
	if r, err := c.Next(context.Background()); err != nil || r != nil {
		t.Fatalf("want clean EOF, got %v, %v", r, err)
	}
}

func TestInterleaveDistinctDedups(t *testing.T) {
	spec := &Spec{Kind: UnionDistinct, Columns: []string{"id", "v"}}
	a := &gatedStream{cols: spec.Columns, rows: []schema.Row{row2(1, 1), row2(2, 2)}}
	b := &gatedStream{cols: spec.Columns, rows: []schema.Row{row2(2, 2), row2(3, 3)}}
	c := CombineStreamsOpts(context.Background(), spec, []schema.RowStream{a, b},
		StreamOptions{Mode: FanInInterleave})
	defer c.Close()
	rs, err := schema.DrainStream(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("distinct interleave rows = %d, want 3: %v", len(rs.Rows), rs.Rows)
	}
}

func TestInterleaveErrorSurfaces(t *testing.T) {
	spec := &Spec{Kind: UnionAll, Columns: []string{"id", "v"}}
	boom := errors.New("site boom")
	bad := &gatedStream{cols: spec.Columns, rows: []schema.Row{row2(1, 1)}, err: boom}
	ok := &gatedStream{cols: spec.Columns, rows: []schema.Row{row2(2, 2)}}
	c := CombineStreamsOpts(context.Background(), spec, []schema.RowStream{bad, ok},
		StreamOptions{Mode: FanInInterleave})
	defer c.Close()
	_, err := schema.DrainStream(context.Background(), c)
	if !errors.Is(err, boom) {
		t.Fatalf("source error lost: %v", err)
	}
}

func TestInterleaveHonorsPerCallContext(t *testing.T) {
	spec := &Spec{Kind: UnionAll, Columns: []string{"id", "v"}}
	wedged := &gatedStream{cols: spec.Columns, gate: make(chan struct{}), rows: []schema.Row{row2(1, 1)}}
	c := CombineStreamsOpts(context.Background(), spec, []schema.RowStream{wedged},
		StreamOptions{Mode: FanInInterleave})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled pull reported %v, want deadline", err)
	}
}

func TestMergeOrderedIsStable(t *testing.T) {
	spec := &Spec{Kind: UnionAll, Columns: []string{"k", "src"}}
	// Both sources sorted ascending on k; k=3 appears in both — the
	// stable merge must emit source 0's tie first.
	s0 := &gatedStream{cols: spec.Columns, rows: []schema.Row{row2(1, 0), row2(3, 0), row2(5, 0)}}
	s1 := &gatedStream{cols: spec.Columns, rows: []schema.Row{row2(2, 1), row2(3, 1), row2(4, 1)}}
	c := CombineStreamsOpts(context.Background(), spec, []schema.RowStream{s0, s1},
		StreamOptions{Mode: FanInMergeOrdered, MergeKeys: []schema.SortKey{{Col: 0}}})
	defer c.Close()
	rs, err := schema.DrainStream(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 0}, {2, 1}, {3, 0}, {3, 1}, {4, 1}, {5, 0}}
	if len(rs.Rows) != len(want) {
		t.Fatalf("merged %d rows, want %d", len(rs.Rows), len(want))
	}
	for i, w := range want {
		k, _ := rs.Rows[i][0].Int()
		src, _ := rs.Rows[i][1].Int()
		if k != w[0] || src != w[1] {
			t.Fatalf("row %d = (%d,%d), want (%d,%d)", i, k, src, w[0], w[1])
		}
	}
}

func TestMergeOrderedDescWithNulls(t *testing.T) {
	spec := &Spec{Kind: UnionAll, Columns: []string{"k", "src"}}
	// DESC with NULLs last (the engine sorts NULLs first ascending, so
	// descending they trail) — both sources already in that order.
	s0 := &gatedStream{cols: spec.Columns, rows: []schema.Row{
		{vi(9), vi(0)}, {vi(4), vi(0)}, {vn(), vi(0)}}}
	s1 := &gatedStream{cols: spec.Columns, rows: []schema.Row{
		{vi(7), vi(1)}, {vi(4), vi(1)}}}
	c := CombineStreamsOpts(context.Background(), spec, []schema.RowStream{s0, s1},
		StreamOptions{Mode: FanInMergeOrdered, MergeKeys: []schema.SortKey{{Col: 0, Desc: true}}})
	defer c.Close()
	rs, err := schema.DrainStream(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rs.Rows {
		got = append(got, fmt.Sprintf("%s/%s", r[0].Text(), r[1].Text()))
	}
	want := []string{"9/0", "7/1", "4/0", "4/1", "NULL/0"}
	if len(got) != len(want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged %v, want %v", got, want)
		}
	}
}

func TestMergeWithoutKeysFallsBackToSourceOrder(t *testing.T) {
	spec := &Spec{Kind: UnionAll, Columns: []string{"k", "src"}}
	s0 := &gatedStream{cols: spec.Columns, rows: []schema.Row{row2(5, 0)}}
	s1 := &gatedStream{cols: spec.Columns, rows: []schema.Row{row2(1, 1)}}
	c := CombineStreamsOpts(context.Background(), spec, []schema.RowStream{s0, s1},
		StreamOptions{Mode: FanInMergeOrdered}) // no MergeKeys
	defer c.Close()
	rs, err := schema.DrainStream(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if src, _ := rs.Rows[0][1].Int(); src != 0 {
		t.Fatalf("fallback did not keep source order: %v", rs.Rows)
	}
}

func TestMergeErrorSurfaces(t *testing.T) {
	spec := &Spec{Kind: UnionAll, Columns: []string{"k", "src"}}
	boom := errors.New("mid-merge boom")
	s0 := &gatedStream{cols: spec.Columns, rows: []schema.Row{row2(1, 0)}, err: boom}
	s1 := &gatedStream{cols: spec.Columns, rows: []schema.Row{row2(2, 1), row2(3, 1)}}
	c := CombineStreamsOpts(context.Background(), spec, []schema.RowStream{s0, s1},
		StreamOptions{Mode: FanInMergeOrdered, MergeKeys: []schema.SortKey{{Col: 0}}})
	defer c.Close()
	_, err := schema.DrainStream(context.Background(), c)
	if !errors.Is(err, boom) {
		t.Fatalf("merge lost the source error: %v", err)
	}
}

// siteStream is a gatedStream that names its site, as the executor's
// metered site streams do.
type siteStream struct {
	*gatedStream
	site string
}

func (s siteStream) Site() string { return s.site }

// TestMergeRejectsUnsortedSource: a source whose rows go backwards on
// the merge keys (here the second key, DESC) fails the merge with
// ErrUnsortedSource naming its site, instead of yielding a misordered
// answer; every source is closed with the stream.
func TestMergeRejectsUnsortedSource(t *testing.T) {
	spec := &Spec{Kind: UnionAll, Columns: []string{"k", "src"}}
	keys := []schema.SortKey{{Col: 0}, {Col: 1, Desc: true}}
	s0 := &gatedStream{cols: spec.Columns, rows: []schema.Row{row2(1, 0), row2(4, 0)}}
	s1 := &gatedStream{cols: spec.Columns, rows: []schema.Row{row2(2, 5), row2(2, 7), row2(3, 1)}}
	c := CombineStreamsOpts(context.Background(), spec,
		[]schema.RowStream{s0, siteStream{s1, "east"}},
		StreamOptions{Mode: FanInMergeOrdered, MergeKeys: keys})
	_, err := schema.DrainStream(context.Background(), c)
	if !errors.Is(err, ErrUnsortedSource) || !strings.Contains(err.Error(), "site east") {
		t.Fatalf("unsorted source: err = %v", err)
	}
	c.Close()
	if !s0.closed || !s1.closed {
		t.Fatalf("sources left open: %v %v", s0.closed, s1.closed)
	}
}

func TestWindowBatchesBudget(t *testing.T) {
	cases := []struct{ sources, budget, want int }{
		{2, 0, 8},           // default budget: deeper windows for few sources
		{4, 0, 4},           // the old fixed credit at the 4-source point
		{16, 0, 1},          // windows shrink as sources multiply
		{64, 0, 1},          // never below one batch
		{2, 512, 1},         // tight budget
		{1, 1 << 20, 16},    // capped however large the budget
		{2, 3 * 256 * 2, 3}, // exact division
	}
	for _, c := range cases {
		if got := windowBatches(c.sources, c.budget); got != c.want {
			t.Errorf("windowBatches(%d, %d) = %d, want %d", c.sources, c.budget, got, c.want)
		}
	}
}
