package schema

import (
	"math"
	"testing"

	"myriad/internal/value"
)

func TestCompareRowsBy(t *testing.T) {
	vi := func(i int64) value.Value { return value.NewInt(i) }
	keys := []SortKey{{Col: 0}, {Col: 1, Desc: true}}
	cases := []struct {
		a, b Row
		want int
	}{
		{Row{vi(1), vi(1)}, Row{vi(2), vi(1)}, -1},
		{Row{vi(2), vi(1)}, Row{vi(1), vi(9)}, 1},
		{Row{vi(1), vi(5)}, Row{vi(1), vi(3)}, -1}, // second key DESC
		{Row{vi(1), vi(3)}, Row{vi(1), vi(3)}, 0},
		// NULLs first ascending, so last under DESC.
		{Row{value.Null(), vi(0)}, Row{vi(0), vi(0)}, -1},
		{Row{vi(1), value.Null()}, Row{vi(1), vi(0)}, 1},
	}
	for i, c := range cases {
		got := CompareRowsBy(c.a, c.b, keys)
		if (got < 0) != (c.want < 0) || (got > 0) != (c.want > 0) {
			t.Errorf("case %d: CompareRowsBy = %d, want sign of %d", i, got, c.want)
		}
	}
}

// TestCompareSortSameKindInline: the inline same-kind comparisons give
// value.Compare's results, NULLs first, over every pair drawn from
// values of each kind — NaN, ±0.0 and infinities, int extremes, text
// that parses as a number — and their mixes.
func TestCompareSortSameKindInline(t *testing.T) {
	vals := []value.Value{
		value.Null(),
		value.NewInt(math.MinInt64), value.NewInt(-1), value.NewInt(0), value.NewInt(2), value.NewInt(math.MaxInt64),
		value.NewFloat(math.NaN()), value.NewFloat(math.Inf(-1)), value.NewFloat(math.Copysign(0, -1)),
		value.NewFloat(0), value.NewFloat(2), value.NewFloat(1 << 63), value.NewFloat(math.Inf(1)),
		value.NewText(""), value.NewText("10"), value.NewText("9"), value.NewText("a"),
		value.NewBool(false), value.NewBool(true),
	}
	sign := func(c int) int { return min(max(c, -1), 1) }
	for _, a := range vals {
		for _, b := range vals {
			var want int
			switch {
			case a.IsNull() && b.IsNull():
			case a.IsNull():
				want = -1
			case b.IsNull():
				want = 1
			default:
				want, _ = value.Compare(a, b)
			}
			if got := CompareSort(a, b); sign(got) != sign(want) {
				t.Errorf("CompareSort(%v, %v) = %d, want %d", a, b, got, want)
			}
			if got := CompareRowsBy(Row{a}, Row{b}, []SortKey{{Col: 0, Desc: true}}); sign(got) != -sign(want) {
				t.Errorf("CompareRowsBy(%v, %v) DESC = %d, want %d", a, b, got, -want)
			}
		}
	}
}

func TestStreamOrderingErasure(t *testing.T) {
	// A plain stream makes no promise.
	if ord := StreamOrdering(StreamOf(&ResultSet{Columns: []string{"a"}})); ord != nil {
		t.Fatalf("sliceStream claimed ordering %v", ord)
	}
	// Wrapping via StreamWithCleanup erases any guarantee — safe (nil
	// just means unordered).
	s := StreamWithCleanup(StreamOf(&ResultSet{Columns: []string{"a"}}), func() {})
	if ord := StreamOrdering(s); ord != nil {
		t.Fatalf("wrapper claimed ordering %v", ord)
	}
}
