package spill

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/value"
)

// keyPools are the values a generated key column draws from, by
// column mode: one kind each (NULLs mixed in), then mixes that only the
// generic comparator may order — INT against FLOAT (widening, 1<<53+1
// included), and numbers against TEXT that may or may not parse — then
// NULL-free columns.
var keyPools = [][]value.Value{
	{value.Null(), value.NewInt(-1), value.NewInt(0), value.NewInt(2), value.NewInt(math.MaxInt64)},
	{value.Null(), value.NewFloat(math.NaN()), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0),
		value.NewFloat(-1.5), value.NewFloat(2), value.NewFloat(math.Inf(1))},
	{value.Null(), value.NewText(""), value.NewText("a"), value.NewText("b"), value.NewText("10"), value.NewText("9")},
	{value.Null(), value.NewBool(false), value.NewBool(true)},
	{value.NewInt(1<<53 + 1), value.NewFloat(1 << 53), value.NewInt(2), value.NewFloat(2), value.NewFloat(math.NaN())},
	{value.Null(), value.NewInt(10), value.NewFloat(9.5), value.NewText("10"), value.NewText("x"), value.NewBool(true)},
	// NULL-free (and NaN-free) columns: the numeric ones sort by radix.
	{value.NewFloat(math.Inf(-1)), value.NewFloat(-2), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0),
		value.NewFloat(3), value.NewFloat(math.MaxFloat64)},
	{value.NewInt(math.MinInt64), value.NewInt(-1), value.NewInt(0), value.NewInt(1), value.NewInt(256), value.NewInt(math.MaxInt64)},
	{value.NewBool(true), value.NewBool(false)},
}

// genSortInput decodes data into rows of three key columns plus their
// arrival index, and one to three sort keys over the key columns.
// data[0] picks the key count and directions, data[1..3] each key
// column's pool, and every later byte one value.
func genSortInput(data []byte) ([]schema.Row, []schema.SortKey) {
	if len(data) < 4 {
		return nil, nil
	}
	keys := make([]schema.SortKey, 1+int(data[0])%3)
	for i := range keys {
		keys[i] = schema.SortKey{Col: (i + int(data[0]>>2)) % 3, Desc: data[0]>>(4+i)&1 == 1}
	}
	pools := [3][]value.Value{}
	for c := range pools {
		pools[c] = keyPools[int(data[1+c])%len(keyPools)]
	}
	data = data[4:]
	rows := make([]schema.Row, 0, len(data)/3)
	for len(data) >= 3 {
		r := make(schema.Row, 4)
		for c := range pools {
			r[c] = pools[c][int(data[c])%len(pools[c])]
		}
		r[3] = value.NewInt(int64(len(rows)))
		rows = append(rows, r)
		data = data[3:]
	}
	return rows, keys
}

// drainSorter runs rows through s and returns the arrival indexes of
// its output.
func drainSorter(t testing.TB, s *Sorter, rows []schema.Row) []int64 {
	t.Helper()
	for _, r := range rows {
		if err := s.Add(r); err != nil {
			s.Close()
			t.Fatal(err)
		}
	}
	it, err := s.Finish()
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	defer it.Close()
	var out []int64
	for {
		r, err := it.Next(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			return out
		}
		out = append(out, r[3].RawInt())
	}
}

// checkKernel holds the radix sort to the generic stable sort: on every
// key column it can map, ASC and DESC, radixSort's permutation must be
// slices.SortStableFunc's under schema.CompareRowsBy. And the Sorter's
// output under keys, in memory and spilled, must be the generic
// comparator's row for row; spilled, both sorters' AppendRows bytes must
// be their Next rows encoded.
func checkKernel(t *testing.T, rows []schema.Row, keys []schema.SortKey) {
	t.Helper()
	for col := 0; col < 3; col++ {
		for _, desc := range []bool{false, true} {
			single := []schema.SortKey{{Col: col, Desc: desc}}
			u := radixKeys(nil, rows, single)
			if u == nil {
				continue
			}
			perm := make([]int32, len(rows))
			for i := range perm {
				perm[i] = int32(i)
			}
			radixSort(perm, u, make([]int32, len(perm)), make([]uint64, len(perm)))
			want := make([]int32, len(rows))
			for i := range want {
				want[i] = int32(i)
			}
			slices.SortStableFunc(want, func(a, b int32) int {
				return schema.CompareRowsBy(rows[a], rows[b], single)
			})
			if !slices.Equal(perm, want) {
				t.Fatalf("key %v: radix sort %v, stable sort %v", single, perm, want)
			}
		}
	}

	generic := func(a, b schema.Row) int { return schema.CompareRowsBy(a, b, keys) }
	// A total order — every key column of one kind, no NaN — has one
	// stable sort, so the output must also be slices.SortStableFunc's.
	var stable []int64
	if totalOrder(rows, keys) {
		sorted := slices.Clone(rows)
		slices.SortStableFunc(sorted, generic)
		for _, r := range sorted {
			stable = append(stable, r[3].RawInt())
		}
	}
	for _, limit := range []int64{0, 2048} {
		var budget *Budget
		if limit > 0 {
			budget = NewBudget(limit, t.TempDir())
		}
		got := drainSorter(t, NewSorter(budget, keys), rows)
		want := drainSorter(t, NewSorterFunc(budget, generic), rows)
		if !slices.Equal(got, want) {
			t.Fatalf("keys %v budget %d: sorter %v, generic %v", keys, limit, got, want)
		}
		if stable != nil && !slices.Equal(got, stable) {
			t.Fatalf("keys %v budget %d: sorter %v, stable sort %v", keys, limit, got, stable)
		}
		if limit == 0 || len(rows) == 0 {
			continue
		}
		// The byte path: AppendRows, 7 rows a call, each row without its
		// first key column, gives Next's rows encoded.
		for _, mk := range []func(*Budget) *Sorter{
			func(b *Budget) *Sorter { return NewSorter(b, keys) },
			func(b *Budget) *Sorter { return NewSorterFunc(b, generic) },
		} {
			bs := byteSort{rows: rows, limit: limit, make: mk}
			it := bs.finish(t, budget.Dir())
			want, _, err := nextBytes(it, 1)
			it.Close()
			if err != nil {
				t.Fatal(err)
			}
			it = bs.finish(t, budget.Dir())
			b, _, err := appendBytes(t, it, 1, 7)
			it.Close()
			if err != nil || string(b) != string(want) {
				t.Fatalf("keys %v budget %d: AppendRows %d bytes (%v), Next's rows %d bytes", keys, limit, len(b), err, len(want))
			}
		}
	}
}

// totalOrder reports whether every key column holds one kind of
// non-NULL value and no NaN, so that CompareRowsBy is transitive on it.
func totalOrder(rows []schema.Row, keys []schema.SortKey) bool {
	for _, k := range keys {
		kind := value.KindNull
		for _, r := range rows {
			v := r[k.Col]
			switch {
			case v.IsNull():
			case v.K == value.KindFloat && math.IsNaN(v.RawFloat()):
				return false
			case kind == value.KindNull:
				kind = v.K
			case v.K != kind:
				return false
			}
		}
	}
	return true
}

// TestSortKernelMatchesGeneric is the radix sort's and the Sorter's
// property test over random multi-key inputs: ASC and DESC keys holding
// NULL, NaN, ±0.0, INT/FLOAT mixes and text.
func TestSortKernelMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 150; trial++ {
		data := make([]byte, 4+3*rng.Intn(120))
		rng.Read(data)
		rows, keys := genSortInput(data)
		checkKernel(t, rows, keys)
	}
}

// FuzzSortKernel is TestSortKernelMatchesGeneric over fuzzed inputs.
func FuzzSortKernel(f *testing.F) {
	f.Add([]byte{0x00, 0, 1, 2, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{0xf2, 1, 4, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 2, 2, 2, 1, 1, 1})
	f.Add([]byte{0x35, 6, 6, 1, 3, 2, 1, 0, 1, 2, 3, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4+3*200 {
			data = data[:4+3*200]
		}
		rows, keys := genSortInput(data)
		checkKernel(t, rows, keys)
	})
}
