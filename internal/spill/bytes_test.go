package spill

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/value"
)

// byteSort is one sort under test: its rows and how to build the
// sorter, so that the value path and the byte path can each run an
// identical sort.
type byteSort struct {
	name  string
	rows  []schema.Row
	limit int64 // budget bytes (0 = unlimited, never spills)
	make  func(*Budget) *Sorter
}

// finish runs the sort into a fresh budget over dir.
func (bs byteSort) finish(t *testing.T, dir string) *Iterator {
	t.Helper()
	var budget *Budget
	if bs.limit > 0 {
		budget = NewBudget(bs.limit, dir)
	}
	s := bs.make(budget)
	for _, r := range bs.rows {
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
	return it
}

// nextBytes drains it with Next and encodes each row without its first
// skip values, stopping at the first error.
func nextBytes(it *Iterator, skip int) ([]byte, int, error) {
	var b []byte
	n := 0
	for {
		r, err := it.Next(context.Background())
		if err != nil || r == nil {
			return b, n, err
		}
		b = value.AppendRow(b, r[skip:])
		n++
	}
}

// appendBytes drains it with AppendRows, chunk rows a call.
func appendBytes(t *testing.T, it *Iterator, skip, chunk int) ([]byte, int, error) {
	t.Helper()
	var b []byte
	total := 0
	for {
		var n int
		var err error
		b, n, err = it.AppendRows(context.Background(), b, skip, chunk)
		if n > chunk {
			t.Fatalf("AppendRows gave %d rows for max %d", n, chunk)
		}
		total += n
		if err != nil || n == 0 {
			return b, total, err
		}
	}
}

// checkBytePath holds AppendRows' bytes, at several skips and chunk
// sizes, to Next's rows encoded, and requires the spill dir to be empty
// once each iterator is closed. It returns whether the sort spilled.
func checkBytePath(t *testing.T, bs byteSort) bool {
	t.Helper()
	dir := t.TempDir()
	it := bs.finish(t, dir)
	spilled := it.Spilled()
	it.Close()
	width := len(bs.rows[0])
	for _, skip := range []int{0, 1, width} {
		it := bs.finish(t, dir)
		want, wn, err := nextBytes(it, skip)
		it.Close()
		if err != nil {
			t.Fatalf("%s: Next: %v", bs.name, err)
		}
		if wn != len(bs.rows) {
			t.Fatalf("%s: Next gave %d of %d rows", bs.name, wn, len(bs.rows))
		}
		for _, chunk := range []int{1, 7, 256} {
			it := bs.finish(t, dir)
			got, n, err := appendBytes(t, it, skip, chunk)
			it.Close()
			if err != nil {
				t.Fatalf("%s skip %d chunk %d: AppendRows: %v", bs.name, skip, chunk, err)
			}
			if n != wn || string(got) != string(want) {
				t.Fatalf("%s skip %d chunk %d: AppendRows gave %d rows in %d bytes, Next %d in %d",
					bs.name, skip, chunk, n, len(got), wn, len(want))
			}
		}
	}
	if left := runFiles(t, dir); len(left) != 0 {
		t.Fatalf("%s: run files left: %v", bs.name, left)
	}
	return spilled
}

// keyValue draws a key of one kind, with NULLs and heavy ties.
func keyValue(rng *rand.Rand, kind string) value.Value {
	if rng.Intn(8) == 0 {
		return value.Null()
	}
	switch kind {
	case "int":
		return value.NewInt(int64(rng.Intn(40) - 20))
	case "float":
		pool := []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -2, math.Inf(1), math.Inf(-1)}
		return value.NewFloat(pool[rng.Intn(len(pool))])
	default:
		pool := []string{"", "a", "ab", "b", "10", "9", "héllo", "x\x1fy"}
		return value.NewText(pool[rng.Intn(len(pool))])
	}
}

// keyedRows is n rows [k0, k1, arrival, payload] with k0 and k1 of the
// given kinds.
func keyedRows(rng *rand.Rand, n int, k0, k1 string) []schema.Row {
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{keyValue(rng, k0), keyValue(rng, k1), value.NewInt(int64(i)),
			value.NewText(fmt.Sprintf("payload-%d", rng.Intn(1000)))}
	}
	return rows
}

// TestAppendRowsMatchesNext: the byte path equals the value path for
// sorts in memory, over 2 to 5 runs and over more runs than one merge
// reads (compaction); on INT, FLOAT (NaN, ±0.0), TEXT and NULL keys, ASC
// and DESC, one key and two, heavy ties, and a NewSorterFunc comparator,
// whose merge decodes whole rows.
func TestAppendRowsMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	keySets := []struct {
		name   string
		k0, k1 string
		keys   []schema.SortKey
	}{
		{"int", "int", "int", []schema.SortKey{{Col: 0}}},
		{"float desc", "float", "int", []schema.SortKey{{Col: 0, Desc: true}}},
		{"text", "text", "int", []schema.SortKey{{Col: 0}}},
		{"text, float desc", "text", "float", []schema.SortKey{{Col: 0}, {Col: 1, Desc: true}}},
		{"second column only", "int", "float", []schema.SortKey{{Col: 1}}},
	}
	// A row holds about 170 bytes of budget: 60 rows under 3 KB and 120
	// under 4 KB make 4 and 5 runs, 2,000 under 2 KB well over
	// maxMergeFanIn.
	sizes := []struct {
		n     int
		limit int64
		runs  string
	}{
		{300, 0, "in memory"},
		{60, 3 << 10, "2-5 runs"},
		{120, 4 << 10, "2-5 runs"},
		{2000, 2 << 10, "compaction"},
	}
	for _, ks := range keySets {
		for _, sz := range sizes {
			rows := keyedRows(rng, sz.n, ks.k0, ks.k1)
			keys := ks.keys
			for _, sorter := range []struct {
				name string
				make func(*Budget) *Sorter
			}{
				{"keys", func(b *Budget) *Sorter { return NewSorter(b, keys) }},
				{"func", func(b *Budget) *Sorter {
					return NewSorterFunc(b, func(a, b schema.Row) int { return schema.CompareRowsBy(a, b, keys) })
				}},
			} {
				bs := byteSort{name: fmt.Sprintf("%s/%s/%d rows/%s", ks.name, sz.runs, sz.n, sorter.name),
					rows: rows, limit: sz.limit, make: sorter.make}
				if spilled := checkBytePath(t, bs); spilled != (sz.limit > 0) {
					t.Fatalf("%s: spilled %v", bs.name, spilled)
				}
			}
		}
	}
	// The compaction case must really have compacted.
	budget := NewBudget(2<<10, t.TempDir())
	s := NewSorter(budget, []schema.SortKey{{Col: 0}})
	for _, r := range keyedRows(rng, 2000, "int", "int") {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.runs) <= maxMergeFanIn {
		t.Fatalf("%d runs, want more than %d", len(s.runs), maxMergeFanIn)
	}
	s.Close()
}

// TestAppendRowsRunBatchBoundaries: runs of runBatchRows-1,
// runBatchRows and runBatchRows+1 rows — a run ending short of, on and
// one past a codec batch.
func TestAppendRowsRunBatchBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	row := func(i int) schema.Row {
		return schema.Row{value.NewInt(int64(rng.Intn(50))), value.NewInt(int64(i)), value.NewFloat(float64(i) / 3)}
	}
	per := schema.RowBytes(row(0))
	for _, perRun := range []int{runBatchRows - 1, runBatchRows, runBatchRows + 1} {
		for _, runs := range []int{2, 3} {
			rows := make([]schema.Row, perRun*runs)
			for i := range rows {
				rows[i] = row(i)
			}
			budget := NewBudget(int64(perRun)*per, t.TempDir())
			s := NewSorter(budget, []schema.SortKey{{Col: 0}})
			for _, r := range rows {
				if err := s.Add(r); err != nil {
					t.Fatal(err)
				}
			}
			if len(s.runs) != runs-1 {
				t.Fatalf("%d rows a run: %d runs before Finish, want %d", perRun, len(s.runs), runs-1)
			}
			s.Close()
			checkBytePath(t, byteSort{name: fmt.Sprintf("%d rows a run, %d runs", perRun, runs),
				rows: rows, limit: int64(perRun) * per,
				make: func(b *Budget) *Sorter { return NewSorter(b, []schema.SortKey{{Col: 0}}) }})
		}
	}
}

// corruptRun overwrites the value tag of column col in row 5 of the
// second batch of the run file at path with an unknown tag.
func corruptRun(t *testing.T, path string, col int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for batch := 0; ; batch++ {
		n, k1 := binary.Uvarint(data[off:])
		size, k2 := binary.Uvarint(data[off+max(k1, 0):])
		if k1 <= 0 || k2 <= 0 {
			t.Fatalf("run %s has %d batches", path, batch)
		}
		off += k1 + k2
		if batch == 1 {
			body := data[off : off+int(size)]
			rows, err := value.DecodeRows([]schema.Row(nil), int(n), body)
			if err != nil {
				t.Fatal(err)
			}
			// The codec is canonical, so re-encoding finds the offsets;
			// a row's column count is one byte whatever its width here.
			at := 0
			for _, r := range rows[:5] {
				at += len(value.AppendRow(nil, r))
			}
			at += len(value.AppendRow(nil, rows[5][:col]))
			body[at] = 0x7f
			if err := os.WriteFile(path, data, 0o600); err != nil {
				t.Fatal(err)
			}
			return
		}
		off += int(size)
	}
}

// TestAppendRowsCorruptRun: a run with a bad value tag — in a key
// column, which the byte merge decodes, or past them, which it only
// walks — fails Next and AppendRows with the same ErrCorrupt-wrapped
// error under both sorter kinds, and leaves no file. Next's merge
// decodes the bad row's whole batch when it reads it, the byte merge
// only reaches the row, so AppendRows' output before the error extends
// Next's.
func TestAppendRowsCorruptRun(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rows := keyedRows(rng, 1500, "int", "float")
	keys := []schema.SortKey{{Col: 0}}
	makers := map[string]func(*Budget) *Sorter{
		"keys": func(b *Budget) *Sorter { return NewSorter(b, keys) },
		"func": func(b *Budget) *Sorter {
			return NewSorterFunc(b, func(a, b schema.Row) int { return schema.CompareRowsBy(a, b, keys) })
		},
	}
	for name, mk := range makers {
		for _, col := range []int{0, 3} {
			// drain sorts rows with the first run corrupted before the
			// merge opens it, and drains the result one way.
			drain := func(byBytes bool) ([]byte, error) {
				dir := t.TempDir()
				s := mk(NewBudget(32<<10, dir))
				for _, r := range rows {
					if err := s.Add(r); err != nil {
						t.Fatal(err)
					}
				}
				if len(s.runs) == 0 {
					t.Fatal("no run spilled")
				}
				corruptRun(t, s.runs[0].name, col)
				it, err := s.Finish()
				if err != nil {
					s.Close()
					if left := runFiles(t, dir); len(left) != 0 {
						t.Fatalf("run files left: %v", left)
					}
					return nil, err
				}
				var b []byte
				if byBytes {
					b, _, err = appendBytes(t, it, 1, 7)
				} else {
					b, _, err = nextBytes(it, 1)
				}
				it.Close()
				if left := runFiles(t, dir); len(left) != 0 {
					t.Fatalf("run files left: %v", left)
				}
				return b, err
			}
			wantB, wantErr := drain(false)
			gotB, gotErr := drain(true)
			if !errors.Is(wantErr, value.ErrCorrupt) || !errors.Is(gotErr, value.ErrCorrupt) {
				t.Fatalf("%s col %d: errors %v and %v, want ErrCorrupt", name, col, wantErr, gotErr)
			}
			if gotErr.Error() != wantErr.Error() || !strings.HasPrefix(string(gotB), string(wantB)) {
				t.Fatalf("%s col %d: AppendRows %d bytes then %v; Next %d bytes then %v",
					name, col, len(gotB), gotErr, len(wantB), wantErr)
			}
		}
	}
}

// TestAppendRowsCloseMidMerge: closing a spilled sort partway through
// AppendRows removes every run file and ends the stream.
func TestAppendRowsCloseMidMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	dir := t.TempDir()
	bs := byteSort{rows: keyedRows(rng, 2000, "text", "int"), limit: 2 << 10,
		make: func(b *Budget) *Sorter { return NewSorter(b, []schema.SortKey{{Col: 0}}) }}
	it := bs.finish(t, dir)
	if !it.Spilled() {
		t.Fatal("expected a spilled sort")
	}
	b, n, err := it.AppendRows(context.Background(), nil, 1, 300)
	if err != nil || n != 300 || len(b) == 0 {
		t.Fatalf("AppendRows: %d rows, %v", n, err)
	}
	it.Close()
	if left := runFiles(t, dir); len(left) != 0 {
		t.Fatalf("run files left after Close: %v", left)
	}
	if _, n, err := it.AppendRows(context.Background(), nil, 1, 10); n != 0 || err != nil {
		t.Fatalf("AppendRows after Close: %d rows, %v", n, err)
	}
}
