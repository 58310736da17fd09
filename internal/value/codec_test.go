package value

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"testing"
)

// sameBits reports bit-for-bit identity: kinds and payloads equal, so
// a NaN matches itself and -0.0 does not match 0.0. That is struct
// equality, since a FLOAT's payload is its IEEE bits.
func sameBits(a, b Value) bool { return a == b }

func edgeRow() []Value {
	return []Value{
		Null(), NewInt(0), NewInt(-1), NewInt(math.MinInt64), NewInt(math.MaxInt64),
		NewFloat(math.NaN()), NewFloat(math.Copysign(0, -1)), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewText(""), NewText("\xff\xfe"), NewBool(true), NewBool(false),
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	for _, row := range [][]Value{edgeRow(), {}, {NewText("solo")}} {
		b := AppendRow([]byte{0xaa}, row) // appends after existing bytes
		got, n, err := DecodeRow(nil, b[1:])
		if err != nil {
			t.Fatalf("%v: %v", row, err)
		}
		if n != len(b)-1 || got == nil || len(got) != len(row) {
			t.Fatalf("%v: consumed %d of %d, decoded %v", row, n, len(b)-1, got)
		}
		for i := range row {
			if !sameBits(got[i], row[i]) {
				t.Fatalf("column %d: %#v, want %#v", i, got[i], row[i])
			}
		}
	}
}

// TestRowCodecBytes pins the byte layout to the WAL's historical value
// encoding (tags 0-4, zigzag ints, little-endian float bits,
// uvarint-prefixed text).
func TestRowCodecBytes(t *testing.T) {
	row := []Value{Null(), NewInt(-2), NewFloat(1), NewText("hi"), NewBool(true)}
	want := "05" + "00" + "0103" + "02000000000000f03f" + "03026869" + "0401"
	if got := hex.EncodeToString(AppendRow(nil, row)); got != want {
		t.Fatalf("encoded %s, want %s", got, want)
	}
}

func TestDecodeRowRejectsCorruption(t *testing.T) {
	for name, b := range map[string][]byte{
		"empty":          {},
		"huge ncols":     {0xff, 0xff, 0xff, 0xff, 0x0f, 0},
		"ncols > bytes":  {3, 0, 0},
		"unknown tag":    {1, 9},
		"truncated int":  {1, 1, 0x80},
		"short float":    {1, 2, 0, 0, 0},
		"text overrun":   {1, 3, 5, 'a'},
		"missing bool":   {1, 4},
		"truncated text": {1, 3, 0x80},
	} {
		if _, _, err := DecodeRow(nil, b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestDecodeRows(t *testing.T) {
	rows := [][]Value{edgeRow(), {}, {NewInt(7), NewText("x")}}
	var b []byte
	for _, r := range rows {
		b = AppendRow(b, r)
	}
	got, err := DecodeRows([][]Value(nil), len(rows), b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) || got[1] == nil {
		t.Fatalf("decoded %v", got)
	}
	// Rows share a backing array but are capped: appending to one must
	// not clobber the next.
	_ = append(got[0], NewInt(99))
	if !sameBits(got[2][0], NewInt(7)) {
		t.Fatalf("append to row 0 clobbered row 2: %v", got[2])
	}
	for name, tc := range map[string]struct {
		n int
		b []byte
	}{
		"too few rows":   {len(rows) - 1, b},
		"too many rows":  {len(rows) + 1, b},
		"negative count": {-1, b},
		"count > bytes":  {len(b) + 1, b},
	} {
		if _, err := DecodeRows([][]Value(nil), tc.n, tc.b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzDecodeRow feeds arbitrary bytes to the row decoder. It must never
// panic, never hold more values or text than the input has bytes (a
// claimed count is checked against the payload before any allocation),
// and whatever it accepts must re-encode to bytes that decode back to
// the same row and re-encode identically (the encoding of a decoded row
// is canonical even when the input used overlong varints).
func FuzzDecodeRow(f *testing.F) {
	f.Add(AppendRow(nil, edgeRow()))
	f.Add(AppendRow(nil, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{2, 3, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		row, n, err := DecodeRow(nil, data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if n <= 0 || n > len(data) || row == nil {
			t.Fatalf("consumed %d of %d bytes, row %v", n, len(data), row)
		}
		text := 0
		for _, v := range row {
			text += len(v.S)
		}
		if cap(row) > n || text > n {
			t.Fatalf("%d-byte row decoded into cap %d values and %d text bytes", n, cap(row), text)
		}
		canon := AppendRow(nil, row)
		again, m, err := DecodeRow(nil, canon)
		if err != nil || m != len(canon) || len(again) != len(row) {
			t.Fatalf("re-decoding %x: %v (consumed %d of %d)", canon, err, m, len(canon))
		}
		for i := range row {
			if !sameBits(again[i], row[i]) {
				t.Fatalf("column %d: %#v re-decoded as %#v", i, row[i], again[i])
			}
		}
		if re := AppendRow(nil, again); !bytes.Equal(re, canon) {
			t.Fatalf("encoding not canonical: %x then %x", canon, re)
		}
	})
}

// scanAll walks b's n rows with s, returning each row's byte range and
// a copy of its needed columns.
func scanAll(s *RowScanner, b []byte, n int) (ranges [][2]int, needed [][]Value, err error) {
	if err := s.Reset(b, n); err != nil {
		return nil, nil, err
	}
	for {
		start, end, ok, err := s.Next()
		if err != nil || !ok {
			return ranges, needed, err
		}
		ranges = append(ranges, [2]int{start, end})
		needed = append(needed, append([]Value(nil), s.Row...))
	}
}

func TestRowScanner(t *testing.T) {
	rows := [][]Value{
		{NewInt(1), NewText("skipped"), NewFloat(2.5)},
		{Null(), NewText(""), NewInt(3)}, // an INTEGER under a FLOAT column
		{NewInt(-7), Null(), Null()},
	}
	var b []byte
	var ends []int
	for _, r := range rows {
		b = AppendRow(b, r)
		ends = append(ends, len(b))
	}
	s := &RowScanner{Kinds: []Kind{KindInt, KindText, KindFloat}, Need: []bool{true, false, true}}
	ranges, needed, err := scanAll(s, b, len(rows))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ranges {
		if want := ends[i]; r[1] != want || (i > 0 && r[0] != ends[i-1]) {
			t.Fatalf("row %d spans %v, want end %d", i, r, want)
		}
		if !sameBits(needed[i][0], rows[i][0]) || !sameBits(needed[i][2], rows[i][2]) || !needed[i][1].IsNull() {
			t.Fatalf("row %d needed columns %v, want %v with column 1 skipped", i, needed[i], rows[i])
		}
	}
	if s.Conform {
		t.Fatal("an INTEGER under a FLOAT column reported conforming")
	}
	s.Kinds[2] = KindInt
	s.Kinds[0] = KindInt
	if _, _, err := scanAll(s, b, len(rows)); err != nil || s.Conform {
		t.Fatalf("a FLOAT under an INTEGER column: err %v, conform %v", err, s.Conform)
	}
	if _, _, err := scanAll(s, b[ends[0]:], 2); err != nil || !s.Conform {
		t.Fatalf("rows 1-2 under (INT, TEXT, INT): err %v, conform %v", err, s.Conform)
	}
	for name, tc := range map[string]struct {
		kinds []Kind
		n     int
		b     []byte
	}{
		"too few rows":   {nil, len(rows) - 1, b},
		"too many rows":  {nil, len(rows) + 1, b},
		"negative count": {nil, -1, b},
		"truncated":      {nil, len(rows), b[:len(b)-1]},
		"arity":          {[]Kind{KindInt, KindText}, len(rows), b},
	} {
		s := &RowScanner{Kinds: tc.kinds}
		if _, _, err := scanAll(s, tc.b, tc.n); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestRowScannerAllocates(t *testing.T) {
	var b []byte
	for i := 0; i < 64; i++ {
		b = AppendRow(b, []Value{NewInt(int64(i)), NewText("some text"), NewFloat(float64(i))})
	}
	s := &RowScanner{Kinds: []Kind{KindInt, KindText, KindFloat}, Need: []bool{false, false, true}}
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.Reset(b, 64); err != nil {
			t.Fatal(err)
		}
		for {
			_, _, ok, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("walking 64 rows allocated %.0f times", allocs)
	}
}

// FuzzScanRows holds the walker to DecodeRows: on any batch, row count
// and column shape it accepts exactly what DecodeRows accepts (and,
// given Kinds, only rows of that width), and on accepted input it finds
// the same row boundaries, gives the same kinds verdict and decodes the
// needed columns to the same values. Each shape byte is one column:
// its low bits a declared kind, bit 3 whether the column is needed.
func FuzzScanRows(f *testing.F) {
	for _, b := range [][]byte{
		AppendRow(nil, edgeRow()),
		AppendRow(nil, nil),
		{0xff, 0xff, 0xff, 0xff, 0x0f},
		{2, 3, 0x80, 0x80, 0x01},
	} {
		f.Add(b, uint8(1), []byte{0x09, 0x02, 0x0b}, true)
		f.Add(b, uint8(1), []byte{0x08}, false)
	}
	two := AppendRow(AppendRow(nil, []Value{NewInt(1), NewText("a")}), []Value{NewFloat(2), Null()})
	f.Add(two, uint8(2), []byte{0x09, 0x0b}, true)
	// Ten-byte varints: the longest valid one, and one past 64 bits.
	nines := bytes.Repeat([]byte{0xff}, 9)
	for _, last := range []byte{0x01, 0x02} {
		f.Add(append(append([]byte{1, tagInt}, nines...), last), uint8(1), []byte{0x01}, true)
		f.Add(append(append([]byte{1, tagText}, nines...), last), uint8(1), []byte{0x03}, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint8, shape []byte, withKinds bool) {
		s := &RowScanner{}
		if withKinds {
			s.Kinds = make([]Kind, 0, len(shape))
		}
		for _, c := range shape {
			s.Need = append(s.Need, c&0x08 != 0)
			if withKinds {
				s.Kinds = append(s.Kinds, Kind(c&0x07%5))
			}
		}
		ranges, needed, err := scanAll(s, data, int(n))
		rows, derr := DecodeRows([][]Value(nil), int(n), data)
		accept := derr == nil
		conform := true
		for _, r := range rows {
			if withKinds && len(r) != len(s.Kinds) {
				accept = false
			}
			for c, v := range r {
				if withKinds && c < len(s.Kinds) && !v.IsNull() && v.K != s.Kinds[c] {
					conform = false
				}
			}
		}
		if (err == nil) != accept {
			t.Fatalf("walker err %v, DecodeRows err %v (accept %v)", err, derr, accept)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if len(ranges) != len(rows) {
			t.Fatalf("walked %d rows, decoded %d", len(ranges), len(rows))
		}
		at := 0
		for i, r := range ranges {
			row, used, rerr := DecodeRow(nil, data[r[0]:r[1]])
			if r[0] != at || rerr != nil || used != r[1]-r[0] || len(row) != len(rows[i]) {
				t.Fatalf("row %d range %v (expected start %d): %v, %d bytes used", i, r, at, rerr, used)
			}
			at = r[1]
			for c, need := range s.Need {
				if need && c < len(rows[i]) && !sameBits(needed[i][c], rows[i][c]) {
					t.Fatalf("row %d column %d: walker %#v, decoder %#v", i, c, needed[i][c], rows[i][c])
				}
			}
		}
		if at != len(data) {
			t.Fatalf("rows end at %d of %d bytes", at, len(data))
		}
		if withKinds && s.Conform != conform {
			t.Fatalf("conform verdict %v, want %v", s.Conform, conform)
		}
	})
}

// scanBatch is a 256-row batch shaped like a federated scan's rows: an
// id, a name, two floats and a category.
func scanBatch() []byte {
	var b []byte
	for i := 0; i < 256; i++ {
		b = AppendRow(b, []Value{NewInt(int64(i * 397)), NewText("part-name-" + string(rune('a'+i%26))),
			NewFloat(float64(i) * 1.5), NewFloat(12.25), NewText("category-3")})
	}
	return b
}

// BenchmarkScanRows walks a batch checking kinds and decoding the one
// column a filter reads; BenchmarkDecodeRowsBatch decodes it whole.
func BenchmarkScanRows(b *testing.B) {
	p := scanBatch()
	s := &RowScanner{Kinds: []Kind{KindInt, KindText, KindFloat, KindFloat, KindText}, Need: []bool{false, false, true}}
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		if err := s.Reset(p, 256); err != nil {
			b.Fatal(err)
		}
		for {
			_, _, ok, err := s.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
	}
}

func BenchmarkDecodeRowsBatch(b *testing.B) {
	p := scanBatch()
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRows([][]Value(nil), 256, p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendRowCols: encoding chosen columns of a row — repeated,
// reordered or none — gives AppendRow's bytes for the projected row.
func TestAppendRowCols(t *testing.T) {
	row := []Value{NewInt(-3), NewFloat(math.NaN()), NewText("a\x1fb"), Null(), NewBool(true)}
	for _, cols := range [][]int{nil, {0, 1, 2, 3, 4}, {4, 2, 2, 0}, {3}} {
		proj := make([]Value, len(cols))
		for i, c := range cols {
			proj[i] = row[c]
		}
		if got, want := AppendRowCols([]byte{9}, row, cols), AppendRow([]byte{9}, proj); string(got) != string(want) {
			t.Errorf("cols %v: %x, want %x", cols, got, want)
		}
	}
}

// TestAppendRowTail: AppendRowTail of a row's encoding is AppendRow of
// the row without its first skip values, for every skip over the edge
// row; a corrupt skipped value, or too few values, wraps ErrCorrupt.
func TestAppendRowTail(t *testing.T) {
	row := append(edgeRow(), NewText("x\x1fy"), NewInt(1<<40))
	enc := AppendRow(nil, row)
	for skip := 0; skip <= len(row); skip++ {
		got, err := AppendRowTail([]byte{9}, enc, skip)
		if want := AppendRow([]byte{9}, row[skip:]); err != nil || string(got) != string(want) {
			t.Fatalf("skip %d: %x, %v; want %x", skip, got, err, want)
		}
	}
	for name, tc := range map[string]struct {
		b    []byte
		skip int
	}{
		"empty":         {nil, 0},
		"too few":       {AppendRow(nil, []Value{NewInt(1)}), 2},
		"unknown tag":   {[]byte{2, 9, 0}, 1},
		"truncated int": {[]byte{2, 1, 0x80}, 1},
		"text overrun":  {[]byte{2, 3, 5, 'a', 0}, 1},
	} {
		if _, err := AppendRowTail(nil, tc.b, tc.skip); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}
