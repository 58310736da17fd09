package value

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"testing"
)

// sameBits reports bit-for-bit identity: kinds and payloads equal,
// floats by their IEEE bits so NaN and -0.0 count.
func sameBits(a, b Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S && a.B == b.B &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

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
