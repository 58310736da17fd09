package value

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// The row codec: the one byte format rows take wherever they leave
// memory — WAL records, comm batch frames and spill runs. A row is
//
//	uvarint ncols, then per value: byte tag, then
//	  tagNull   nothing
//	  tagInt    zigzag varint
//	  tagFloat  8-byte little-endian IEEE 754 bits
//	  tagText   uvarint length + raw bytes (not required to be UTF-8)
//	  tagBool   one byte (0 = false, anything else = true)
//
// The format is the WAL's original value encoding, so logs written
// before the codec was shared replay unchanged.

// Value tags. Distinct from Kind so the byte format does not silently
// shift if the in-memory enum does.
const (
	tagNull  byte = 0
	tagInt   byte = 1
	tagFloat byte = 2
	tagText  byte = 3
	tagBool  byte = 4
)

// ErrCorrupt is wrapped by every decoding error.
var ErrCorrupt = errors.New("value: corrupt row encoding")

// AppendRow appends the encoding of row to b.
func AppendRow(b []byte, row []Value) []byte {
	b = binary.AppendUvarint(b, uint64(len(row)))
	for _, v := range row {
		b = appendValue(b, v)
	}
	return b
}

// AppendRowCols appends the encoding of the row row[cols[0]],
// row[cols[1]], … — AppendRow of that projection, without building it.
func AppendRowCols(b []byte, row []Value, cols []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(cols)))
	for _, c := range cols {
		b = appendValue(b, row[c])
	}
	return b
}

func appendValue(b []byte, v Value) []byte {
	switch v.K {
	case KindInt:
		b = append(b, tagInt)
		return binary.AppendVarint(b, v.RawInt())
	case KindFloat:
		b = append(b, tagFloat)
		return binary.LittleEndian.AppendUint64(b, v.N)
	case KindText:
		b = append(b, tagText)
		b = binary.AppendUvarint(b, uint64(len(v.S)))
		return append(b, v.S...)
	case KindBool:
		return append(b, tagBool, byte(v.N))
	default:
		return append(b, tagNull)
	}
}

// DecodeRow decodes the row at the front of b, appending its values to
// dst, and returns the extended slice and the number of bytes consumed.
// The result is never nil, even for a zero-column row. It bounds-checks
// every read: corrupt input is an error wrapping ErrCorrupt, never a
// panic, and since every value costs at least one byte a column count
// beyond len(b) fails before anything is allocated.
func DecodeRow(dst []Value, b []byte) ([]Value, int, error) {
	ncols, off := binary.Uvarint(b)
	if off <= 0 {
		return dst, 0, corrupt("truncated column count")
	}
	if ncols > uint64(len(b)-off) {
		return dst, 0, corrupt("column count %d exceeds %d remaining bytes", ncols, len(b)-off)
	}
	if dst == nil {
		dst = make([]Value, 0, ncols)
	} else {
		dst = slices.Grow(dst, int(ncols))
	}
	for i := uint64(0); i < ncols; i++ {
		v, n, err := decodeValue(b[off:])
		if err != nil {
			return dst, 0, fmt.Errorf("%w (column %d at byte %d)", err, i, off)
		}
		dst = append(dst, v)
		off += n
	}
	return dst, off, nil
}

func decodeValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, corrupt("truncated value")
	}
	switch tag := b[0]; tag {
	case tagNull:
		return Null(), 1, nil
	case tagInt:
		i, n := binary.Varint(b[1:])
		if n <= 0 {
			return Value{}, 0, corrupt("truncated integer")
		}
		return NewInt(i), 1 + n, nil
	case tagFloat:
		if len(b) < 9 {
			return Value{}, 0, corrupt("truncated float")
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[1:]))), 9, nil
	case tagText:
		l, n := binary.Uvarint(b[1:])
		if n <= 0 {
			return Value{}, 0, corrupt("truncated text length")
		}
		start := 1 + n
		if l > uint64(len(b)-start) {
			return Value{}, 0, corrupt("%d-byte text overruns %d remaining bytes", l, len(b)-start)
		}
		end := start + int(l)
		return NewText(string(b[start:end])), end, nil
	case tagBool:
		if len(b) < 2 {
			return Value{}, 0, corrupt("truncated boolean")
		}
		return NewBool(b[1] != 0), 2, nil
	default:
		return Value{}, 0, corrupt("unknown value tag %d", tag)
	}
}

// DecodeRows decodes exactly n rows that fill all of b — a batch of
// AppendRow encodings — appending them to dst. The rows share one
// backing array of values (each capped at its own length, so appending
// to one never clobbers its neighbour). A row count beyond len(b) is an
// error, not an allocation: every row costs at least one byte.
func DecodeRows[R ~[]Value](dst []R, n int, b []byte) ([]R, error) {
	if n < 0 || n > len(b) {
		return dst, corrupt("row count %d for a %d-byte batch", n, len(b))
	}
	dst = slices.Grow(dst, n)
	var vals []Value
	off := 0
	for i := 0; i < n; i++ {
		start := len(vals)
		var used int
		var err error
		vals, used, err = DecodeRow(vals, b[off:])
		if err != nil {
			return dst, fmt.Errorf("%w (row %d of %d)", err, i, n)
		}
		off += used
		if i == 0 && n > 1 {
			// Size the shared array from the first row's width, capped
			// by what the remaining bytes could possibly hold.
			want := (n - 1) * len(vals)
			if rest := len(b) - off; want > rest {
				want = rest
			}
			vals = slices.Grow(vals, want)
		}
		dst = append(dst, R(vals[start:len(vals):len(vals)]))
	}
	if off != len(b) {
		return dst, corrupt("%d trailing bytes after %d rows", len(b)-off, n)
	}
	return dst, nil
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// skipValue is decodeValue without building the value: the kind and
// encoded length of the value at the front of b, under the same checks.
func skipValue(b []byte) (Kind, int, error) {
	if len(b) == 0 {
		return KindNull, 0, corrupt("truncated value")
	}
	switch tag := b[0]; tag {
	case tagNull:
		return KindNull, 1, nil
	case tagInt:
		if n := uvarintLen(b[1:]); n > 0 {
			return KindInt, 1 + n, nil
		}
		return KindNull, 0, corrupt("truncated integer")
	case tagFloat:
		if len(b) < 9 {
			return KindNull, 0, corrupt("truncated float")
		}
		return KindFloat, 9, nil
	case tagText:
		l, n := uint64(0), 1
		if len(b) > 1 && b[1] < 0x80 {
			l = uint64(b[1])
		} else if l, n = binary.Uvarint(b[1:]); n <= 0 {
			return KindNull, 0, corrupt("truncated text length")
		}
		start := 1 + n
		if l > uint64(len(b)-start) {
			return KindNull, 0, corrupt("%d-byte text overruns %d remaining bytes", l, len(b)-start)
		}
		return KindText, start + int(l), nil
	case tagBool:
		if len(b) < 2 {
			return KindNull, 0, corrupt("truncated boolean")
		}
		return KindBool, 2, nil
	default:
		return KindNull, 0, corrupt("unknown value tag %d", tag)
	}
}

// AppendRowTail appends the encoding of the row encoded in row without
// its first skip values — AppendRow(dst, r[skip:]) for the r DecodeRow
// would return — copying the remaining values' bytes as they lie. row
// must be exactly one row's encoding, as a RowScanner range is. The
// skipped values are checked as skipValue checks them; a row of fewer
// than skip values is an error wrapping ErrCorrupt.
func AppendRowTail(dst, row []byte, skip int) ([]byte, error) {
	ncols, off := binary.Uvarint(row)
	if off <= 0 {
		return dst, corrupt("truncated column count")
	}
	if ncols < uint64(skip) {
		return dst, corrupt("%d values, want at least %d", ncols, skip)
	}
	for c := 0; c < skip; c++ {
		_, n, err := skipValue(row[off:])
		if err != nil {
			return dst, fmt.Errorf("%w (column %d at byte %d)", err, c, off)
		}
		off += n
	}
	dst = binary.AppendUvarint(dst, ncols-uint64(skip))
	return append(dst, row[off:]...), nil
}

// uvarintLen is the length of the uvarint at the front of b, or 0 where
// binary.Uvarint would fail (truncated, or over 64 bits).
func uvarintLen(b []byte) int {
	for i, c := range b {
		if i == binary.MaxVarintLen64 {
			return 0
		}
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return 0
			}
			return i + 1
		}
	}
	return 0
}

// RowScanner walks a batch of AppendRow encodings where it lies: it
// makes every check DecodeRows makes and finds each row's byte range,
// but decodes only the columns Need marks, into one reused row. Text
// nobody needs is skipped, not copied, and nothing else is allocated.
// A batch is walked with Reset, then Next until it reports the end.
type RowScanner struct {
	// Kinds, when non-nil, is the number of values every row must hold
	// and each column's declared kind.
	Kinds []Kind
	// Need, when non-nil, marks the columns Next decodes into Row.
	Need []bool
	// Row holds the needed columns of the row Next walked last, by
	// column position; the positions Need leaves unmarked stay NULL.
	Row []Value
	// Conform reports whether every non-NULL value walked since Reset
	// has its column's kind in Kinds.
	Conform bool

	b    []byte
	n, i int
	off  int
}

// Reset starts a walk over the n rows that must fill all of b. A row
// count beyond len(b) is an error, as in DecodeRows.
func (s *RowScanner) Reset(b []byte, n int) error {
	if n < 0 || n > len(b) {
		return corrupt("row count %d for a %d-byte batch", n, len(b))
	}
	s.b, s.n, s.i, s.off, s.Conform = b, n, 0, 0, true
	width := max(len(s.Kinds), len(s.Need))
	if cap(s.Row) < width {
		s.Row = make([]Value, width)
	}
	s.Row = s.Row[:width]
	clear(s.Row)
	return nil
}

// Next walks the next row and returns its byte range b[start:end]. Once
// all n rows are walked it reports ok=false, and a nil error only when
// they fill b exactly. Errors wrap ErrCorrupt.
func (s *RowScanner) Next() (start, end int, ok bool, err error) {
	if s.i == s.n {
		if s.off != len(s.b) {
			return 0, 0, false, corrupt("%d trailing bytes after %d rows", len(s.b)-s.off, s.n)
		}
		return 0, 0, false, nil
	}
	start = s.off
	b := s.b[start:]
	ncols, off := uint64(0), 1
	if len(b) > 0 && b[0] < 0x80 {
		ncols = uint64(b[0])
	} else {
		ncols, off = binary.Uvarint(b)
	}
	switch {
	case off <= 0:
		err = corrupt("truncated column count")
	case ncols > uint64(len(b)-off):
		err = corrupt("column count %d exceeds %d remaining bytes", ncols, len(b)-off)
	case s.Kinds != nil && ncols != uint64(len(s.Kinds)):
		err = corrupt("%d values, want %d", ncols, len(s.Kinds))
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("%w (row %d of %d)", err, s.i, s.n)
	}
	for c := 0; c < int(ncols); c++ {
		var k Kind
		var used int
		if c < len(s.Need) && s.Need[c] {
			var v Value
			v, used, err = decodeValue(b[off:])
			s.Row[c], k = v, v.K
		} else {
			k, used, err = skipValue(b[off:])
		}
		if err != nil {
			return 0, 0, false, fmt.Errorf("%w (column %d at byte %d) (row %d of %d)", err, c, off, s.i, s.n)
		}
		if s.Kinds != nil && k != KindNull && k != s.Kinds[c] {
			s.Conform = false
		}
		off += used
	}
	s.i++
	s.off = start + off
	return start, s.off, true, nil
}
