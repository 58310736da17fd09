package schema

import (
	"fmt"
	"strings"
	"unsafe"

	"myriad/internal/value"
)

// ResultSet is a materialized query result: column names plus rows. It
// is the unit shipped from component DBMSs through gateways to the
// federation and on to clients.
type ResultSet struct {
	Columns []string
	Rows    []Row
}

// rowSliceBytes and valueStructBytes approximate the Go heap footprint
// of a row: the slice header plus one value.Value struct per column,
// with text payloads added per value. Both are taken from the types, so
// the estimate follows any change to Value's layout.
const (
	rowSliceBytes    = int64(unsafe.Sizeof(Row(nil)))
	valueStructBytes = int64(unsafe.Sizeof(value.Value{}))
)

// RowBytes estimates the in-memory footprint of a row in bytes. It is
// the one sizing rule the spill budget, the GROUP BY accounting, and
// the byte-based stream windows all share, so "bytes" means the same
// thing at every layer that counts them.
func RowBytes(r Row) int64 {
	n := rowSliceBytes + valueStructBytes*int64(len(r))
	for _, v := range r {
		n += int64(len(v.S))
	}
	return n
}

// ColIndex returns the position of the named column, or -1.
func (rs *ResultSet) ColIndex(name string) int {
	for i, c := range rs.Columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// String renders a small ASCII table (for examples and myriadctl).
func (rs *ResultSet) String() string {
	widths := make([]int, len(rs.Columns))
	for i, c := range rs.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(rs.Rows))
	for ri, r := range rs.Rows {
		cells[ri] = make([]string, len(r))
		for ci, v := range r {
			s := v.Text()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], v)
		}
		b.WriteByte('\n')
	}
	writeRow(rs.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range cells {
		writeRow(r)
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(rs.Rows))
	return b.String()
}
