// Package schema defines table schemas and row representation shared by
// the component DBMSs, gateways, and the federation layer.
package schema

import (
	"fmt"
	"strings"

	"myriad/internal/value"
)

// Type is a column's declared SQL type.
type Type uint8

// Column types supported by the MYRIAD SQL subset.
const (
	TInt Type = iota
	TFloat
	TText
	TBool
)

// String returns the canonical SQL name of the type.
func (t Type) String() string {
	switch t {
	case TInt:
		return "INTEGER"
	case TFloat:
		return "FLOAT"
	case TText:
		return "TEXT"
	case TBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType maps a SQL type name (in any of the supported dialects) to a
// schema Type.
func ParseType(name string) (Type, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "NUMBER", "INT4", "INT8":
		return TInt, nil
	case "FLOAT", "REAL", "DOUBLE", "NUMERIC", "DECIMAL", "FLOAT8", "BINARY_FLOAT":
		return TFloat, nil
	case "TEXT", "VARCHAR", "VARCHAR2", "CHAR", "STRING", "CLOB":
		return TText, nil
	case "BOOL", "BOOLEAN":
		return TBool, nil
	default:
		return 0, fmt.Errorf("schema: unknown type %q", name)
	}
}

// Kind returns the value.Kind stored in columns of this type.
func (t Type) Kind() value.Kind {
	switch t {
	case TInt:
		return value.KindInt
	case TFloat:
		return value.KindFloat
	case TText:
		return value.KindText
	case TBool:
		return value.KindBool
	default:
		return value.KindNull
	}
}

// Column describes one attribute of a relation.
type Column struct {
	Name    string
	Type    Type
	NotNull bool
}

// Schema describes a relation: its name, columns, and primary key.
type Schema struct {
	Table   string
	Columns []Column
	// Key lists primary-key column names, in key order. Empty means the
	// relation has no declared key (heap semantics).
	Key []string
}

// Clone returns a deep copy so callers may mutate schemas independently.
func (s *Schema) Clone() *Schema {
	c := &Schema{Table: s.Table}
	c.Columns = append([]Column(nil), s.Columns...)
	c.Key = append([]string(nil), s.Key...)
	return c
}

// ColIndex returns the position of the named column (case-insensitive),
// or -1 when absent.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// KeyIndexes returns the column positions of the primary key, in key
// order. It returns nil when the schema has no key or references an
// unknown column.
func (s *Schema) KeyIndexes() []int {
	if len(s.Key) == 0 {
		return nil
	}
	idx := make([]int, 0, len(s.Key))
	for _, k := range s.Key {
		i := s.ColIndex(k)
		if i < 0 {
			return nil
		}
		idx = append(idx, i)
	}
	return idx
}

// Validate checks structural invariants: non-empty unique column names
// and key columns that exist.
func (s *Schema) Validate() error {
	if s.Table == "" {
		return fmt.Errorf("schema: empty table name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("schema %s: no columns", s.Table)
	}
	seen := make(map[string]bool, len(s.Columns))
	for _, c := range s.Columns {
		lc := strings.ToLower(c.Name)
		if c.Name == "" {
			return fmt.Errorf("schema %s: empty column name", s.Table)
		}
		if seen[lc] {
			return fmt.Errorf("schema %s: duplicate column %q", s.Table, c.Name)
		}
		seen[lc] = true
	}
	for _, k := range s.Key {
		if s.ColIndex(k) < 0 {
			return fmt.Errorf("schema %s: key column %q does not exist", s.Table, k)
		}
	}
	return nil
}

// String renders the schema as a CREATE TABLE-like signature.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Table)
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
		if c.NotNull {
			b.WriteString(" NOT NULL")
		}
	}
	if len(s.Key) > 0 {
		b.WriteString(", PRIMARY KEY (")
		b.WriteString(strings.Join(s.Key, ", "))
		b.WriteByte(')')
	}
	b.WriteByte(')')
	return b.String()
}

// Row is a tuple positionally aligned with a Schema's columns.
type Row []value.Value

// Clone returns an independent copy of the row.
func (r Row) Clone() Row {
	return append(Row(nil), r...)
}

// CoerceRow converts each value toward its column's declared type where
// a lossless or standard SQL conversion exists (e.g. int literal into a
// FLOAT column, numeric text into numeric columns). It rejects NULL in
// NOT NULL columns and arity mismatches.
func CoerceRow(s *Schema, r Row) (Row, error) {
	if len(r) != len(s.Columns) {
		return nil, fmt.Errorf("schema %s: row has %d values, want %d", s.Table, len(r), len(s.Columns))
	}
	out := make(Row, len(r))
	for i, v := range r {
		c := s.Columns[i]
		if v.IsNull() {
			if c.NotNull {
				return nil, fmt.Errorf("schema %s: NULL in NOT NULL column %s", s.Table, c.Name)
			}
			out[i] = v
			continue
		}
		cv, err := Coerce(v, c.Type)
		if err != nil {
			return nil, fmt.Errorf("schema %s column %s: %w", s.Table, c.Name, err)
		}
		out[i] = cv
	}
	return out, nil
}

// ConformRow returns r coerced to s the way a heap insert would coerce
// it: r itself, uncopied, when every non-NULL value already has its
// column's kind, and otherwise CoerceRow's copy (or its error, an arity
// mismatch included).
func ConformRow(s *Schema, r Row) (Row, error) {
	if len(r) != len(s.Columns) {
		return CoerceRow(s, r)
	}
	for i, v := range r {
		if !v.IsNull() && v.K != s.Columns[i].Type.Kind() {
			return CoerceRow(s, r)
		}
	}
	return r, nil
}

// Kinds lists each column's value kind.
func (s *Schema) Kinds() []value.Kind {
	kinds := make([]value.Kind, len(s.Columns))
	for i, c := range s.Columns {
		kinds[i] = c.Type.Kind()
	}
	return kinds
}

// Coerce converts a single value to a column type.
func Coerce(v value.Value, t Type) (value.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch t {
	case TInt:
		if i, ok := v.Int(); ok {
			return value.NewInt(i), nil
		}
	case TFloat:
		if f, ok := v.Float(); ok {
			return value.NewFloat(f), nil
		}
	case TText:
		return value.NewText(v.Text()), nil
	case TBool:
		if b, ok := v.Bool(); ok {
			return value.NewBool(b), nil
		}
		if v.K == value.KindText {
			switch strings.ToUpper(strings.TrimSpace(v.S)) {
			case "TRUE", "T", "YES", "1":
				return value.NewBool(true), nil
			case "FALSE", "F", "NO", "0":
				return value.NewBool(false), nil
			}
		}
	}
	return value.Value{}, fmt.Errorf("cannot coerce %s (%s) to %s", v, v.K, t)
}
