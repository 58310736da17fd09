// Package value implements the typed, NULL-aware value system shared by
// every layer of MYRIAD: the local DBMS storage and executor, the gateway
// wire format, and the federation's integration and query operators.
//
// A Value is a 32-byte struct carrying a Kind tag, a string for TEXT
// and one 64-bit payload N that every other kind shares: an INTEGER's
// two's-complement bits, a FLOAT's IEEE 754 bits, a BOOLEAN's 0 or 1.
// Values are copied wherever a row is materialised (heap tables,
// decoded batches, sort buffers, spools), so their size is paid on
// every path. SQL three-valued logic is represented by KindNull flowing
// through comparisons and arithmetic.
package value

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The value kinds supported by MYRIAD's SQL subset.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL value. The zero Value is NULL.
//
// S holds a TEXT value's bytes. N holds every other kind's payload:
// int64 bits for INTEGER, math.Float64bits for FLOAT, 0 or 1 for
// BOOLEAN, and 0 for NULL and TEXT. Build a non-TEXT value only with
// the New* constructors, and read its payload back with RawInt,
// RawFloat or RawBool once the kind is known. The fold is plain bit
// conversion, which compiles to register moves; it needs no unsafe. A
// string header, one word and the tag make 32 bytes. Less would mean
// hiding numbers in the string header's pointer word, which takes
// unsafe and shows the garbage collector pointers that are not.
//
// Struct equality (==, reflect.DeepEqual) compares payload bits, so it
// tells -0.0 from 0.0 and finds a NaN equal to itself; SQL equality is
// Equal and Identical.
type Value struct {
	S string
	N uint64
	K Kind
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{K: KindInt, N: uint64(i)} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{K: KindFloat, N: math.Float64bits(f)} }

// NewText returns a TEXT value.
func NewText(s string) Value { return Value{K: KindText, S: s} }

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	if b {
		return Value{K: KindBool, N: 1}
	}
	return Value{K: KindBool}
}

// RawInt returns an INTEGER's payload. It does not convert: the result
// is meaningful only when v.K is KindInt (Int converts).
func (v Value) RawInt() int64 { return int64(v.N) }

// RawFloat returns a FLOAT's payload. It does not convert: the result
// is meaningful only when v.K is KindFloat (Float converts).
func (v Value) RawFloat() float64 { return math.Float64frombits(v.N) }

// RawBool returns a BOOLEAN's payload. It does not convert: the result
// is meaningful only when v.K is KindBool (Bool converts).
func (v Value) RawBool() bool { return v.N != 0 }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Int returns the value as int64, truncating floats and parsing numeric
// text. It reports whether the conversion succeeded.
func (v Value) Int() (int64, bool) {
	switch v.K {
	case KindInt:
		return v.RawInt(), true
	case KindFloat:
		return int64(v.RawFloat()), true
	case KindBool:
		if v.RawBool() {
			return 1, true
		}
		return 0, true
	case KindText:
		i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
		return i, err == nil
	default:
		return 0, false
	}
}

// Float returns the value as float64, widening ints and parsing numeric
// text. It reports whether the conversion succeeded.
func (v Value) Float() (float64, bool) {
	switch v.K {
	case KindInt:
		return float64(v.RawInt()), true
	case KindFloat:
		return v.RawFloat(), true
	case KindBool:
		if v.RawBool() {
			return 1, true
		}
		return 0, true
	case KindText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// Text returns the value rendered as a string (not SQL-quoted).
func (v Value) Text() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.RawInt(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.RawFloat(), 'g', -1, 64)
	case KindText:
		return v.S
	case KindBool:
		if v.RawBool() {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("?%d", v.K)
	}
}

// String implements fmt.Stringer; TEXT values are single-quoted so rows
// print unambiguously.
func (v Value) String() string {
	if v.K == KindText {
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
	return v.Text()
}

// Bool returns the truth value and whether the value is usable as a
// boolean (NULL is not).
func (v Value) Bool() (bool, bool) {
	switch v.K {
	case KindBool:
		return v.RawBool(), true
	case KindInt:
		return v.RawInt() != 0, true
	case KindFloat:
		return v.RawFloat() != 0, true
	default:
		return false, false
	}
}

func (v Value) isNumeric() bool { return v.K == KindInt || v.K == KindFloat }

// Compare orders two values: -1, 0, +1. NULLs are not comparable and make
// ok false; mixed numeric kinds compare as floats; text compares
// lexicographically; bools order false < true. Comparing text with
// numerics attempts a numeric parse of the text, falling back to string
// comparison of both renderings.
func Compare(a, b Value) (cmp int, ok bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	switch {
	case a.K == KindInt && b.K == KindInt:
		return cmpOrdered(a.RawInt(), b.RawInt()), true
	case a.isNumeric() && b.isNumeric():
		af, _ := a.Float()
		bf, _ := b.Float()
		return CompareFloat(af, bf), true
	case a.K == KindText && b.K == KindText:
		return strings.Compare(a.S, b.S), true
	case a.K == KindBool && b.K == KindBool:
		return cmpBool(a.RawBool(), b.RawBool()), true
	case a.K == KindText && b.isNumeric():
		if af, ok := a.Float(); ok {
			bf, _ := b.Float()
			return CompareFloat(af, bf), true
		}
		return strings.Compare(a.Text(), b.Text()), true
	case a.isNumeric() && b.K == KindText:
		c, ok := Compare(b, a)
		return -c, ok
	default:
		return strings.Compare(a.Text(), b.Text()), true
	}
}

func cmpOrdered(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// CompareFloat is Compare's order on two floats: NaN compares equal to
// every number and -0.0 equal to 0.0 (unlike cmp.Compare, which puts
// NaN first).
func CompareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

// Equal reports SQL equality. NULL = anything is unknown, reported as
// (false, false).
func Equal(a, b Value) (eq bool, ok bool) {
	c, ok := Compare(a, b)
	return c == 0, ok
}

// Identical reports Go-level identity used for grouping and DISTINCT:
// NULLs are identical to each other, and 1 = 1.0.
func Identical(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	eq, ok := Equal(a, b)
	return ok && eq
}

// Hash returns a hash consistent with Identical: values that are
// Identical hash equally (numerics hash via float64 representation).
func (v Value) Hash() uint64 {
	h := fnv.New64a()
	switch v.K {
	case KindNull:
		h.Write([]byte{0})
	case KindInt, KindFloat:
		f, _ := v.Float()
		if f == 0 {
			f = 0 // -0.0 is Identical to 0.0; make it hash equal too
		}
		var buf [9]byte
		buf[0] = 1
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			buf[1+i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	case KindText:
		h.Write([]byte{2})
		h.Write([]byte(v.S))
	case KindBool:
		if v.RawBool() {
			h.Write([]byte{3, 1})
		} else {
			h.Write([]byte{3, 0})
		}
	}
	return h.Sum64()
}

// AppendKey appends v's equality key to b: INTEGER values with equal
// keys are equal, and so are FLOAT and TEXT ones. An INTEGER encodes
// exactly, and an integral FLOAT within int64 range encodes as that
// integer, so 1 = 1.0 still match; any other FLOAT uses its shortest
// strconv form. Every key starts with a tag and has a fixed length or a
// length prefix, so the keys of several columns concatenate
// unambiguously. v must not be NULL. One key form serves the engine's IN
// lists and hash joins and the federation's bind-join key sets.
func AppendKey(b []byte, v *Value) []byte {
	switch v.K {
	case KindInt:
		return binary.BigEndian.AppendUint64(append(b, 'i'), v.N)
	case KindFloat:
		if f := v.RawFloat(); f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
			return binary.BigEndian.AppendUint64(append(b, 'i'), uint64(int64(f)))
		}
		var a [32]byte
		s := strconv.AppendFloat(a[:0], v.RawFloat(), 'g', -1, 64)
		return append(append(b, 'f', byte(len(s))), s...)
	}
	s := v.Text()
	return append(binary.AppendUvarint(append(b, byte(v.K)), uint64(len(s))), s...)
}

// AppendRowKey appends row r's kind-exact identity key to b: each value
// is its kind tag plus one, then its Text form (nothing for NULL), then
// a 0x1f separator. Inside TEXT, 0x1e is escaped as 0x1e 0x01 and 0x1f
// as 0x1e 0x02, so a text never holds the separator and the key is
// injective; text without those bytes appears verbatim. Unlike
// AppendKey, 1, 1.0 and '1' all differ; a FLOAT zero is written without
// its sign, so -0.0 and 0.0 share a key as they are equal in SQL (and
// as Hash and Identical have them). It is the one key for DISTINCT,
// UNION dedup and grouping, in the engine and in the federation's
// fan-ins.
func AppendRowKey(b []byte, r []Value) []byte {
	for i := range r {
		v := &r[i]
		switch v.K {
		case KindNull:
			b = append(b, 0)
		case KindInt:
			b = strconv.AppendInt(append(b, byte(v.K)+1), v.RawInt(), 10)
		case KindFloat:
			f := v.RawFloat()
			if f == 0 {
				f = 0 // drop the sign of -0.0
			}
			b = strconv.AppendFloat(append(b, byte(v.K)+1), f, 'g', -1, 64)
		case KindText:
			b = appendKeyText(append(b, byte(v.K)+1), v.S)
		default:
			b = append(append(b, byte(v.K)+1), v.Text()...)
		}
		b = append(b, 0x1f)
	}
	return b
}

// appendKeyText appends s with 0x1e and 0x1f escaped (see AppendRowKey).
func appendKeyText(b []byte, s string) []byte {
	for {
		i := strings.IndexAny(s, "\x1e\x1f")
		if i < 0 {
			return append(b, s...)
		}
		b = append(append(b, s[:i]...), 0x1e, s[i]-0x1d)
		s = s[i+1:]
	}
}

// Arith applies a binary arithmetic operator: + - * / %. A NULL operand
// yields NULL. "||" concatenates text renderings.
func Arith(op string, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if op == "||" {
		return NewText(a.Text() + b.Text()), nil
	}
	if a.K == KindInt && b.K == KindInt && op != "/" {
		switch op {
		case "+":
			return NewInt(a.RawInt() + b.RawInt()), nil
		case "-":
			return NewInt(a.RawInt() - b.RawInt()), nil
		case "*":
			return NewInt(a.RawInt() * b.RawInt()), nil
		case "%":
			if b.RawInt() == 0 {
				return Value{}, fmt.Errorf("value: division by zero")
			}
			return NewInt(a.RawInt() % b.RawInt()), nil
		}
	}
	af, aok := a.Float()
	bf, bok := b.Float()
	if !aok || !bok {
		return Value{}, fmt.Errorf("value: cannot apply %q to %s and %s", op, a.K, b.K)
	}
	switch op {
	case "+":
		return NewFloat(af + bf), nil
	case "-":
		return NewFloat(af - bf), nil
	case "*":
		return NewFloat(af * bf), nil
	case "/":
		if bf == 0 {
			return Value{}, fmt.Errorf("value: division by zero")
		}
		// Integer division stays integral, matching the local DBMS
		// dialects the federation fronts.
		if a.K == KindInt && b.K == KindInt {
			return NewInt(a.RawInt() / b.RawInt()), nil
		}
		return NewFloat(af / bf), nil
	case "%":
		return NewFloat(math.Mod(af, bf)), nil
	default:
		return Value{}, fmt.Errorf("value: unknown operator %q", op)
	}
}

// Neg returns the arithmetic negation; NULL negates to NULL. Negating
// a zero float yields positive zero: SQL has no distinct -0, and IEEE
// negative zero renders as "-0", which breaks the printer's
// parse/print fixpoint (found by FuzzParse: "SELECT-0.").
func Neg(v Value) (Value, error) {
	switch v.K {
	case KindNull:
		return Null(), nil
	case KindInt:
		return NewInt(-v.RawInt()), nil
	case KindFloat:
		if v.RawFloat() == 0 {
			return NewFloat(0), nil
		}
		return NewFloat(-v.RawFloat()), nil
	default:
		return Value{}, fmt.Errorf("value: cannot negate %s", v.K)
	}
}

// Like implements SQL LIKE with % and _ wildcards.
func Like(s, pattern Value) (Value, error) {
	if s.IsNull() || pattern.IsNull() {
		return Null(), nil
	}
	return NewBool(likeMatch(s.Text(), pattern.Text())), nil
}

func likeMatch(s, p string) bool {
	// Iterative wildcard match with backtracking on '%'.
	var si, pi int
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			match = si
			pi++
		case star != -1:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
