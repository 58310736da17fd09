package value

// The reference for TestLegacySemantics: the five-field Value and its
// operations exactly as they were before the payload fold, renamed
// (oldValue, old*) so both live in one package. Only the comment on
// oldValue is new.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
)

// oldValue is Value as it was before INTEGER, FLOAT and BOOLEAN folded
// into one payload: five fields, 48 bytes.
type oldValue struct {
	K Kind
	I int64
	F float64
	S string
	B bool
}

// Null returns the SQL NULL value.
func oldNull() oldValue { return oldValue{} }

// NewInt returns an INTEGER value.
func oldNewInt(i int64) oldValue { return oldValue{K: KindInt, I: i} }

// NewFloat returns a FLOAT value.
func oldNewFloat(f float64) oldValue { return oldValue{K: KindFloat, F: f} }

// NewText returns a TEXT value.
func oldNewText(s string) oldValue { return oldValue{K: KindText, S: s} }

// NewBool returns a BOOLEAN value.
func oldNewBool(b bool) oldValue { return oldValue{K: KindBool, B: b} }

// IsNull reports whether v is SQL NULL.
func (v oldValue) IsNull() bool { return v.K == KindNull }

// Int returns the value as int64, truncating floats and parsing numeric
// text. It reports whether the conversion succeeded.
func (v oldValue) Int() (int64, bool) {
	switch v.K {
	case KindInt:
		return v.I, true
	case KindFloat:
		return int64(v.F), true
	case KindBool:
		if v.B {
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
func (v oldValue) Float() (float64, bool) {
	switch v.K {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	case KindBool:
		if v.B {
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
func (v oldValue) Text() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindText:
		return v.S
	case KindBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("?%d", v.K)
	}
}

// String implements fmt.Stringer; TEXT values are single-quoted so rows
// print unambiguously.
func (v oldValue) String() string {
	if v.K == KindText {
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
	return v.Text()
}

// Bool returns the truth value and whether the value is usable as a
// boolean (NULL is not).
func (v oldValue) Bool() (bool, bool) {
	switch v.K {
	case KindBool:
		return v.B, true
	case KindInt:
		return v.I != 0, true
	case KindFloat:
		return v.F != 0, true
	default:
		return false, false
	}
}

func (v oldValue) isNumeric() bool { return v.K == KindInt || v.K == KindFloat }

// Compare orders two values: -1, 0, +1. NULLs are not comparable and make
// ok false; mixed numeric kinds compare as floats; text compares
// lexicographically; bools order false < true. Comparing text with
// numerics attempts a numeric parse of the text, falling back to string
// comparison of both renderings.
func oldCompare(a, b oldValue) (cmp int, ok bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	switch {
	case a.K == KindInt && b.K == KindInt:
		return oldCmpOrdered(a.I, b.I), true
	case a.isNumeric() && b.isNumeric():
		af, _ := a.Float()
		bf, _ := b.Float()
		return oldCompareFloat(af, bf), true
	case a.K == KindText && b.K == KindText:
		return strings.Compare(a.S, b.S), true
	case a.K == KindBool && b.K == KindBool:
		return oldCmpBool(a.B, b.B), true
	case a.K == KindText && b.isNumeric():
		if af, ok := a.Float(); ok {
			bf, _ := b.Float()
			return oldCompareFloat(af, bf), true
		}
		return strings.Compare(a.Text(), b.Text()), true
	case a.isNumeric() && b.K == KindText:
		c, ok := oldCompare(b, a)
		return -c, ok
	default:
		return strings.Compare(a.Text(), b.Text()), true
	}
}

func oldCmpOrdered(a, b int64) int {
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
func oldCompareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func oldCmpBool(a, b bool) int {
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
func oldEqual(a, b oldValue) (eq bool, ok bool) {
	c, ok := oldCompare(a, b)
	return c == 0, ok
}

// Identical reports Go-level identity used for grouping and DISTINCT:
// NULLs are identical to each other, and 1 = 1.0.
func oldIdentical(a, b oldValue) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	eq, ok := oldEqual(a, b)
	return ok && eq
}

// Hash returns a hash consistent with Identical: values that are
// Identical hash equally (numerics hash via float64 representation).
func (v oldValue) Hash() uint64 {
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
		if v.B {
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
func oldAppendKey(b []byte, v *oldValue) []byte {
	switch v.K {
	case KindInt:
		return binary.BigEndian.AppendUint64(append(b, 'i'), uint64(v.I))
	case KindFloat:
		if f := v.F; f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
			return binary.BigEndian.AppendUint64(append(b, 'i'), uint64(int64(f)))
		}
		var a [32]byte
		s := strconv.AppendFloat(a[:0], v.F, 'g', -1, 64)
		return append(append(b, 'f', byte(len(s))), s...)
	}
	s := v.Text()
	return append(binary.AppendUvarint(append(b, byte(v.K)), uint64(len(s))), s...)
}

// Arith applies a binary arithmetic operator: + - * / %. A NULL operand
// yields NULL. "||" concatenates text renderings.
func oldArith(op string, a, b oldValue) (oldValue, error) {
	if a.IsNull() || b.IsNull() {
		return oldNull(), nil
	}
	if op == "||" {
		return oldNewText(a.Text() + b.Text()), nil
	}
	if a.K == KindInt && b.K == KindInt && op != "/" {
		switch op {
		case "+":
			return oldNewInt(a.I + b.I), nil
		case "-":
			return oldNewInt(a.I - b.I), nil
		case "*":
			return oldNewInt(a.I * b.I), nil
		case "%":
			if b.I == 0 {
				return oldValue{}, fmt.Errorf("value: division by zero")
			}
			return oldNewInt(a.I % b.I), nil
		}
	}
	af, aok := a.Float()
	bf, bok := b.Float()
	if !aok || !bok {
		return oldValue{}, fmt.Errorf("value: cannot apply %q to %s and %s", op, a.K, b.K)
	}
	switch op {
	case "+":
		return oldNewFloat(af + bf), nil
	case "-":
		return oldNewFloat(af - bf), nil
	case "*":
		return oldNewFloat(af * bf), nil
	case "/":
		if bf == 0 {
			return oldValue{}, fmt.Errorf("value: division by zero")
		}
		// Integer division stays integral, matching the local DBMS
		// dialects the federation fronts.
		if a.K == KindInt && b.K == KindInt {
			return oldNewInt(a.I / b.I), nil
		}
		return oldNewFloat(af / bf), nil
	case "%":
		return oldNewFloat(math.Mod(af, bf)), nil
	default:
		return oldValue{}, fmt.Errorf("value: unknown operator %q", op)
	}
}

// Neg returns the arithmetic negation; NULL negates to NULL. Negating
// a zero float yields positive zero: SQL has no distinct -0, and IEEE
// negative zero renders as "-0", which breaks the printer's
// parse/print fixpoint (found by FuzzParse: "SELECT-0.").
func oldNeg(v oldValue) (oldValue, error) {
	switch v.K {
	case KindNull:
		return oldNull(), nil
	case KindInt:
		return oldNewInt(-v.I), nil
	case KindFloat:
		if v.F == 0 {
			return oldNewFloat(0), nil
		}
		return oldNewFloat(-v.F), nil
	default:
		return oldValue{}, fmt.Errorf("value: cannot negate %s", v.K)
	}
}

// AppendRow appends the encoding of row to b.
func oldAppendRow(b []byte, row []oldValue) []byte {
	b = binary.AppendUvarint(b, uint64(len(row)))
	for _, v := range row {
		b = oldAppendValue(b, v)
	}
	return b
}

func oldAppendValue(b []byte, v oldValue) []byte {
	switch v.K {
	case KindInt:
		b = append(b, tagInt)
		return binary.AppendVarint(b, v.I)
	case KindFloat:
		b = append(b, tagFloat)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
	case KindText:
		b = append(b, tagText)
		b = binary.AppendUvarint(b, uint64(len(v.S)))
		return append(b, v.S...)
	case KindBool:
		if v.B {
			return append(b, tagBool, 1)
		}
		return append(b, tagBool, 0)
	default:
		return append(b, tagNull)
	}
}
