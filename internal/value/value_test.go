package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INTEGER", KindFloat: "FLOAT",
		KindText: "TEXT", KindBool: "BOOLEAN",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() not null")
	}
	if v := NewInt(42); v.K != KindInt || v.RawInt() != 42 {
		t.Errorf("NewInt: %+v", v)
	}
	if v := NewFloat(2.5); v.K != KindFloat || v.RawFloat() != 2.5 {
		t.Errorf("NewFloat: %+v", v)
	}
	if v := NewText("x"); v.K != KindText || v.S != "x" {
		t.Errorf("NewText: %+v", v)
	}
	if v := NewBool(true); v.K != KindBool || !v.RawBool() {
		t.Errorf("NewBool: %+v", v)
	}

	if i, ok := NewFloat(3.9).Int(); !ok || i != 3 {
		t.Errorf("float->int: %d %v", i, ok)
	}
	if i, ok := NewText(" 17 ").Int(); !ok || i != 17 {
		t.Errorf("text->int: %d %v", i, ok)
	}
	if _, ok := NewText("abc").Int(); ok {
		t.Error("text abc should not convert to int")
	}
	if f, ok := NewInt(4).Float(); !ok || f != 4 {
		t.Errorf("int->float: %g %v", f, ok)
	}
	if f, ok := NewBool(true).Float(); !ok || f != 1 {
		t.Errorf("bool->float: %g %v", f, ok)
	}
	if _, ok := Null().Float(); ok {
		t.Error("null converted to float")
	}
}

func TestText(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{NewInt(-5), "-5"},
		{NewFloat(2.5), "2.5"},
		{NewFloat(215000), "215000"},
		{NewText("hi"), "hi"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
	}
	for _, c := range cases {
		if got := c.v.Text(); got != c.want {
			t.Errorf("%v.Text() = %q, want %q", c.v, got, c.want)
		}
	}
	// String() quotes text (SQL-renderable).
	if got := NewText("o'neil").String(); got != "'o''neil'" {
		t.Errorf("String quoting: %q", got)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{NewInt(1), NewInt(2), -1, true},
		{NewInt(2), NewInt(2), 0, true},
		{NewInt(3), NewInt(2), 1, true},
		{NewInt(1), NewFloat(1.5), -1, true},
		{NewFloat(1.5), NewInt(1), 1, true},
		{NewFloat(2.0), NewInt(2), 0, true},
		{NewText("a"), NewText("b"), -1, true},
		{NewText("b"), NewText("b"), 0, true},
		{NewBool(false), NewBool(true), -1, true},
		{NewText("10"), NewInt(9), 1, true},  // numeric text coerces
		{NewInt(9), NewText("10"), -1, true}, // symmetric
		{Null(), NewInt(1), 0, false},
		{NewInt(1), Null(), 0, false},
		{Null(), Null(), 0, false},
	}
	for _, c := range cases {
		cmp, ok := Compare(c.a, c.b)
		if cmp != c.cmp || ok != c.ok {
			t.Errorf("Compare(%v, %v) = %d,%v want %d,%v", c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64, fa, fb float64) bool {
		va, vb := NewInt(a), NewFloat(fb)
		c1, ok1 := Compare(va, vb)
		c2, ok2 := Compare(vb, va)
		if ok1 != ok2 {
			return false
		}
		if !ok1 {
			return true
		}
		return c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIdenticalHashProperty(t *testing.T) {
	// Identical values must hash identically — the contract hash joins
	// and GROUP BY rely on.
	f := func(i int64) bool {
		a, b := NewInt(i), NewFloat(float64(i))
		if !Identical(a, b) {
			// Large int64s lose precision as floats; only test when
			// the float round-trips.
			if float64(i) != math.Trunc(float64(i)) || int64(float64(i)) != i {
				return true
			}
			return false
		}
		return a.Hash() == b.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIdentical(t *testing.T) {
	if !Identical(Null(), Null()) {
		t.Error("NULL not identical to NULL")
	}
	if Identical(Null(), NewInt(0)) {
		t.Error("NULL identical to 0")
	}
	if !Identical(NewInt(1), NewFloat(1)) {
		t.Error("1 not identical to 1.0")
	}
	if Identical(NewText("1"), NewText("01")) {
		t.Error("'1' identical to '01'")
	}
}

func TestArith(t *testing.T) {
	cases := []struct {
		op   string
		a, b Value
		want Value
	}{
		{"+", NewInt(2), NewInt(3), NewInt(5)},
		{"-", NewInt(2), NewInt(3), NewInt(-1)},
		{"*", NewInt(4), NewInt(3), NewInt(12)},
		{"/", NewInt(7), NewInt(2), NewInt(3)}, // integer division
		{"%", NewInt(7), NewInt(4), NewInt(3)},
		{"+", NewInt(2), NewFloat(0.5), NewFloat(2.5)},
		{"/", NewFloat(7), NewInt(2), NewFloat(3.5)},
		{"||", NewText("a"), NewInt(1), NewText("a1")},
		{"+", Null(), NewInt(1), Null()},
		{"+", NewInt(1), Null(), Null()},
	}
	for _, c := range cases {
		got, err := Arith(c.op, c.a, c.b)
		if err != nil {
			t.Errorf("Arith(%q, %v, %v): %v", c.op, c.a, c.b, err)
			continue
		}
		if !Identical(got, c.want) && !(got.IsNull() && c.want.IsNull()) {
			t.Errorf("Arith(%q, %v, %v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestArithErrors(t *testing.T) {
	if _, err := Arith("/", NewInt(1), NewInt(0)); err == nil {
		t.Error("integer division by zero not rejected")
	}
	if _, err := Arith("/", NewFloat(1), NewFloat(0)); err == nil {
		t.Error("float division by zero not rejected")
	}
	if _, err := Arith("%", NewInt(1), NewInt(0)); err == nil {
		t.Error("mod by zero not rejected")
	}
	if _, err := Arith("+", NewText("a"), NewText("b")); err == nil {
		t.Error("text + text not rejected")
	}
}

func TestArithCommutativityProperty(t *testing.T) {
	f := func(a, b int32) bool {
		va, vb := NewInt(int64(a)), NewInt(int64(b))
		s1, err1 := Arith("+", va, vb)
		s2, err2 := Arith("+", vb, va)
		if err1 != nil || err2 != nil {
			return false
		}
		p1, err1 := Arith("*", va, vb)
		p2, err2 := Arith("*", vb, va)
		if err1 != nil || err2 != nil {
			return false
		}
		return Identical(s1, s2) && Identical(p1, p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeg(t *testing.T) {
	if v, err := Neg(NewInt(5)); err != nil || v.RawInt() != -5 {
		t.Errorf("Neg int: %v %v", v, err)
	}
	if v, err := Neg(NewFloat(2.5)); err != nil || v.RawFloat() != -2.5 {
		t.Errorf("Neg float: %v %v", v, err)
	}
	if v, err := Neg(Null()); err != nil || !v.IsNull() {
		t.Errorf("Neg null: %v %v", v, err)
	}
	if _, err := Neg(NewText("x")); err == nil {
		t.Error("Neg text not rejected")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p  string
		match bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "", false},
		{"", "%", true},
		{"", "", true},
		{"abc", "%%", true},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
		{"aXbXc", "a%b%c", true},
		{"mississippi", "%iss%ppi", true},
		{"mississippi", "%iss%ppX", false},
	}
	for _, c := range cases {
		got, err := Like(NewText(c.s), NewText(c.p))
		if err != nil {
			t.Fatalf("Like(%q, %q): %v", c.s, c.p, err)
		}
		if b, _ := got.Bool(); b != c.match {
			t.Errorf("Like(%q, %q) = %v, want %v", c.s, c.p, b, c.match)
		}
	}
	if v, _ := Like(Null(), NewText("%")); !v.IsNull() {
		t.Error("LIKE with NULL input should be NULL")
	}
}

func TestLikeSelfMatchProperty(t *testing.T) {
	// Any string without wildcards matches itself.
	f := func(s string) bool {
		for _, c := range s {
			if c == '%' || c == '_' {
				return true // skip wildcard-bearing inputs
			}
		}
		v, err := Like(NewText(s), NewText(s))
		if err != nil {
			return false
		}
		b, ok := v.Bool()
		return ok && b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBool(t *testing.T) {
	if b, ok := NewBool(true).Bool(); !ok || !b {
		t.Error("bool true")
	}
	if b, ok := NewInt(0).Bool(); !ok || b {
		t.Error("int 0 should be false")
	}
	if b, ok := NewFloat(0.1).Bool(); !ok || !b {
		t.Error("float 0.1 should be true")
	}
	if _, ok := Null().Bool(); ok {
		t.Error("null bool should be not-ok")
	}
	if _, ok := NewText("t").Bool(); ok {
		t.Error("text bool should be not-ok")
	}
}

func TestEqual(t *testing.T) {
	if eq, ok := Equal(NewInt(1), NewFloat(1)); !ok || !eq {
		t.Error("1 = 1.0 should be true")
	}
	if _, ok := Equal(Null(), NewInt(1)); ok {
		t.Error("NULL = 1 should be unknown")
	}
}

func TestNegativeZeroNormalized(t *testing.T) {
	// SQL has no distinct -0: negation of a zero float stays +0 (the
	// IEEE negative zero renders "-0" and broke the SQL printer's
	// parse/print fixpoint), and any float -0 that arithmetic produces
	// still hashes like +0, keeping Hash consistent with Identical.
	neg, err := Neg(NewFloat(0))
	if err != nil {
		t.Fatal(err)
	}
	if neg.Text() != "0" {
		t.Fatalf("Neg(0.0) renders %q", neg.Text())
	}
	minusZero := NewFloat(math.Copysign(0, -1))
	if !Identical(minusZero, NewFloat(0)) {
		t.Fatal("-0.0 not Identical to 0.0")
	}
	if minusZero.Hash() != NewFloat(0).Hash() {
		t.Fatal("-0.0 hashes differently from 0.0")
	}
}

// TestAppendRowKey pins the kind-exact row key's bytes: DISTINCT and
// UNION answers depend on 1, 1.0 and '1' staying apart, and on -0.0
// sharing 0.0's key, since SQL equality holds them equal and an
// ordered-index walk interleaves them.
func TestAppendRowKey(t *testing.T) {
	for _, tc := range []struct {
		row  []Value
		want string
	}{
		{[]Value{Null()}, "\x00\x1f"},
		{[]Value{NewInt(1)}, "\x021\x1f"},
		{[]Value{NewFloat(1)}, "\x031\x1f"},
		{[]Value{NewText("1")}, "\x041\x1f"},
		{[]Value{NewFloat(math.Copysign(0, -1))}, "\x030\x1f"},
		{[]Value{NewFloat(0)}, "\x030\x1f"},
		{[]Value{NewFloat(math.NaN())}, "\x03NaN\x1f"},
		{[]Value{NewText("")}, "\x04\x1f"},
		{[]Value{NewBool(true), NewInt(-7)}, "\x05TRUE\x1f\x02-7\x1f"},
		{nil, ""},
	} {
		if got := string(AppendRowKey(nil, tc.row)); got != tc.want {
			t.Errorf("AppendRowKey(%v) = %q, want %q", tc.row, got, tc.want)
		}
	}
}

// TestAppendRowKeyInjective: a TEXT holding the separator or the escape
// byte cannot forge a column boundary, so rows that differ keep
// different keys.
func TestAppendRowKeyInjective(t *testing.T) {
	a := AppendRowKey(nil, []Value{NewText("a\x1f\x04b"), NewText("c")})
	b := AppendRowKey(nil, []Value{NewText("a"), NewText("b\x1f\x04c")})
	if string(a) == string(b) {
		t.Fatalf("rows share the key %q", a)
	}
	for _, tc := range []struct{ s, want string }{
		{"\x1e", "\x04\x1e\x01\x1f"},
		{"\x1f", "\x04\x1e\x02\x1f"},
		{"x\x1e\x01y\x1fz", "\x04x\x1e\x01\x01y\x1e\x02z\x1f"},
	} {
		if got := string(AppendRowKey(nil, []Value{NewText(tc.s)})); got != tc.want {
			t.Errorf("AppendRowKey(%q) = %q, want %q", tc.s, got, tc.want)
		}
	}
	// A text holding 0x1e 0x01 differs from one holding 0x1e alone.
	if string(AppendRowKey(nil, []Value{NewText("\x1e")})) == string(AppendRowKey(nil, []Value{NewText("\x1e\x01")})) {
		t.Fatal("escape is ambiguous")
	}
}
