package value

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestValueSize pins the folded layout: a string header, one 64-bit
// payload and the kind tag.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// toOld is v in the five-field form.
func toOld(v Value) oldValue {
	switch v.K {
	case KindInt:
		return oldNewInt(v.RawInt())
	case KindFloat:
		return oldNewFloat(v.RawFloat())
	case KindText:
		return oldNewText(v.S)
	case KindBool:
		return oldNewBool(v.RawBool())
	}
	return oldNull()
}

// sameAsOld reports whether v is o: same kind and the same payload bits.
func sameAsOld(v Value, o oldValue) bool {
	n := toOld(v)
	return n.K == o.K && n.I == o.I && math.Float64bits(n.F) == math.Float64bits(o.F) && n.S == o.S && n.B == o.B
}

// edgeValues are the values whose semantics a payload fold could shift:
// NULL, NaN, both zeros, both infinities, INTEGER and FLOAT around
// ±2^53 and the int64 range ends, numeric and non-numeric TEXT, and
// both BOOLEANs.
func edgeValues() []Value {
	vs := []Value{
		Null(), NewBool(true), NewBool(false),
		NewFloat(math.NaN()), NewFloat(math.Copysign(0, -1)), NewFloat(0), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewFloat(math.SmallestNonzeroFloat64), NewFloat(math.MaxFloat64), NewFloat(0.5), NewFloat(-2.5), NewFloat(1e300),
		NewFloat(1 << 63), NewFloat(-(1 << 63)), NewFloat(math.Nextafter(1<<63, 0)),
		NewInt(0), NewInt(1), NewInt(-1), NewInt(7), NewInt(math.MinInt64), NewInt(math.MaxInt64),
		NewText(""), NewText("12"), NewText(" 3.5 "), NewText("-0"), NewText("NaN"), NewText("inf"), NewText("abc"),
		NewText("9007199254740993"), NewText("TRUE"), NewText("\xff\xfe"), NewText("o'neil"),
	}
	for _, d := range []int64{-2, -1, 0, 1, 2} {
		vs = append(vs, NewInt(1<<53+d), NewInt(-(1<<53)+d), NewFloat(float64(1<<53+d)), NewFloat(float64(-(1<<53)+d)))
	}
	return vs
}

// randomValue draws from the edges half the time, and otherwise makes a
// fresh value of a random kind near the interesting magnitudes.
func randomValue(rng *rand.Rand, edges []Value) Value {
	if rng.Intn(2) == 0 {
		return edges[rng.Intn(len(edges))]
	}
	switch rng.Intn(5) {
	case 0:
		return NewInt(rng.Int63n(1<<10) - 1<<9)
	case 1:
		return NewInt(1<<53 + rng.Int63n(64) - 32)
	case 2:
		return NewFloat(float64(rng.Intn(64)-32) / 4)
	case 3:
		return NewFloat(math.Float64frombits(rng.Uint64()))
	default:
		return NewText(fmt.Sprint(rng.Intn(40) - 20))
	}
}

// TestLegacySemantics checks every operation on the folded Value against
// the five-field reference (legacy_ref_test.go): Compare, Equal,
// Identical, Hash, AppendKey, Arith, Neg, the conversions and the row
// codec give identical results, over every pair of edge values and a
// seeded random mix.
func TestLegacySemantics(t *testing.T) {
	edges := edgeValues()
	var pairs [][2]Value
	for _, a := range edges {
		for _, b := range edges {
			pairs = append(pairs, [2]Value{a, b})
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		pairs = append(pairs, [2]Value{randomValue(rng, edges), randomValue(rng, edges)})
	}
	for _, p := range pairs {
		checkUnary(t, p[0])
		checkBinary(t, p[0], p[1])
		if t.Failed() {
			t.Fatalf("stopped at %#v, %#v", p[0], p[1])
		}
	}
}

func checkUnary(t *testing.T, v Value) {
	t.Helper()
	o := toOld(v)
	if v.IsNull() != o.IsNull() || v.Text() != o.Text() || v.String() != o.String() {
		t.Errorf("%#v: IsNull/Text/String differ", v)
	}
	i, iok := v.Int()
	if oi, oiok := o.Int(); i != oi || iok != oiok {
		t.Errorf("%#v: Int %d %v, reference %d %v", v, i, iok, oi, oiok)
	}
	f, fok := v.Float()
	if of, ofok := o.Float(); fok != ofok || math.Float64bits(f) != math.Float64bits(of) {
		t.Errorf("%#v: Float %v %v, reference %v %v", v, f, fok, of, ofok)
	}
	b, bok := v.Bool()
	if ob, obok := o.Bool(); b != ob || bok != obok {
		t.Errorf("%#v: Bool differs", v)
	}
	if v.Hash() != o.Hash() {
		t.Errorf("%#v: Hash differs", v)
	}
	if !v.IsNull() && !bytes.Equal(AppendKey(nil, &v), oldAppendKey(nil, &o)) {
		t.Errorf("%#v: AppendKey differs", v)
	}
	n, err := Neg(v)
	on, oerr := oldNeg(o)
	if fmt.Sprint(err) != fmt.Sprint(oerr) || err == nil && !sameAsOld(n, on) {
		t.Errorf("%#v: Neg %#v %v, reference %#v %v", v, n, err, on, oerr)
	}
	row := []Value{v}
	enc := AppendRow(nil, row)
	if !bytes.Equal(enc, oldAppendRow(nil, []oldValue{o})) {
		t.Errorf("%#v: encodes as %x, reference differs", v, enc)
	}
	if got, _, err := DecodeRow(nil, enc); err != nil || len(got) != 1 || got[0] != v {
		t.Errorf("%#v: decodes as %#v, %v", v, got, err)
	}
}

func checkBinary(t *testing.T, a, b Value) {
	t.Helper()
	oa, ob := toOld(a), toOld(b)
	c, ok := Compare(a, b)
	if oc, ook := oldCompare(oa, ob); c != oc || ok != ook {
		t.Errorf("Compare(%#v, %#v) = %d %v, reference %d %v", a, b, c, ok, oc, ook)
	}
	eq, ok := Equal(a, b)
	if oeq, ook := oldEqual(oa, ob); eq != oeq || ok != ook {
		t.Errorf("Equal(%#v, %#v) differs", a, b)
	}
	if Identical(a, b) != oldIdentical(oa, ob) {
		t.Errorf("Identical(%#v, %#v) differs", a, b)
	}
	for _, op := range []string{"+", "-", "*", "/", "%", "||", "^"} {
		r, err := Arith(op, a, b)
		or, oerr := oldArith(op, oa, ob)
		if fmt.Sprint(err) != fmt.Sprint(oerr) || err == nil && !sameAsOld(r, or) {
			t.Errorf("Arith(%q, %#v, %#v) = %#v %v, reference %#v %v", op, a, b, r, err, or, oerr)
		}
	}
}
