package integration

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"myriad/internal/schema"
	"myriad/internal/value"
)

// combine drains CombineStreams over the given fragments, each served
// as a stream with the spec's columns.
func combine(spec *Spec, frags ...[]schema.Row) ([]schema.Row, error) {
	sources := make([]schema.RowStream, len(frags))
	for i, rows := range frags {
		sources[i] = streamOf(spec.Columns, rows)
	}
	c := CombineStreams(context.Background(), spec, sources)
	defer c.Close()
	rs, err := schema.DrainStream(context.Background(), c)
	if err != nil {
		return nil, err
	}
	return rs.Rows, nil
}

// rows builds a fragment from literal rows.
func rows(rs ...[]value.Value) []schema.Row {
	out := make([]schema.Row, len(rs))
	for i, r := range rs {
		out[i] = r
	}
	return out
}

// kkey renders a value kind-exactly for map lookups in expectations.
func kkey(v value.Value) string { return fmt.Sprintf("%d|%s", v.K, v.Text()) }

func vi(i int64) value.Value  { return value.NewInt(i) }
func vt(s string) value.Value { return value.NewText(s) }
func vn() value.Value         { return value.Null() }

func TestParseCombine(t *testing.T) {
	cases := map[string]CombineKind{
		"union all": UnionAll, "UNIONALL": UnionAll, "all": UnionAll,
		"union": UnionDistinct, "DISTINCT": UnionDistinct,
		"merge": MergeOuter, "OUTERJOIN-MERGE": MergeOuter,
	}
	for s, want := range cases {
		got, err := ParseCombine(s)
		if err != nil || got != want {
			t.Errorf("ParseCombine(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseCombine("zip"); err == nil {
		t.Error("bad combinator accepted")
	}
	if UnionAll.String() != "UNION ALL" || MergeOuter.String() != "OUTERJOIN-MERGE" {
		t.Error("String() names")
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{"coalesce", "first", "last", "max", "min", "sum", "avg", "count", "concat", "vote", "require_equal"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("builtin %q not registered", want)
		}
	}
	Register("custom_test", func(vals []value.Value) (value.Value, error) { return vi(1), nil })
	if _, ok := Lookup("CUSTOM_TEST"); !ok {
		t.Error("case-insensitive lookup failed")
	}
}

func TestUnionAll(t *testing.T) {
	spec := &Spec{Kind: UnionAll, Columns: []string{"id", "v"}}
	out, err := combine(spec,
		rows([]value.Value{vi(1), vt("a")}),
		rows([]value.Value{vi(1), vt("a")}, []value.Value{vi(2), vt("b")}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Errorf("union all rows = %d", len(out))
	}
}

func TestUnionDistinct(t *testing.T) {
	spec := &Spec{Kind: UnionDistinct, Columns: []string{"id", "v"}}
	out, err := combine(spec,
		rows([]value.Value{vi(1), vt("a")}, []value.Value{vi(2), vt("b")}),
		rows([]value.Value{vi(1), vt("a")}, []value.Value{vi(3), vn()}, []value.Value{vt("1"), vt("a")}),
	)
	if err != nil {
		t.Fatal(err)
	}
	// First occurrences in source order; '1' and 1 are different rows.
	want := []string{"1|a", "2|b", "3|NULL", "1|a"}
	if len(out) != len(want) {
		t.Fatalf("union distinct rows = %d, want %d", len(out), len(want))
	}
	for i, r := range out {
		if got := r[0].Text() + "|" + r[1].Text(); got != want[i] {
			t.Errorf("row %d = %s, want %s", i, got, want[i])
		}
	}
	if out[3][0].K != value.KindText {
		t.Errorf("text key '1' folded into int 1: %v", out[3])
	}
}

// TestArityMismatch: a source whose column count differs from the
// integrated relation fails the combined stream under every combinator.
func TestArityMismatch(t *testing.T) {
	for _, kind := range []CombineKind{UnionAll, UnionDistinct, MergeOuter} {
		spec := &Spec{Kind: kind, Columns: []string{"a", "b"}, KeyCols: []int{0}}
		bad := streamOf([]string{"a"}, rows([]value.Value{vi(1)}))
		c := CombineStreams(context.Background(), spec, []schema.RowStream{bad})
		_, err := schema.DrainStream(context.Background(), c)
		c.Close()
		if err == nil || !strings.Contains(err.Error(), "columns") {
			t.Errorf("%v: arity mismatch accepted (err=%v)", kind, err)
		}
	}
}

func TestMergeOuter(t *testing.T) {
	first, _ := Lookup("first")
	cc, _ := Lookup("concat")
	spec := &Spec{
		Kind:    MergeOuter,
		Columns: []string{"id", "email", "phone"},
		KeyCols: []int{0},
		Resolvers: map[int]Func{
			1: first,
			2: cc,
		},
	}
	out, err := combine(spec,
		rows(
			[]value.Value{vi(1), vt("a@east"), vn()},
			[]value.Value{vi(2), vn(), vt("p2-east")},
			[]value.Value{vi(3), vt("c@east"), vt("p3")},
		),
		rows(
			[]value.Value{vi(1), vt("a@west"), vt("p1-west")},
			[]value.Value{vi(2), vt("b@west"), vn()},
			[]value.Value{vi(4), vt("d@west"), vt("p4")},
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64][2]string{}
	for _, r := range out {
		id, _ := r[0].Int()
		got[id] = [2]string{r[1].Text(), r[2].Text()}
	}
	if len(got) != 4 {
		t.Fatalf("entities = %d", len(got))
	}
	if got[1] != [2]string{"a@east", "p1-west"} {
		t.Errorf("entity 1: %v", got[1])
	}
	if got[2] != [2]string{"b@west", "p2-east"} {
		t.Errorf("entity 2: %v", got[2])
	}
	if got[4] != [2]string{"d@west", "p4"} { // outer: survives with one source
		t.Errorf("entity 4: %v", got[4])
	}
}

// TestMergeOuterFirstNonNullWithinSource: a source holding an entity
// twice contributes, per column, its first non-NULL value in row order.
func TestMergeOuterFirstNonNullWithinSource(t *testing.T) {
	cc, _ := Lookup("concat")
	spec := &Spec{Kind: MergeOuter, Columns: []string{"id", "v", "w"}, KeyCols: []int{0},
		Resolvers: map[int]Func{1: cc, 2: cc}}
	out, err := combine(spec,
		rows(
			[]value.Value{vi(1), vn(), vt("w-first")},
			[]value.Value{vi(1), vt("v-second"), vt("w-second")},
			[]value.Value{vi(1), vt("v-third"), vn()},
		),
		rows([]value.Value{vi(1), vt("v-b"), vn()}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("entities = %d", len(out))
	}
	if v, w := out[0][1].Text(), out[0][2].Text(); v != "v-second/v-b" || w != "w-first" {
		t.Errorf("resolved v=%q w=%q, want v-second/v-b and w-first", v, w)
	}
}

func TestMergeOuterNullKeyDropped(t *testing.T) {
	spec := &Spec{Kind: MergeOuter, Columns: []string{"id", "v"}, KeyCols: []int{0}}
	out, err := combine(spec,
		rows([]value.Value{vn(), vt("ghost")}, []value.Value{vi(1), vt("a")}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][1].Text() != "a" {
		t.Errorf("NULL-key row not dropped: %v", out)
	}
}

func TestMergeOuterRequiresKey(t *testing.T) {
	spec := &Spec{Kind: MergeOuter, Columns: []string{"a"}}
	if _, err := combine(spec); err == nil || !strings.Contains(err.Error(), "requires a key") {
		t.Errorf("merge without key: err = %v", err)
	}
}

func TestMergeOuterCompositeKey(t *testing.T) {
	spec := &Spec{Kind: MergeOuter, Columns: []string{"a", "b", "v"}, KeyCols: []int{0, 1}}
	out, err := combine(spec,
		rows([]value.Value{vi(1), vt("x"), vt("s0")}),
		rows([]value.Value{vi(1), vt("x"), vt("s1")}, []value.Value{vi(1), vt("y"), vt("s1")}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("composite-key entities = %d", len(out))
	}
	for _, r := range out {
		if r[0].IsNull() || r[1].IsNull() {
			t.Errorf("key columns not populated: %v", r)
		}
	}
}

func TestResolvers(t *testing.T) {
	get := func(name string) Func {
		fn, ok := Lookup(name)
		if !ok {
			t.Fatalf("missing resolver %q", name)
		}
		return fn
	}
	cases := []struct {
		fn   string
		in   []value.Value
		want string
	}{
		{"coalesce", []value.Value{vn(), vt("b"), vt("c")}, "b"},
		{"first", []value.Value{vn(), vt("b")}, "b"},
		{"last", []value.Value{vt("a"), vt("b"), vn()}, "b"},
		{"max", []value.Value{vi(3), vi(9), vi(1)}, "9"},
		{"min", []value.Value{vi(3), vi(9), vi(1)}, "1"},
		{"sum", []value.Value{vi(3), vn(), vi(4)}, "7"},
		{"avg", []value.Value{vi(2), vi(4)}, "3"},
		{"count", []value.Value{vi(2), vn(), vi(4)}, "2"},
		{"concat", []value.Value{vt("a"), vn(), vt("b")}, "a/b"},
		{"vote", []value.Value{vt("x"), vt("y"), vt("x")}, "x"},
	}
	for _, c := range cases {
		got, err := get(c.fn)(c.in)
		if err != nil {
			t.Errorf("%s: %v", c.fn, err)
			continue
		}
		if got.Text() != c.want {
			t.Errorf("%s(%v) = %s, want %s", c.fn, c.in, got.Text(), c.want)
		}
	}

	// All-NULL input resolves to NULL for every builtin.
	for _, name := range []string{"coalesce", "first", "last", "max", "min", "sum", "avg", "concat", "vote"} {
		got, err := get(name)(nil)
		if err != nil || !got.IsNull() {
			t.Errorf("%s(nil) = %v, %v; want NULL", name, got, err)
		}
	}

	// require_equal.
	re := get("require_equal")
	if v, err := re([]value.Value{vi(5), vn(), vi(5)}); err != nil || v.Text() != "5" {
		t.Errorf("require_equal agree: %v %v", v, err)
	}
	if _, err := re([]value.Value{vi(5), vi(6)}); err == nil {
		t.Error("require_equal disagreement accepted")
	}
}

// TestUnionDistinctIdempotentProperty checks union(x ∪ x) == union(x).
func TestUnionDistinctIdempotentProperty(t *testing.T) {
	f := func(vals []int16) bool {
		spec := &Spec{Kind: UnionDistinct, Columns: []string{"v"}}
		var src []schema.Row
		for _, v := range vals {
			src = append(src, schema.Row{vi(int64(v))})
		}
		once, err := combine(spec, src)
		if err != nil {
			return false
		}
		twice, err := combine(spec, once, src)
		if err != nil {
			return false
		}
		return len(once) == len(twice)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMergeOrderIndependenceOfEntitySet checks the set of entity keys is
// independent of source order (values may differ, keys must not).
func TestMergeOrderIndependenceOfEntitySet(t *testing.T) {
	spec := &Spec{Kind: MergeOuter, Columns: []string{"id", "v"}, KeyCols: []int{0}}
	a := rows([]value.Value{vi(1), vt("a")}, []value.Value{vi(2), vt("b")})
	b := rows([]value.Value{vi(2), vt("B")}, []value.Value{vi(3), vt("C")})

	keys := func(frags ...[]schema.Row) string {
		out, err := combine(spec, frags...)
		if err != nil {
			t.Fatal(err)
		}
		var ks []string
		for _, r := range out {
			ks = append(ks, kkey(r[0]))
		}
		sort.Strings(ks)
		return strings.Join(ks, ",")
	}
	if k1, k2 := keys(a, b), keys(b, a); k1 != k2 {
		t.Errorf("entity sets differ by source order: %q vs %q", k1, k2)
	}
}
