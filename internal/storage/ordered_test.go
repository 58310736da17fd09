package storage

import (
	"math/rand"
	"sort"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/value"
)

// one wraps a single value as an index key tuple.
func one(v value.Value) []value.Value { return []value.Value{v} }

// collect drains a cursor into a RowID slice.
func collect(c *OrderedCursor) []RowID {
	var out []RowID
	for {
		id, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, id)
	}
}

func idsEqual(t *testing.T, got, want []RowID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d ids, want %d\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("id %d: got %d, want %d\ngot  %v\nwant %v", i, got[i], want[i], got, want)
		}
	}
}

// refSort orders (tuple, id) pairs the way the index must: CompareSort
// column by column, then ascending id.
func refSort(pairs []oentry) {
	sort.SliceStable(pairs, func(a, b int) bool { return compareEntry(pairs[a], pairs[b]) < 0 })
}

// refDesc derives the descending walk from an ascending reference:
// tuples reverse, ids ascend within each equal-tuple group — exactly a
// stable descending sort of arrival order.
func refDesc(ref []oentry) []RowID {
	var want []RowID
	for i := len(ref) - 1; i >= 0; {
		j := i
		for j >= 0 && compareTuples(ref[j].vs, ref[i].vs) == 0 {
			j--
		}
		for k := j + 1; k <= i; k++ {
			want = append(want, ref[k].id)
		}
		i = j
	}
	return want
}

func TestOrderedIndexFullWalkMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := NewOrderedIndex(1)
	var ref []oentry
	for i := 0; i < 5000; i++ {
		v := value.NewInt(int64(rng.Intn(300))) // heavy duplicates
		ix.add(one(v), RowID(i))
		ref = append(ref, oentry{vs: one(v), id: RowID(i)})
	}
	if ix.Len() != 5000 {
		t.Fatalf("Len = %d", ix.Len())
	}
	refSort(ref)
	want := make([]RowID, len(ref))
	for i, e := range ref {
		want[i] = e.id
	}
	idsEqual(t, collect(ix.Cursor(Bound{}, Bound{}, false)), want)
	idsEqual(t, collect(ix.Cursor(Bound{}, Bound{}, true)), refDesc(ref))
}

func TestOrderedIndexRangeBounds(t *testing.T) {
	ix := NewOrderedIndex(1)
	// ids 0..99 with value id/10: ten of each value 0..9.
	for i := 0; i < 100; i++ {
		ix.add(one(value.NewInt(int64(i/10))), RowID(i))
	}
	ids := func(lo, hi Bound, desc bool) []RowID { return collect(ix.Cursor(lo, hi, desc)) }

	got := ids(BoundAt(value.NewInt(3), true), BoundAt(value.NewInt(5), false), false)
	var want []RowID
	for i := 30; i < 50; i++ {
		want = append(want, RowID(i))
	}
	idsEqual(t, got, want)

	got = ids(BoundAt(value.NewInt(3), false), BoundAt(value.NewInt(5), true), false)
	want = want[:0]
	for i := 40; i < 60; i++ {
		want = append(want, RowID(i))
	}
	idsEqual(t, got, want)

	// Equality range [7, 7].
	got = ids(BoundAt(value.NewInt(7), true), BoundAt(value.NewInt(7), true), false)
	want = want[:0]
	for i := 70; i < 80; i++ {
		want = append(want, RowID(i))
	}
	idsEqual(t, got, want)

	// Empty ranges.
	if got := ids(BoundAt(value.NewInt(42), true), BoundAt(value.NewInt(99), true), false); len(got) != 0 {
		t.Fatalf("out-of-domain range returned %v", got)
	}
	if got := ids(BoundAt(value.NewInt(5), false), BoundAt(value.NewInt(5), false), false); len(got) != 0 {
		t.Fatalf("exclusive-empty range returned %v", got)
	}

	// Descending over [3, 5]: values 5,4,3, ids ascending within each.
	got = ids(BoundAt(value.NewInt(3), true), BoundAt(value.NewInt(5), true), true)
	want = want[:0]
	for _, base := range []int{50, 40, 30} {
		for i := base; i < base+10; i++ {
			want = append(want, RowID(i))
		}
	}
	idsEqual(t, got, want)
}

func TestOrderedIndexNullBounds(t *testing.T) {
	ix := NewOrderedIndex(1)
	// NULLs at ids 0..4, then values 1..5 at ids 5..9.
	for i := 0; i < 5; i++ {
		ix.add(one(value.Null()), RowID(i))
	}
	for i := 0; i < 5; i++ {
		ix.add(one(value.NewInt(int64(i+1))), RowID(5+i))
	}

	// NULLs sort first: a full ascending walk leads with them.
	idsEqual(t, collect(ix.Cursor(Bound{}, Bound{}, false)),
		[]RowID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})

	// An exclusive NULL lower bound skips exactly the NULL entries —
	// how a predicate-driven scan excludes NULLs under an upper bound.
	got := collect(ix.Cursor(BoundAt(value.Null(), false), BoundAt(value.NewInt(3), true), false))
	idsEqual(t, got, []RowID{5, 6, 7})

	// An inclusive NULL upper bound selects only the NULL group.
	got = collect(ix.Cursor(Bound{}, BoundAt(value.Null(), true), false))
	idsEqual(t, got, []RowID{0, 1, 2, 3, 4})

	// Descending full walk: NULLs come last, still in arrival order.
	got = collect(ix.Cursor(Bound{}, Bound{}, true))
	idsEqual(t, got, []RowID{9, 8, 7, 6, 5, 0, 1, 2, 3, 4})
}

func TestOrderedIndexDeleteAndReinsert(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ix := NewOrderedIndex(1)
	live := map[RowID]value.Value{}
	next := RowID(0)
	for step := 0; step < 20000; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			// Delete a random live entry.
			for id, v := range live {
				ix.remove(one(v), id)
				delete(live, id)
				break
			}
			continue
		}
		v := value.NewInt(int64(rng.Intn(50)))
		ix.add(one(v), next)
		live[next] = v
		next++
	}
	if ix.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(live))
	}
	var ref []oentry
	for id, v := range live {
		ref = append(ref, oentry{vs: one(v), id: id})
	}
	refSort(ref)
	want := make([]RowID, len(ref))
	for i, e := range ref {
		want[i] = e.id
	}
	idsEqual(t, collect(ix.Cursor(Bound{}, Bound{}, false)), want)

	// Drain completely and rebuild.
	for id, v := range live {
		ix.remove(one(v), id)
	}
	if ix.Len() != 0 {
		t.Fatalf("Len after drain = %d", ix.Len())
	}
	if got := collect(ix.Cursor(Bound{}, Bound{}, false)); len(got) != 0 {
		t.Fatalf("drained index yielded %v", got)
	}
	ix.add(one(value.NewInt(1)), 1)
	idsEqual(t, collect(ix.Cursor(Bound{}, Bound{}, false)), []RowID{1})
}

// pair builds a two-column key tuple.
func pair(a, b value.Value) []value.Value { return []value.Value{a, b} }

func TestCompositeIndexFullWalkMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ix := NewOrderedIndex(2)
	var ref []oentry
	for i := 0; i < 5000; i++ {
		// Heavy duplicates in both columns, NULLs sprinkled into each.
		a, b := value.NewInt(int64(rng.Intn(20))), value.NewInt(int64(rng.Intn(10)))
		if rng.Intn(10) == 0 {
			a = value.Null()
		}
		if rng.Intn(10) == 0 {
			b = value.Null()
		}
		ix.add(pair(a, b), RowID(i))
		ref = append(ref, oentry{vs: pair(a, b), id: RowID(i)})
	}
	refSort(ref)
	want := make([]RowID, len(ref))
	for i, e := range ref {
		want[i] = e.id
	}
	idsEqual(t, collect(ix.CursorTuple(TupleBound{}, TupleBound{}, false)), want)
	idsEqual(t, collect(ix.CursorTuple(TupleBound{}, TupleBound{}, true)), refDesc(ref))
}

func TestCompositeIndexPrefixBounds(t *testing.T) {
	ix := NewOrderedIndex(2)
	// ids 0..99 keyed (id/10, id%10): a in 0..9, b in 0..9, ordered
	// exactly by id.
	for i := 0; i < 100; i++ {
		ix.add(pair(value.NewInt(int64(i/10)), value.NewInt(int64(i%10))), RowID(i))
	}
	ids := func(lo, hi TupleBound, desc bool) []RowID { return collect(ix.CursorTuple(lo, hi, desc)) }
	span := func(from, to int) []RowID {
		var w []RowID
		for i := from; i < to; i++ {
			w = append(w, RowID(i))
		}
		return w
	}

	// Prefix bounds address whole leading-column groups.
	idsEqual(t, ids(TupleBoundAt(one(value.NewInt(3)), true), TupleBoundAt(one(value.NewInt(5)), false), false), span(30, 50))
	idsEqual(t, ids(TupleBoundAt(one(value.NewInt(3)), false), TupleBoundAt(one(value.NewInt(5)), true), false), span(40, 60))
	// Prefix equality [7, 7] inclusive selects the full a=7 group.
	idsEqual(t, ids(TupleBoundAt(one(value.NewInt(7)), true), TupleBoundAt(one(value.NewInt(7)), true), false), span(70, 80))

	// Full-tuple bounds: a=4 AND b in [2, 6).
	idsEqual(t,
		ids(TupleBoundAt(pair(value.NewInt(4), value.NewInt(2)), true),
			TupleBoundAt(pair(value.NewInt(4), value.NewInt(6)), false), false),
		span(42, 46))
	// Mixed widths: from (4, 7) inclusive through the whole a=5 group.
	idsEqual(t,
		ids(TupleBoundAt(pair(value.NewInt(4), value.NewInt(7)), true),
			TupleBoundAt(one(value.NewInt(5)), true), false),
		span(47, 60))

	// Descending prefix range [3, 5]: a groups 5,4,3, ids ascending
	// within each equal (a, b) tuple — here tuples are unique, so ids
	// descend across the span.
	got := ids(TupleBoundAt(one(value.NewInt(3)), true), TupleBoundAt(one(value.NewInt(5)), true), true)
	var want []RowID
	for i := 59; i >= 30; i-- {
		want = append(want, RowID(i))
	}
	idsEqual(t, got, want)

	// Empty prefix range.
	if got := ids(TupleBoundAt(one(value.NewInt(5)), false), TupleBoundAt(one(value.NewInt(5)), false), false); len(got) != 0 {
		t.Fatalf("exclusive-empty prefix range returned %v", got)
	}
}

// TestCompositeIndexChurn mirrors the single-column delete/reinsert
// suite: random insert/delete churn against a reference model, with
// range probes at random prefix and full-tuple bounds.
func TestCompositeIndexChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ix := NewOrderedIndex(2)
	live := map[RowID][]value.Value{}
	next := RowID(0)
	check := func() {
		var ref []oentry
		for id, vs := range live {
			ref = append(ref, oentry{vs: vs, id: id})
		}
		refSort(ref)
		want := make([]RowID, len(ref))
		for i, e := range ref {
			want[i] = e.id
		}
		idsEqual(t, collect(ix.CursorTuple(TupleBound{}, TupleBound{}, false)), want)
		idsEqual(t, collect(ix.CursorTuple(TupleBound{}, TupleBound{}, true)), refDesc(ref))

		// A random prefix range probe, both directions.
		lo, hi := int64(rng.Intn(8)), int64(rng.Intn(8))
		if lo > hi {
			lo, hi = hi, lo
		}
		var inRange []oentry
		for _, e := range ref {
			if !e.vs[0].IsNull() && e.vs[0].RawInt() >= lo && e.vs[0].RawInt() <= hi {
				inRange = append(inRange, e)
			}
		}
		want = want[:0]
		for _, e := range inRange {
			want = append(want, e.id)
		}
		tlo := TupleBoundAt(one(value.NewInt(lo)), true)
		thi := TupleBoundAt(one(value.NewInt(hi)), true)
		idsEqual(t, collect(ix.CursorTuple(tlo, thi, false)), want)
		idsEqual(t, collect(ix.CursorTuple(tlo, thi, true)), refDesc(inRange))
	}
	for step := 0; step < 20000; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			for id, vs := range live {
				ix.remove(vs, id)
				delete(live, id)
				break
			}
		} else {
			vs := pair(value.NewInt(int64(rng.Intn(8))), value.NewInt(int64(rng.Intn(4))))
			if rng.Intn(12) == 0 {
				vs[1] = value.Null()
			}
			ix.add(vs, next)
			live[next] = vs
			next++
		}
		if step%4000 == 3999 {
			check()
		}
	}
	if ix.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(live))
	}
	check()
}

func TestTableMaintainsOrderedIndex(t *testing.T) {
	sc := &schema.Schema{
		Table: "t",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "v", Type: schema.TInt},
		},
		Key: []string{"id"},
	}
	tbl, err := NewTable(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := tbl.Insert(schema.Row{value.NewInt(int64(i)), value.NewInt(int64(99 - i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateOrderedIndex("v"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateOrderedIndex("v"); err == nil {
		t.Fatal("duplicate ordered index allowed")
	}
	ix, ok := tbl.OrderedIndex("V") // case-insensitive
	if !ok {
		t.Fatal("ordered index not found")
	}
	if ix.Len() != 100 {
		t.Fatalf("index Len = %d", ix.Len())
	}

	// v ascending = id descending by construction.
	ids := collect(ix.Cursor(Bound{}, Bound{}, false))
	for i, id := range ids {
		if int(id) != 99-i {
			t.Fatalf("pos %d: id %d", i, id)
		}
	}

	// Delete, update, and undo-reinsert all keep the index in step.
	if _, err := tbl.Delete(RowID(99)); err != nil { // v=0
		t.Fatal(err)
	}
	if _, err := tbl.Update(RowID(0), schema.Row{value.NewInt(0), value.NewInt(1000)}); err != nil { // v 99 -> 1000
		t.Fatal(err)
	}
	if err := tbl.InsertAt(RowID(99), schema.Row{value.NewInt(99), value.NewInt(-5)}); err != nil {
		t.Fatal(err)
	}
	ids = collect(ix.Cursor(Bound{}, Bound{}, false))
	if len(ids) != 100 {
		t.Fatalf("index has %d entries", len(ids))
	}
	if ids[0] != 99 { // v=-5 sorts first
		t.Fatalf("first id %d", ids[0])
	}
	if ids[len(ids)-1] != 0 { // v=1000 sorts last
		t.Fatalf("last id %d", ids[len(ids)-1])
	}
	if got := tbl.OrderedIndexColumns(); len(got) != 1 || got[0] != "v" {
		t.Fatalf("OrderedIndexColumns = %v", got)
	}
}

func TestTableMaintainsCompositeOrderedIndex(t *testing.T) {
	sc := &schema.Schema{
		Table: "t",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "a", Type: schema.TInt},
			{Name: "b", Type: schema.TInt},
		},
		Key: []string{"id"},
	}
	tbl, err := NewTable(sc)
	if err != nil {
		t.Fatal(err)
	}
	// (a, b) = (id%5, id%3): duplicates in both columns.
	for i := 0; i < 60; i++ {
		r := schema.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 5)), value.NewInt(int64(i % 3))}
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateOrderedIndex("a", "B"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateOrderedIndex("A", "b"); err == nil {
		t.Fatal("duplicate composite index allowed")
	}
	// (b, a) is a different index than (a, b); a alone too.
	if err := tbl.CreateOrderedIndex("b", "a"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateOrderedIndex("a"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateOrderedIndex("a", "a"); err == nil {
		t.Fatal("repeated column allowed in one index")
	}

	infos := tbl.OrderedIndexes()
	if len(infos) != 3 {
		t.Fatalf("OrderedIndexes returned %d entries", len(infos))
	}
	wantCols := [][]string{{"a"}, {"a", "b"}, {"b", "a"}}
	for i, want := range wantCols {
		got := infos[i].Columns
		if len(got) != len(want) {
			t.Fatalf("index %d columns = %v, want %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("index %d columns = %v, want %v", i, got, want)
			}
		}
	}
	// Composite indexes stay out of the single-column listing.
	if got := tbl.OrderedIndexColumns(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("OrderedIndexColumns = %v", got)
	}

	var ab *OrderedIndex
	for _, info := range infos {
		if len(info.Columns) == 2 && info.Columns[0] == "a" {
			ab = info.Index
		}
	}
	verify := func() {
		t.Helper()
		var ref []oentry
		tbl.Scan(func(id RowID, r schema.Row) bool {
			ref = append(ref, oentry{vs: pair(r[1], r[2]), id: id})
			return true
		})
		refSort(ref)
		want := make([]RowID, len(ref))
		for i, e := range ref {
			want[i] = e.id
		}
		idsEqual(t, collect(ab.CursorTuple(TupleBound{}, TupleBound{}, false)), want)
	}
	verify()

	// Update that changes only b must re-index; one that changes
	// neither key column must not disturb the walk.
	if _, err := tbl.Update(RowID(7), schema.Row{value.NewInt(7), value.NewInt(7 % 5), value.NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Delete(RowID(30)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertAt(RowID(30), schema.Row{value.NewInt(30), value.NewInt(4), value.Null()}); err != nil {
		t.Fatal(err)
	}
	verify()
}

func TestCachedStatsStaleness(t *testing.T) {
	sc := &schema.Schema{
		Table:   "t",
		Columns: []schema.Column{{Name: "v", Type: schema.TInt}},
	}
	tbl, err := NewTable(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := tbl.Insert(schema.Row{value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	s1 := tbl.CachedStats()
	if s1.Rows != 10 {
		t.Fatalf("Rows = %d", s1.Rows)
	}
	// A few mutations stay inside the staleness allowance.
	for i := 10; i < 20; i++ {
		if _, err := tbl.Insert(schema.Row{value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if s2 := tbl.CachedStats(); s2 != s1 {
		t.Fatal("stats recomputed inside the staleness allowance")
	}
	// Blowing past the allowance recomputes.
	for i := 20; i < 20+statsStaleRows+1; i++ {
		if _, err := tbl.Insert(schema.Row{value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if s3 := tbl.CachedStats(); s3 == s1 || s3.Rows != int64(20+statsStaleRows+1) {
		t.Fatalf("stats not refreshed: %+v", s3)
	}
}

func TestFractionEstimates(t *testing.T) {
	cs := ColumnStats{
		Name:     "v",
		Distinct: 100,
		Nulls:    0,
		Min:      value.NewInt(0),
		Max:      value.NewInt(999),
	}
	if f := cs.EqFraction(1000); f < 0.009 || f > 0.011 {
		t.Fatalf("EqFraction = %v", f)
	}
	f := cs.RangeFraction(BoundAt(value.NewInt(0), true), BoundAt(value.NewInt(9), false), 1000)
	if f < 0.005 || f > 0.02 {
		t.Fatalf("1%% RangeFraction = %v", f)
	}
	f = cs.RangeFraction(BoundAt(value.NewInt(500), true), Bound{}, 1000)
	if f < 0.45 || f > 0.55 {
		t.Fatalf("half RangeFraction = %v", f)
	}
	// Text columns degrade to the 1/3 rule.
	tcs := ColumnStats{Name: "s", Distinct: 10, Min: value.NewText("a"), Max: value.NewText("z")}
	if f := tcs.RangeFraction(BoundAt(value.NewText("m"), true), Bound{}, 1000); f < 0.3 || f > 0.4 {
		t.Fatalf("text RangeFraction = %v", f)
	}
	// NULL-heavy columns scale by the non-NULL fraction.
	ncs := ColumnStats{Name: "n", Distinct: 10, Nulls: 900, Min: value.NewInt(0), Max: value.NewInt(9)}
	if f := ncs.RangeFraction(BoundAt(value.NewInt(0), true), Bound{}, 1000); f > 0.11 {
		t.Fatalf("null-heavy RangeFraction = %v", f)
	}
}
