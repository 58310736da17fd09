package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/value"
)

func newTestTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable(&schema.Schema{
		Table: "acct",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt, NotNull: true},
			{Name: "owner", Type: schema.TText},
			{Name: "bal", Type: schema.TInt},
		},
		Key: []string{"id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func row(id int64, owner string, bal int64) schema.Row {
	return schema.Row{value.NewInt(id), value.NewText(owner), value.NewInt(bal)}
}

func TestInsertGetDelete(t *testing.T) {
	tbl := newTestTable(t)
	id1, err := tbl.Insert(row(1, "ann", 100))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
	got := tbl.Get(id1)
	if got == nil || got[1].Text() != "ann" {
		t.Errorf("Get: %v", got)
	}

	// Duplicate PK rejected.
	if _, err := tbl.Insert(row(1, "dup", 0)); err == nil {
		t.Error("duplicate PK accepted")
	}

	// PK lookup.
	rid, r, ok := tbl.GetByKey([]value.Value{value.NewInt(1)})
	if !ok || rid != id1 || r[1].Text() != "ann" {
		t.Errorf("GetByKey: %v %v %v", rid, r, ok)
	}
	if _, _, ok := tbl.GetByKey([]value.Value{value.NewInt(99)}); ok {
		t.Error("GetByKey on absent key succeeded")
	}

	old, err := tbl.Delete(id1)
	if err != nil || old[1].Text() != "ann" {
		t.Fatalf("Delete: %v %v", old, err)
	}
	if tbl.Len() != 0 || tbl.Get(id1) != nil {
		t.Error("row survives delete")
	}
	if _, err := tbl.Delete(id1); err == nil {
		t.Error("double delete accepted")
	}
	// Key is free again.
	if _, err := tbl.Insert(row(1, "again", 5)); err != nil {
		t.Errorf("reinsert after delete: %v", err)
	}
}

func TestInsertAtUndo(t *testing.T) {
	tbl := newTestTable(t)
	id, _ := tbl.Insert(row(1, "a", 1))
	old, _ := tbl.Delete(id)
	if err := tbl.InsertAt(id, old); err != nil {
		t.Fatalf("InsertAt: %v", err)
	}
	if tbl.Len() != 1 {
		t.Error("undo re-insert lost row")
	}
	if err := tbl.InsertAt(id, old); err == nil {
		t.Error("InsertAt into occupied slot accepted")
	}
}

func TestUpdate(t *testing.T) {
	tbl := newTestTable(t)
	id, _ := tbl.Insert(row(1, "a", 1))
	old, err := tbl.Update(id, row(1, "a", 42))
	if err != nil {
		t.Fatal(err)
	}
	if old[2].RawInt() != 1 || tbl.Get(id)[2].RawInt() != 42 {
		t.Error("update old/new images wrong")
	}

	// PK change is re-indexed.
	if _, err := tbl.Update(id, row(7, "a", 42)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tbl.GetByKey([]value.Value{value.NewInt(1)}); ok {
		t.Error("old key still indexed")
	}
	if _, _, ok := tbl.GetByKey([]value.Value{value.NewInt(7)}); !ok {
		t.Error("new key not indexed")
	}

	// PK conflict on update.
	tbl.Insert(row(1, "b", 2)) //nolint:errcheck
	if _, err := tbl.Update(id, row(1, "x", 0)); err == nil {
		t.Error("PK conflict on update accepted")
	}
}

func TestCoercionOnInsert(t *testing.T) {
	tbl := newTestTable(t)
	id, err := tbl.Insert(schema.Row{value.NewText("3"), value.NewText("t"), value.NewFloat(9.9)})
	if err != nil {
		t.Fatal(err)
	}
	r := tbl.Get(id)
	if r[0].K != value.KindInt || r[0].RawInt() != 3 {
		t.Errorf("id not coerced: %v", r[0])
	}
	if r[2].K != value.KindInt || r[2].RawInt() != 9 {
		t.Errorf("bal not coerced: %v", r[2])
	}
	// NULL key rejected.
	if _, err := tbl.Insert(schema.Row{value.Null(), value.NewText("x"), value.Null()}); err == nil {
		t.Error("NULL PK accepted")
	}
}

func TestScanStopsEarly(t *testing.T) {
	tbl := newTestTable(t)
	for i := 0; i < 10; i++ {
		tbl.Insert(row(int64(i), "x", 0)) //nolint:errcheck
	}
	var n int
	tbl.Scan(func(RowID, schema.Row) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("scan visited %d, want 3", n)
	}
}

func TestScanFromResumes(t *testing.T) {
	tbl := newTestTable(t)
	for i := 0; i < 10; i++ {
		tbl.Insert(row(int64(i), "x", 0)) //nolint:errcheck
	}
	tbl.Delete(4) //nolint:errcheck
	// Resuming from the slot after the last visited row sees each live
	// row exactly once, skipping tombstones (the streaming scan
	// iterator's contract).
	var ids []int64
	next := RowID(0)
	for {
		visited := 0
		before := len(ids)
		tbl.ScanFrom(next, func(id RowID, r schema.Row) bool {
			v, _ := r[0].Int()
			ids = append(ids, v)
			next = id + 1
			visited++
			return visited < 3 // batch size 3
		})
		if len(ids) == before {
			break
		}
	}
	want := []int64{0, 1, 2, 3, 5, 6, 7, 8, 9}
	if len(ids) != len(want) {
		t.Fatalf("resumed scan saw %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("resumed scan saw %v, want %v", ids, want)
		}
	}
	// Negative start clamps to the beginning.
	n := 0
	tbl.ScanFrom(-5, func(RowID, schema.Row) bool { n++; return true })
	if n != 9 {
		t.Errorf("ScanFrom(-5) visited %d, want 9", n)
	}
}

// TestSegmentResumes: segments taken one after another cover every slot
// once, tombstones as nil, and appending to one cannot reach the table.
func TestSegmentResumes(t *testing.T) {
	tbl := newTestTable(t)
	for i := 0; i < 10; i++ {
		tbl.Insert(row(int64(i), "x", 0)) //nolint:errcheck
	}
	tbl.Delete(4) //nolint:errcheck
	var ids []int64
	slots := 0
	for next := RowID(-5); ; {
		seg, after := tbl.Segment(next, 3)
		if len(seg) == 0 {
			if after != next {
				t.Fatalf("empty segment moved the position from %d to %d", next, after)
			}
			break
		}
		if cap(seg) != len(seg) {
			t.Fatalf("segment len %d cap %d", len(seg), cap(seg))
		}
		_ = append(seg, nil)
		for _, r := range seg {
			if r != nil {
				v, _ := r[0].Int()
				ids = append(ids, v)
			}
		}
		slots += len(seg)
		next = after
	}
	if want := []int64{0, 1, 2, 3, 5, 6, 7, 8, 9}; fmt.Sprint(ids) != fmt.Sprint(want) || slots != 10 {
		t.Fatalf("segments saw %v over %d slots, want %v over 10", ids, slots, want)
	}
	if tbl.Get(9) == nil || tbl.Len() != 9 {
		t.Fatal("appending to a segment changed the table")
	}
}

func TestSecondaryIndex(t *testing.T) {
	tbl := newTestTable(t)
	for i := 0; i < 10; i++ {
		tbl.Insert(row(int64(i), fmt.Sprintf("owner%d", i%3), int64(i))) //nolint:errcheck
	}
	if err := tbl.CreateIndex("owner"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("owner"); err == nil {
		t.Error("duplicate index accepted")
	}
	if err := tbl.CreateIndex("ghost"); err == nil {
		t.Error("index on missing column accepted")
	}
	ix, ok := tbl.Index("OWNER")
	if !ok {
		t.Fatal("index not found (case-insensitive)")
	}
	// Rows i in 0..9 with i%3 == 1 hold owner1: 1, 4, 7, in insert order.
	ids := ix.AppendIDs(nil, value.NewText("owner1"))
	if fmt.Sprint(ids) != "[1 4 7]" {
		t.Errorf("index lookup: %v", ids)
	}
	// Appending keeps what dst already holds.
	if got := ix.AppendIDs([]RowID{9}, value.NewText("owner1")); fmt.Sprint(got) != "[9 1 4 7]" {
		t.Errorf("append lookup: %v", got)
	}

	// Index maintenance on update and delete.
	rid := ids[0]
	tbl.Update(rid, row(100, "ownerX", 0)) //nolint:errcheck
	if got := len(ix.AppendIDs(nil, value.NewText("ownerX"))); got != 1 {
		t.Errorf("index after update: %d", got)
	}
	tbl.Delete(rid) //nolint:errcheck
	if got := len(ix.AppendIDs(nil, value.NewText("ownerX"))); got != 0 {
		t.Errorf("index after delete: %d", got)
	}
}

func TestStats(t *testing.T) {
	tbl := newTestTable(t)
	tbl.Insert(row(1, "a", 10))                                             //nolint:errcheck
	tbl.Insert(row(2, "b", 20))                                             //nolint:errcheck
	tbl.Insert(row(3, "a", 30))                                             //nolint:errcheck
	tbl.Insert(schema.Row{value.NewInt(4), value.Null(), value.NewInt(20)}) //nolint:errcheck

	ts := tbl.Stats()
	if ts.Rows != 4 {
		t.Errorf("rows = %d", ts.Rows)
	}
	owner, ok := ts.Col("owner")
	if !ok || owner.Distinct != 2 || owner.Nulls != 1 {
		t.Errorf("owner stats: %+v", owner)
	}
	bal, _ := ts.Col("bal")
	if bal.Distinct != 3 {
		t.Errorf("bal distinct = %d", bal.Distinct)
	}
	if lo, _ := bal.Min.Int(); lo != 10 {
		t.Errorf("bal min = %v", bal.Min)
	}
	if hi, _ := bal.Max.Int(); hi != 30 {
		t.Errorf("bal max = %v", bal.Max)
	}
	if _, ok := ts.Col("ghost"); ok {
		t.Error("stats for missing column")
	}
}

// TestModelBasedRandomOps drives the table with random operations and
// checks it against a map model — the storage engine's core invariant
// (PK uniqueness + row identity) under arbitrary interleavings.
func TestModelBasedRandomOps(t *testing.T) {
	tbl := newTestTable(t)
	model := make(map[int64]int64) // id -> bal
	rowIDs := make(map[int64]RowID)
	rng := rand.New(rand.NewSource(42))

	for step := 0; step < 5000; step++ {
		id := int64(rng.Intn(50))
		switch rng.Intn(3) {
		case 0: // insert
			rid, err := tbl.Insert(row(id, "o", id*10))
			if _, exists := model[id]; exists {
				if err == nil {
					t.Fatalf("step %d: duplicate insert of %d accepted", step, id)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d: insert %d failed: %v", step, id, err)
				}
				model[id] = id * 10
				rowIDs[id] = rid
			}
		case 1: // update balance
			if _, exists := model[id]; exists {
				newBal := int64(rng.Intn(1000))
				if _, err := tbl.Update(rowIDs[id], row(id, "o", newBal)); err != nil {
					t.Fatalf("step %d: update %d: %v", step, id, err)
				}
				model[id] = newBal
			}
		case 2: // delete
			if _, exists := model[id]; exists {
				if _, err := tbl.Delete(rowIDs[id]); err != nil {
					t.Fatalf("step %d: delete %d: %v", step, id, err)
				}
				delete(model, id)
				delete(rowIDs, id)
			}
		}
	}

	if tbl.Len() != len(model) {
		t.Fatalf("table has %d rows, model has %d", tbl.Len(), len(model))
	}
	for id, bal := range model {
		_, r, ok := tbl.GetByKey([]value.Value{value.NewInt(id)})
		if !ok {
			t.Fatalf("model row %d missing from table", id)
		}
		if got, _ := r[2].Int(); got != bal {
			t.Fatalf("row %d bal = %d, model %d", id, got, bal)
		}
	}
	seen := 0
	tbl.Scan(func(_ RowID, r schema.Row) bool {
		seen++
		id, _ := r[0].Int()
		if _, ok := model[id]; !ok {
			t.Fatalf("table row %d not in model", id)
		}
		return true
	})
	if seen != len(model) {
		t.Fatalf("scan saw %d rows, model has %d", seen, len(model))
	}
}

func TestCompositeKey(t *testing.T) {
	tbl, err := NewTable(&schema.Schema{
		Table: "enroll",
		Columns: []schema.Column{
			{Name: "sid", Type: schema.TInt},
			{Name: "course", Type: schema.TText},
		},
		Key: []string{"sid", "course"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ins := func(sid int64, c string) error {
		_, err := tbl.Insert(schema.Row{value.NewInt(sid), value.NewText(c)})
		return err
	}
	if err := ins(1, "db"); err != nil {
		t.Fatal(err)
	}
	if err := ins(1, "os"); err != nil {
		t.Fatal(err)
	}
	if err := ins(2, "db"); err != nil {
		t.Fatal(err)
	}
	if err := ins(1, "db"); err == nil {
		t.Error("composite dup accepted")
	}
	_, _, ok := tbl.GetByKey([]value.Value{value.NewInt(1), value.NewText("os")})
	if !ok {
		t.Error("composite key lookup failed")
	}
}

func TestKeylessTable(t *testing.T) {
	tbl, err := NewTable(&schema.Schema{
		Table:   "log",
		Columns: []schema.Column{{Name: "msg", Type: schema.TText}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.HasPK() {
		t.Error("keyless table reports PK")
	}
	// Duplicates are fine.
	tbl.Insert(schema.Row{value.NewText("x")}) //nolint:errcheck
	tbl.Insert(schema.Row{value.NewText("x")}) //nolint:errcheck
	if tbl.Len() != 2 {
		t.Error("duplicate rows rejected in keyless table")
	}
	if _, _, ok := tbl.GetByKey([]value.Value{value.NewText("x")}); ok {
		t.Error("GetByKey on keyless table succeeded")
	}
}
