package localdb

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/storage"
	"myriad/internal/value"
)

// The golden snapshots in testdata were written by the snapshot code of
// versions 1 and 2, while value.Value still had five fields {K, I, F, S,
// B}. Version 2 is SaveSnapshot's output then; version 1 is the same
// state in the pre-durability shape (no LSN, no slots). Both hold the
// database goldenDB builds.
//
// gob omits a float field equal to zero, so those versions stored -0.0
// as 0.0: the legacy files load as legacyEdges, not goldenEdges, exactly
// as the code that wrote them loads them. Version 3 keeps the sign.

// goldenDigest is StateDigest of goldenDB and legacyDigest that of the
// legacy files once loaded, both as the code that wrote the files
// computed them.
const (
	goldenDigest = "755ef0a2931c160afae124b690febf48c8a10894cb213c2e8f37f1d1aaeeb156"
	legacyDigest = "4c3fa15faca70b2d53f2241aff9942c7925c718762bd352d0a887e864af3a675"
)

// goldenEdges is the edges table (id, i INTEGER, f FLOAT, t TEXT, b
// BOOLEAN): row k holds the k-th edge value of each column, NULL once a
// column's edges run out.
func goldenEdges() []schema.Row {
	n := value.Null()
	ints := []value.Value{n, value.NewInt(math.MinInt64), value.NewInt(math.MaxInt64),
		value.NewInt(1<<53 + 1), value.NewInt(-(1<<53 + 1)), value.NewInt(1<<53 - 1), value.NewInt(-(1<<53 - 1)),
		value.NewInt(0), value.NewInt(-1)}
	floats := []value.Value{n, value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0), value.NewFloat(math.NaN()),
		value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)), value.NewFloat(1<<53 + 1), value.NewFloat(1<<53 - 1),
		value.NewFloat(-(1<<53 - 1)), value.NewFloat(-(1 << 53)), value.NewFloat(1.5), value.NewFloat(math.SmallestNonzeroFloat64)}
	texts := []value.Value{n, value.NewText(""), value.NewText("\xff\xfe\x00z"), value.NewText("héllo"), value.NewText("12")}
	bools := []value.Value{n, value.NewBool(true), value.NewBool(false)}
	at := func(vs []value.Value, i int) value.Value {
		if i < len(vs) {
			return vs[i]
		}
		return n
	}
	var rows []schema.Row
	for i := range floats {
		rows = append(rows, schema.Row{value.NewInt(int64(i)), at(ints, i), at(floats, i), at(texts, i), at(bools, i)})
	}
	return rows
}

// legacyEdges is goldenEdges as versions 1 and 2 stored it: -0.0 as 0.0.
func legacyEdges() []schema.Row {
	rows := goldenEdges()
	for _, r := range rows {
		for c, v := range r {
			if v.K == value.KindFloat && v.RawFloat() == 0 {
				r[c] = value.NewFloat(0)
			}
		}
	}
	return rows
}

// goldenNoKey is the keyless table nokey (n INTEGER, f FLOAT): an
// INTEGER or FLOAT that loaded as zero would go unnoticed by any key.
func goldenNoKey() []schema.Row {
	return []schema.Row{
		{value.NewInt(7), value.NewFloat(2.5)},
		{value.NewInt(-7), value.NewFloat(-2.5)},
		{value.NewInt(7), value.NewFloat(2.5)},
	}
}

// goldenDB builds the database the golden files hold, the way they were
// written: edges bulk-loaded, then its indexes, then nokey through SQL.
func goldenDB(t *testing.T) *DB {
	t.Helper()
	db := New("golden")
	sc := &schema.Schema{Table: "edges", Columns: []schema.Column{
		{Name: "id", Type: schema.TInt, NotNull: true}, {Name: "i", Type: schema.TInt},
		{Name: "f", Type: schema.TFloat}, {Name: "t", Type: schema.TText}, {Name: "b", Type: schema.TBool}},
		Key: []string{"id"}}
	if err := db.CreateTableDirect(sc); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("edges", goldenEdges()); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE INDEX edges_t ON edges (t)`)
	db.MustExec(`CREATE ORDERED INDEX edges_i ON edges (i)`)
	db.MustExec(`CREATE TABLE nokey (n INTEGER, f FLOAT)`)
	db.MustExec(`INSERT INTO nokey (n, f) VALUES (7, 2.5), (-7, -2.5), (7, 2.5)`)
	return db
}

func tableRows(t *testing.T, db *DB, name string) []schema.Row {
	t.Helper()
	db.latch.RLock()
	defer db.latch.RUnlock()
	tbl, err := db.table(name)
	if err != nil {
		t.Fatal(err)
	}
	var rows []schema.Row
	tbl.Scan(func(_ storage.RowID, r schema.Row) bool {
		rows = append(rows, r)
		return true
	})
	return rows
}

// checkState compares every value of db's two tables with edges and
// goldenNoKey by kind and payload bits (struct equality: -0.0 is not
// 0.0, and NaN is itself), then db's digest with digest.
func checkState(t *testing.T, db *DB, edges []schema.Row, digest string) {
	t.Helper()
	for name, want := range map[string][]schema.Row{"edges": edges, "nokey": goldenNoKey()} {
		got := tableRows(t, db, name)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
		}
		for r := range want {
			if len(got[r]) != len(want[r]) {
				t.Fatalf("%s row %d: %d values, want %d", name, r, len(got[r]), len(want[r]))
			}
			for c, w := range want[r] {
				if g := got[r][c]; g != w {
					t.Errorf("%s row %d column %d: %s %#x %q, want %s %#x %q", name, r, c, g.K, g.N, g.S, w.K, w.N, w.S)
				}
			}
		}
	}
	if got := db.StateDigest(); got != digest {
		t.Errorf("StateDigest %s, want %s", got, digest)
	}
}

// TestSnapshotGoldenLegacy loads the version 1 and 2 snapshots written
// before the payload fold and checks each value bit for bit.
func TestSnapshotGoldenLegacy(t *testing.T) {
	for _, file := range []string{"testdata/snapshot-v1.gob", "testdata/snapshot-v2.gob"} {
		t.Run(file, func(t *testing.T) {
			b, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			db := New("golden")
			if err := db.LoadSnapshot(bytes.NewReader(b)); err != nil {
				t.Fatal(err)
			}
			checkState(t, db, legacyEdges(), legacyDigest)
		})
	}
}

// TestSnapshotGoldenRoundTrip saves the golden state as a version 3
// snapshot, whose rows are row-codec bytes, and loads it back bit for
// bit: built directly, and loaded from the version 2 file.
func TestSnapshotGoldenRoundTrip(t *testing.T) {
	b, err := os.ReadFile("testdata/snapshot-v2.gob")
	if err != nil {
		t.Fatal(err)
	}
	legacy := New("golden")
	if err := legacy.LoadSnapshot(bytes.NewReader(b)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		src    *DB
		edges  []schema.Row
		digest string
	}{
		{"built", goldenDB(t), goldenEdges(), goldenDigest},
		{"from v2", legacy, legacyEdges(), legacyDigest},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkState(t, c.src, c.edges, c.digest)
			var buf bytes.Buffer
			if err := c.src.SaveSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			var snap snapshot
			if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
				t.Fatal(err)
			}
			if snap.Version != 3 {
				t.Fatalf("saved version %d, want 3", snap.Version)
			}
			for _, ts := range snap.Tables {
				if len(ts.Rows) != 0 || len(ts.RowData) == 0 {
					t.Fatalf("table %s: %d legacy rows, %d row-codec bytes", ts.Schema.Table, len(ts.Rows), len(ts.RowData))
				}
			}
			dst := New("golden")
			if err := dst.LoadSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			checkState(t, dst, c.edges, c.digest)
		})
	}
}

// TestSnapshotRejectsBadRows: a version 3 table whose row bytes are
// corrupt, or whose slots do not match its rows, fails to load.
func TestSnapshotRejectsBadRows(t *testing.T) {
	sc := &schema.Schema{Table: "k", Columns: []schema.Column{{Name: "n", Type: schema.TInt}}}
	row := value.AppendRow(nil, []value.Value{value.NewInt(1)})
	for name, ts := range map[string]tableSnapshot{
		"truncated row":  {Schema: sc, RowData: row[:len(row)-1]},
		"too few slots":  {Schema: sc, RowData: append(row, row...), Slots: []int64{0}},
		"too many slots": {Schema: sc, RowData: row, Slots: []int64{0, 1}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&snapshot{Version: snapshotVersion, Tables: []tableSnapshot{ts}}); err != nil {
			t.Fatal(err)
		}
		if err := New("x").LoadSnapshot(&buf); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
}
