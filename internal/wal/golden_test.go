package wal

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"reflect"
	"testing"

	"myriad/internal/value"
)

// goldenRecords are the records whose payloads testdata/golden_records.hex
// holds, one hex line each, as written by the WAL's original private
// value encoder: a commit carrying every value kind (and the edge values
// of each), an empty-row update and a delete, then a prepare with locks
// and a global id.
func goldenRecords() []*Record {
	return []*Record{
		{LSN: 41, Kind: RecCommit, Branch: 9, Ops: []Op{
			{Kind: OpInsert, Table: "every_kind", Row: 0, Vals: []value.Value{
				value.Null(),
				value.NewInt(0), value.NewInt(-1), value.NewInt(300),
				value.NewInt(math.MinInt64), value.NewInt(math.MaxInt64),
				value.NewFloat(95.5), value.NewFloat(math.Copysign(0, -1)),
				value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)), value.NewFloat(math.NaN()),
				value.NewText(""), value.NewText("ada"), value.NewText("\xff\xfe not utf-8"),
				value.NewBool(true), value.NewBool(false),
			}},
			{Kind: OpUpdate, Table: "every_kind", Row: 1 << 40, Vals: []value.Value{}},
			{Kind: OpDelete, Table: "every_kind", Row: 7},
		}},
		{LSN: 42, Kind: RecPrepare, Branch: 12, GID: 77, Ops: []Op{
			{Kind: OpInsert, Table: "acct", Row: 3, Vals: []value.Value{value.NewInt(3), value.NewText("x"), value.NewFloat(-2.25)}},
		}, Locks: []LockEntry{{Resource: "acct/3", Mode: 2}, {Resource: "acct", Mode: 1}}},
	}
}

// TestGoldenRecordsUnchanged pins the on-disk format: committed bytes
// decode to exactly the records above and re-encode byte for byte, so
// logs written by earlier builds keep replaying.
func TestGoldenRecordsUnchanged(t *testing.T) {
	f, err := os.Open("testdata/golden_records.hex")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var payloads [][]byte
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		b, err := hex.DecodeString(sc.Text())
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, b)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := goldenRecords()
	if len(payloads) != len(want) {
		t.Fatalf("%d golden payloads, want %d", len(payloads), len(want))
	}
	for i, payload := range payloads {
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("record %d decoded as\n%+v\nwant\n%+v", i, got, want[i])
		}
		if re := encodeRecord(got); !bytes.Equal(re, payload) {
			t.Errorf("record %d re-encodes as\n%x\nwant\n%x", i, re, payload)
		}
	}
}
