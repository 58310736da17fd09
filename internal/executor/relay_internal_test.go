package executor

import (
	"testing"

	"myriad/internal/localdb"
	"myriad/internal/schema"
	"myriad/internal/sqlparser"
	"myriad/internal/value"
)

// TestResidualBatch: a batch whose values all have their declared kinds
// is filtered where it lies — forwarded as it arrived when every row
// survives, cut to a prefix or copied out row by row otherwise — while
// a batch holding another kind is decoded, coerced and re-encoded.
func TestResidualBatch(t *testing.T) {
	sc := &schema.Schema{Table: "r", Columns: []schema.Column{
		{Name: "id", Type: schema.TInt}, {Name: "w", Type: schema.TFloat}, {Name: "s", Type: schema.TText}}}
	enc := func(rows ...schema.Row) schema.Batch {
		var b schema.Batch
		for _, r := range rows {
			b.Payload = value.AppendRow(b.Payload, r)
			b.N++
		}
		return b
	}
	row := func(id int64, w value.Value) schema.Row {
		return schema.Row{value.NewInt(id), w, value.NewText("text the filter never reads")}
	}
	stream := func(where string, offset, count int64) *bypassStream {
		b := &bypassStream{schema: sc, offset: offset, count: count, scan: value.RowScanner{Kinds: sc.Kinds()}}
		if where != "" {
			stmt, err := sqlparser.Parse(`SELECT * FROM r WHERE ` + where)
			if err != nil {
				t.Fatal(err)
			}
			if b.where, b.scan.Need, err = localdb.CompileRowPredicate(stmt.(*sqlparser.Select).Where, sc, "r"); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	same := func(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
	conforming := enc(row(1, value.NewFloat(2.5)), row(2, value.Null()), row(3, value.NewFloat(7)))

	out, err := stream("w > 1 OR w IS NULL", 0, -1).residualBatch(conforming)
	if err != nil || out.N != 3 || !same(out.Payload, conforming.Payload) || len(out.Payload) != len(conforming.Payload) {
		t.Fatalf("all rows survive: %d rows, forwarded as arrived %v, err %v", out.N, same(out.Payload, conforming.Payload), err)
	}
	out, err = stream("", 0, 2).residualBatch(conforming)
	if err != nil || out.N != 2 || !same(out.Payload, conforming.Payload) {
		t.Fatalf("LIMIT 2: %d rows, a prefix of the batch %v, err %v", out.N, same(out.Payload, conforming.Payload), err)
	}
	check := func(what string, out schema.Batch, want ...schema.Row) {
		t.Helper()
		got, err := value.DecodeRows([]schema.Row(nil), out.N, out.Payload)
		if err != nil || len(got) != len(want) {
			t.Fatalf("%s: %v, err %v; want %v", what, got, err, want)
		}
		for i := range want {
			for c := range want[i] {
				if got[i][c].K != want[i][c].K || got[i][c].Text() != want[i][c].Text() {
					t.Fatalf("%s: row %d is %v, want %v", what, i, got[i], want[i])
				}
			}
		}
	}
	b := stream("w > 5 OR id = 1", 1, -1)
	out, err = b.residualBatch(conforming)
	if err != nil || same(out.Payload, conforming.Payload) {
		t.Fatalf("OFFSET 1 over two survivors: err %v, aliased %v", err, same(out.Payload, conforming.Payload))
	}
	check("OFFSET 1 over two survivors", out, row(3, value.NewFloat(7)))
	if b.skipped != 1 {
		t.Fatalf("skipped %d rows, want 1", b.skipped)
	}

	mixed := enc(row(4, value.NewFloat(9)), row(5, value.NewInt(6)), row(6, value.NewInt(1)))
	out, err = stream("w > 5", 0, -1).residualBatch(mixed)
	if err != nil || same(out.Payload, mixed.Payload) {
		t.Fatalf("a batch with an INTEGER under FLOAT: err %v, aliased %v", err, same(out.Payload, mixed.Payload))
	}
	check("coerced", out, row(4, value.NewFloat(9)), row(5, value.NewFloat(6)))
}
