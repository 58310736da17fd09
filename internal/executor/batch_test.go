package executor_test

import (
	"context"
	"fmt"
	"testing"

	"myriad/internal/catalog"
	"myriad/internal/core"
	"myriad/internal/executor"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/localdb"
	"myriad/internal/planner"
	"myriad/internal/schema"
	"myriad/internal/testfed"
	"myriad/internal/value"
)

// kindsFederation integrates R(id INTEGER, w FLOAT, s TEXT) over site a,
// whose w is INTEGER (every row needs coercion), and site b, whose w is
// FLOAT (every row already conforms). Both hold NULLs and more rows than
// one batch.
func kindsFederation(t *testing.T) (*core.Federation, *planner.Planner) {
	t.Helper()
	ctx := context.Background()
	fed := core.New("batch-test")
	for _, site := range []struct {
		name, wType string
		rows        int
	}{{"a", "INTEGER", 700}, {"b", "FLOAT", 300}} {
		db := localdb.New(site.name)
		db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, w ` + site.wType + `, s TEXT)`)
		rows := make([]schema.Row, site.rows)
		for i := range rows {
			id := int64(i)
			if site.name == "b" {
				id += 10_000
			}
			w, s := value.NewInt(int64(i%97)), value.NewText(fmt.Sprintf("x%d", i%13))
			if i%11 == 0 {
				w = value.Null()
			}
			if i%7 == 0 {
				s = value.Null()
			}
			rows[i] = schema.Row{value.NewInt(id), w, s}
		}
		if err := db.Load("t", rows); err != nil {
			t.Fatal(err)
		}
		gw := gateway.New(site.name, db, nil)
		if err := gw.DefineExport(gateway.Export{Name: "T", LocalTable: "t"}); err != nil {
			t.Fatal(err)
		}
		if err := fed.AttachSite(ctx, &gateway.LocalConn{G: gw}); err != nil {
			t.Fatal(err)
		}
	}
	same := map[string]string{"id": "id", "w": "w", "s": "s"}
	if err := fed.DefineIntegrated(&catalog.IntegratedDef{
		Name: "R",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt}, {Name: "w", Type: schema.TFloat}, {Name: "s", Type: schema.TText}},
		Combine: integration.UnionAll,
		Sources: []catalog.SourceDef{{Site: "a", Export: "T", ColumnMap: same}, {Site: "b", Export: "T", ColumnMap: same}},
	}); err != nil {
		t.Fatal(err)
	}
	return fed, planner.New(fed.Catalog(), fed)
}

// batchRunner serves each site's rows from a materialized stream that
// offers encoded batches the way a remote site stream does.
type batchRunner struct{ fed *core.Federation }

// encodedStream serves a materialized result by rows, or by batches of
// up to 256 encoded rows.
type encodedStream struct {
	schema.RowStream
	rows []schema.Row
}

func (s *encodedStream) Batched() bool { return true }

func (s *encodedStream) NextBatch(ctx context.Context) (schema.Batch, error) {
	if err := ctx.Err(); err != nil {
		return schema.Batch{}, err
	}
	var b schema.Batch
	for ; b.N < 256 && len(s.rows) > 0; b.N++ {
		b.Payload = value.AppendRow(b.Payload, s.rows[0])
		s.rows = s.rows[1:]
	}
	return b, nil
}

func (r batchRunner) QuerySite(ctx context.Context, site, sql string) (schema.RowStream, error) {
	conn, ok := r.fed.Conn(site)
	if !ok {
		return nil, fmt.Errorf("no site %q", site)
	}
	st, err := conn.QueryStream(ctx, 0, sql)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	rs, err := schema.DrainStream(ctx, st)
	if err != nil {
		return nil, err
	}
	return &encodedStream{RowStream: schema.StreamOf(rs), rows: rs.Rows}, nil
}

// drainBatches reads a result by NextBatch and decodes it.
func drainBatches(t *testing.T, ctx context.Context, bs schema.BatchStream) *schema.ResultSet {
	t.Helper()
	rs := &schema.ResultSet{Columns: bs.Columns()}
	for {
		b, err := bs.NextBatch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b.N == 0 {
			return rs
		}
		if rs.Rows, err = value.DecodeRows(rs.Rows, b.N, b.Payload); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBypassBatchesMatchRows: an identity projection over sources that
// offer batches is read by NextBatch, and gives exactly the rows, kinds
// and order the row path gives — the oracle's, with site a's INTEGER w
// coerced to the declared FLOAT on both paths — across batch boundaries,
// NULLs, a residual WHERE, OFFSET and LIMIT.
func TestBypassBatchesMatchRows(t *testing.T) {
	fed, p := kindsFederation(t)
	ctx := context.Background()
	oracle, err := testfed.NewOracle(ctx, fed)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`SELECT id, w, s FROM R`,
		`SELECT * FROM R WHERE w > 50`,
		`SELECT id, w, s FROM R WHERE s = 'x3' OR id < 5`,
		`SELECT id, w, s FROM R WHERE w IS NULL`,
		`SELECT id, w, s FROM R LIMIT 300 OFFSET 250`,
		`SELECT id, w, s FROM R WHERE id >= 100 LIMIT 10 OFFSET 590`,
		`SELECT id, w, s FROM R WHERE w < 20 LIMIT 1000 OFFSET 3`,
		`SELECT id, w, s FROM R LIMIT 0`,
	} {
		t.Run(sql, func(t *testing.T) {
			plan := planFor(t, p, sql)
			want, _, err := execute(ctx, plan, batchRunner{fed}, executor.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := oracle.Check(ctx, sql, want); err != nil {
				t.Fatalf("row path: %v", err)
			}
			rows, m, err := executor.Execute(ctx, plan, batchRunner{fed}, executor.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()
			bs := schema.Batches(rows)
			if bs == nil || !m.ScratchBypassed {
				t.Fatalf("identity projection does not offer batches (bypassed %v)", m.ScratchBypassed)
			}
			got := drainBatches(t, ctx, bs)
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("batches gave %d rows, rows gave %d", len(got.Rows), len(want.Rows))
			}
			for i := range want.Rows {
				for c := range want.Rows[i] {
					if g, w := got.Rows[i][c], want.Rows[i][c]; g.K != w.K || g.Text() != w.Text() {
						t.Fatalf("row %d column %d: batches %v (%v), rows %v (%v)", i, c, g, g.K, w, w.K)
					}
				}
			}
		})
	}
}

// TestBypassBatchesOnlyForIdentity: a projection that reorders or drops
// columns, an ordered merge and in-process site streams keep decoding.
func TestBypassBatchesOnlyForIdentity(t *testing.T) {
	fed, p := kindsFederation(t)
	ctx := context.Background()
	for _, tc := range []struct {
		sql    string
		runner executor.SiteRunner
	}{
		{`SELECT w, id, s FROM R`, batchRunner{fed}},
		{`SELECT id AS k, w, s FROM R`, batchRunner{fed}},
		{`SELECT id, w, s FROM R ORDER BY id LIMIT 5`, batchRunner{fed}},
		{`SELECT id, w, s FROM R`, fedRunner{fed}},
	} {
		plan := planFor(t, p, tc.sql)
		rows, m, err := executor.Execute(ctx, plan, tc.runner, executor.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !m.ScratchBypassed {
			t.Errorf("%s: not bypassed:\n%s", tc.sql, plan.Describe())
		}
		if schema.Batches(rows) != nil {
			t.Errorf("%s: offers batches", tc.sql)
		}
		rows.Close()
	}
}
