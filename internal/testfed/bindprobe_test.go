package testfed

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"myriad/internal/catalog"
	"myriad/internal/core"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/schema"
	"myriad/internal/value"
)

// probeFailPV is the pv of the key-7 row at site a that the failing
// probe WHERE divides by zero on: the 281st of the key's 300 live rows,
// past the first 256-row segment.
const probeFailPV = 280

// hashProbeFixture boots the bind join over a probe column that may
// carry a hash index at both probe sites. P = a.p UNION ALL b.p; DRV =
// b.d. At a, key 7 holds 300 live rows (pv 0..299 in id order) and keys
// 100..139 hold 16 each; b holds no key 7 and 5 rows a key. Both sites
// hold 2,000-odd distinct filler keys, so the sites' planners probe the
// index for a bind join's keys, NULL keys, and rows deleted after the
// index was built (kt = 'gone'). The driving side holds key 7 twice,
// keys 100..139 (four of them twice), NULL keys and keys no probe site
// holds.
func hashProbeFixture(t testing.TB, indexed bool) *Fixture {
	t.Helper()
	setup := []string{createProbe}
	if indexed {
		setup = append(setup, `CREATE INDEX p_k ON p (k)`)
	}
	specs := []SiteSpec{
		{Name: "a", Dialect: "oracle", Setup: setup,
			Exports: []gateway.Export{{Name: "P", LocalTable: "p"}}},
		{Name: "b", Dialect: "postgres", Setup: append(setup, createDriving),
			Exports: []gateway.Export{
				{Name: "P", LocalTable: "p"},
				{Name: "D", LocalTable: "d"},
			}},
	}
	probeMap := map[string]string{"id": "id", "k": "k", "kt": "kt", "pv": "pv"}
	defs := []*catalog.IntegratedDef{
		{
			Name: "P",
			Columns: []schema.Column{
				{Name: "id", Type: schema.TInt}, {Name: "k", Type: schema.TInt},
				{Name: "kt", Type: schema.TText}, {Name: "pv", Type: schema.TInt},
			},
			Key:     []string{"id"},
			Combine: integration.UnionAll,
			Sources: []catalog.SourceDef{
				{Site: "a", Export: "P", ColumnMap: probeMap},
				{Site: "b", Export: "P", ColumnMap: probeMap},
			},
		},
		{
			Name: "DRV",
			Columns: []schema.Column{
				{Name: "id", Type: schema.TInt}, {Name: "k", Type: schema.TInt},
				{Name: "kt", Type: schema.TText}, {Name: "tag", Type: schema.TText},
			},
			Key:     []string{"id"},
			Combine: integration.UnionAll,
			Sources: []catalog.SourceDef{
				{Site: "b", Export: "D", ColumnMap: map[string]string{
					"id": "id", "k": "k", "kt": "kt", "tag": "tag"}},
			},
		},
	}
	fx := New(t, specs, defs)
	fx.LoadRows(t, "a", "p", hashProbeRows(0, 300, 16))
	fx.LoadRows(t, "b", "p", hashProbeRows(100_000, 0, 5))
	for _, site := range []string{"a", "b"} {
		fx.Site(site).DB.MustExec(`DELETE FROM p WHERE kt = 'gone'`)
	}
	fx.Fed.InvalidateStats()
	var drv []schema.Row
	add := func(k value.Value, tag string) {
		drv = append(drv, schema.Row{value.NewInt(int64(len(drv))), k, value.NewText("t"), value.NewText(tag)})
	}
	add(value.NewInt(7), "one")
	add(value.NewInt(7), "dup")
	for i := 0; i < 40; i++ {
		add(value.NewInt(int64(100+i)), "many")
	}
	for i := 0; i < 4; i++ {
		add(value.NewInt(int64(100+i*9)), "dup")
		add(value.Null(), "null")
		add(value.NewInt(int64(5000+i)), "absent")
	}
	fx.LoadRows(t, "b", "d", drv)
	return fx
}

// hashProbeRows builds one probe site's rows from id base: sevens live
// rows of key 7 (pv their ordinal) and keys 100..139 with perKey live
// rows each, with a row to delete (kt = 'gone') after every seventh
// and ninth of them, interleaved with unique filler keys and a NULL key
// every twelfth row.
func hashProbeRows(base, sevens, perKey int) []schema.Row {
	var rows []schema.Row
	add := func(k value.Value, kt string, pv int) {
		rows = append(rows, schema.Row{value.NewInt(int64(base + len(rows))), k, value.NewText(kt), value.NewInt(int64(pv))})
	}
	seven, keyed := 0, 0
	for i := 0; i < 2400; i++ {
		switch {
		case i%12 == 0:
			add(value.Null(), "null", 500+i%100)
		case i%3 == 1 && seven < sevens:
			add(value.NewInt(7), "live", seven)
			seven++
			if seven%7 == 0 {
				add(value.NewInt(7), "gone", 0)
			}
		case i%3 == 2 && keyed < 40*perKey:
			add(value.NewInt(int64(100+keyed%40)), "live", 500+keyed%100)
			keyed++
			if keyed%9 == 0 {
				add(value.NewInt(int64(100+keyed%40)), "gone", 0)
			}
		default:
			add(value.NewInt(int64(10_000+base+i)), "filler", 500+i%100)
		}
	}
	return rows
}

var hashProbeCorpus = []string{
	`SELECT d.id, p.id AS pid, p.pv FROM DRV d JOIN P p ON d.k = p.k ORDER BY d.id, pid`,
	// One key, 300 rows at a: a probe across a segment boundary.
	`SELECT d.id, p.id AS pid, p.pv FROM DRV d JOIN P p ON d.k = p.k WHERE d.tag = 'one' ORDER BY d.id, pid`,
	`SELECT d.tag, COUNT(*) AS n, SUM(p.pv) AS s FROM DRV d JOIN P p ON d.k = p.k GROUP BY d.tag ORDER BY d.tag`,
	`SELECT d.id, p.id AS pid FROM DRV d JOIN P p ON d.k = p.k WHERE p.pv < 520 AND p.kt <> 'x' ORDER BY d.id, pid`,
	`SELECT d.id, p.id AS pid FROM DRV d JOIN P p ON d.k = p.k WHERE d.tag = 'absent' ORDER BY d.id, pid`,
	`SELECT d.id, p.id AS pid FROM DRV d LEFT JOIN P p ON d.k = p.k ORDER BY d.id, pid`,
}

// TestBindJoinHashProbeMatchesOracle: bind joins whose probe column
// carries a hash index at the probe sites — so each site answers the
// shipped IN-list from the index, a segment at a time — answer as the
// oracle does, and as the same federation without the index does.
func TestBindJoinHashProbeMatchesOracle(t *testing.T) {
	ctx := context.Background()
	for _, indexed := range []bool{true, false} {
		fx := hashProbeFixture(t, indexed)
		oracle := fx.Oracle(t)
		for _, sql := range hashProbeCorpus {
			got, m, err := fx.Fed.QueryMetered(ctx, sql, core.StrategyCostBased)
			if err != nil {
				t.Fatalf("index %v, %s: %v", indexed, sql, err)
			}
			// An absent tag ships no keys, and a LEFT JOIN's
			// null-supplying side is never reduced.
			if !strings.Contains(sql, "'absent'") && !strings.Contains(sql, "LEFT") && !m.SemijoinUsed {
				t.Fatalf("index %v, %s: no bind join", indexed, sql)
			}
			if err := oracle.Check(ctx, sql, got); err != nil {
				t.Fatalf("index %v, %s: %v", indexed, sql, err)
			}
		}
	}
}

// TestBindJoinHashProbeErrorMatchesRowPath: a probe WHERE that divides
// by zero on the 281st row a's index probe yields fails the bind join
// with the same error whether or not the index exists, and at the site
// the probe's frames carry exactly the rows the row path (a computed
// projection, which reads the probe a row at a time) sends before the
// same error.
func TestBindJoinHashProbeErrorMatchesRowPath(t *testing.T) {
	ctx := context.Background()
	join := fmt.Sprintf(`SELECT d.id, p.id AS pid FROM DRV d JOIN P p ON d.k = p.k WHERE 10 / (p.pv - %d) <> 99`, probeFailPV)
	var keys []string
	for k := 7; k < 140; k++ {
		keys = append(keys, fmt.Sprint(k))
	}
	where := fmt.Sprintf(`WHERE 10 / (pv - %d) <> 99 AND k IN (%s)`, probeFailPV, strings.Join(keys, ", "))
	var joinErrs []string
	for _, indexed := range []bool{true, false} {
		fx := hashProbeFixture(t, indexed)
		_, _, err := fx.Fed.QueryMetered(ctx, join, core.StrategyCostBased)
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("index %v: join error %v, want division by zero", indexed, err)
		}
		joinErrs = append(joinErrs, err.Error())

		batch, batchErr := drainSite(ctx, fx, "a", `SELECT id, pv FROM p `+where)
		row, rowErr := drainSite(ctx, fx, "a", `SELECT id, pv + 0 FROM p `+where)
		if batchErr == nil || rowErr == nil || batchErr.Error() != rowErr.Error() {
			t.Fatalf("index %v: probe error %v, row path's %v", indexed, batchErr, rowErr)
		}
		if fmt.Sprint(batch) != fmt.Sprint(row) {
			t.Fatalf("index %v: %d rows before the error, row path %d", indexed, len(batch), len(row))
		}
		// With the index the failing row is the 281st the probe yields,
		// so only its first full 256-row frame got out.
		if indexed && len(batch) != 256 {
			t.Fatalf("probe sent %d rows before the error, want 256", len(batch))
		}
	}
	if joinErrs[0] != joinErrs[1] {
		t.Fatalf("join error with the index %q, without %q", joinErrs[0], joinErrs[1])
	}
}

// drainSite streams sql at site through its gateway connection and
// returns the rows that arrived before the stream ended or failed.
func drainSite(ctx context.Context, fx *Fixture, site, sql string) ([]schema.Row, error) {
	st, err := fx.Runner().QuerySite(ctx, site, sql)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var rows []schema.Row
	for {
		r, err := st.Next(ctx)
		if err != nil || r == nil {
			return rows, err
		}
		rows = append(rows, r)
	}
}

// TestExplainShowsBindJoinProbeAccess: \explain asks each probe site
// about the bind join's probe form too — the scan with an IN-list of
// the build column's type ANDed on — which an indexed probe column
// answers with a hash probe, though the plain scan is a heap scan.
func TestExplainShowsBindJoinProbeAccess(t *testing.T) {
	ctx := context.Background()
	sql := `SELECT d.tag, COUNT(*) AS n FROM DRV d JOIN P p ON d.k = p.k GROUP BY d.tag`
	for _, indexed := range []bool{true, false} {
		fx := hashProbeFixture(t, indexed)
		out, err := fx.Fed.Explain(ctx, sql, core.StrategyCostBased)
		if err != nil {
			t.Fatal(err)
		}
		out = strings.ToLower(out) // the oracle dialect names the table P
		for _, site := range []string{"a", "b"} {
			want := fmt.Sprintf("access @%s (bind-join probe): p: multi-eq(k in 2 values)", site)
			if !indexed {
				want = fmt.Sprintf("access @%s (bind-join probe): p: heap", site)
			}
			if !strings.Contains(out, want) {
				t.Fatalf("index %v: explain missing %q:\n%s", indexed, want, out)
			}
			if !strings.Contains(out, fmt.Sprintf("access @%s: p: heap", site)) {
				t.Fatalf("index %v: explain missing the plain scan at %s:\n%s", indexed, site, out)
			}
		}
		// The driving side is no probe: one access line, at b.
		if strings.Count(out, "(bind-join probe)") != 2 {
			t.Fatalf("index %v: want two probe lines:\n%s", indexed, out)
		}
	}
}
