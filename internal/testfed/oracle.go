package testfed

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"myriad/internal/catalog"
	"myriad/internal/core"
	"myriad/internal/integration"
	"myriad/internal/localdb"
	"myriad/internal/schema"
	"myriad/internal/sqlparser"
	"myriad/internal/value"
)

// Oracle is the reference the equivalence corpora hold the federation
// to: one component database holding every integrated relation's rows,
// answering user SQL verbatim (see Check). A federated answer is correct when it
// equals what that single database returns, so the oracle shares no
// code with the system under test — it calls nothing from the planner,
// the executor or the streaming combiners, and a wrong prune, a bad
// pushdown or a lossy bind join shows up as a different answer instead
// of being reproduced by the reference.
//
// Each integrated relation becomes one table named after it, loaded in
// source order from every source's export rows (mapped by ColumnMap,
// restricted by Filter) with the combinator's rules applied here:
//
//   - UNION ALL concatenates the sources.
//   - UNION keeps the first occurrence of every row (kind-exactly).
//   - OUTERJOIN-MERGE groups rows by their key, kind-exactly (1 and '1'
//     are different entities); rows with a NULL key column are dropped;
//     each source contributes its first non-NULL value per column, in
//     its row order; the per-source values resolve through the column's
//     integration function (coalesce by default). Entities keep
//     first-occurrence order.
type Oracle struct {
	db *localdb.DB
}

// NewOracle snapshots fed's integrated relations into a fresh oracle.
// The engine is in-memory and unbudgeted, so the spill and WAL code the
// corpora check never runs inside the reference, whatever test hooks
// the environment sets. Writes made after construction are not seen:
// build one per fixture state and query it many times.
func NewOracle(ctx context.Context, fed *core.Federation) (*Oracle, error) {
	o := &Oracle{db: localdb.NewScratch(nil)}
	cat := fed.Catalog()
	for _, name := range cat.IntegratedNames() {
		def, _ := cat.Integrated(name)
		if err := o.load(ctx, fed, def); err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", def.Name, err)
		}
	}
	return o, nil
}

// Oracle builds an oracle over the fixture's current data.
func (fx *Fixture) Oracle(t testing.TB) *Oracle {
	t.Helper()
	o, err := NewOracle(context.Background(), fx.Fed)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// load creates def's table and fills it from every source.
func (o *Oracle) load(ctx context.Context, fed *core.Federation, def *catalog.IntegratedDef) error {
	sc := def.Schema()
	sc.Key = nil // a UNION ALL may hold the same key twice
	if err := o.db.CreateTableDirect(sc); err != nil {
		return err
	}
	frags := make([][]schema.Row, len(def.Sources))
	for i := range def.Sources {
		rows, err := sourceRows(ctx, fed, def, &def.Sources[i])
		if err != nil {
			return err
		}
		frags[i] = rows
	}
	var rows []schema.Row
	switch def.Combine {
	case integration.UnionAll:
		for _, f := range frags {
			rows = append(rows, f...)
		}
	case integration.UnionDistinct:
		// Rows are duplicates as SQL's UNION has them (the row key:
		// -0.0 and 0.0 are one value), not as kindKey compares answers.
		seen := make(map[string]bool)
		for _, f := range frags {
			for _, r := range f {
				if k := string(value.AppendRowKey(nil, r)); !seen[k] {
					seen[k] = true
					rows = append(rows, r)
				}
			}
		}
	case integration.MergeOuter:
		var err error
		if rows, err = outerMerge(def, frags); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown combinator %v", def.Combine)
	}
	return o.db.Load(sc.Table, rows)
}

// sourceRows reads one source's contribution: every integrated column
// as its mapped expression (NULL where unmapped), under the source
// filter, in the order the site returns them.
func sourceRows(ctx context.Context, fed *core.Federation, def *catalog.IntegratedDef, src *catalog.SourceDef) ([]schema.Row, error) {
	sel := &sqlparser.Select{From: []sqlparser.TableRef{{Name: src.Export}}, Where: src.FilterExpr()}
	for _, c := range def.Columns {
		e, ok := src.Mapped(c.Name)
		if !ok {
			e = &sqlparser.Literal{Val: value.Null()}
		}
		sel.Items = append(sel.Items, sqlparser.SelectItem{Expr: e, As: c.Name})
	}
	conn, ok := fed.Conn(src.Site)
	if !ok {
		return nil, fmt.Errorf("unknown site %q", src.Site)
	}
	st, err := conn.QueryStream(ctx, 0, sqlparser.FormatStatement(sel, nil))
	if err != nil {
		return nil, fmt.Errorf("site %s: %w", src.Site, err)
	}
	defer st.Close()
	rs, err := schema.DrainStream(ctx, st)
	if err != nil {
		return nil, fmt.Errorf("site %s: %w", src.Site, err)
	}
	return rs.Rows, nil
}

// outerMerge resolves OUTERJOIN-MERGE entities (see Oracle).
func outerMerge(def *catalog.IntegratedDef, frags [][]schema.Row) ([]schema.Row, error) {
	isKey := make([]bool, len(def.Columns))
	for _, k := range def.Key {
		isKey[def.ColIndex(k)] = true
	}
	resolve := make([]integration.Func, len(def.Columns))
	for i, c := range def.Columns {
		name := "coalesce"
		for col, fn := range def.Resolvers {
			if strings.EqualFold(col, c.Name) {
				name = fn
			}
		}
		resolve[i], _ = integration.Lookup(name)
	}
	type entity struct {
		first schema.Row
		vals  [][]value.Value // [column][source]
	}
	byKey := make(map[string]*entity)
	var order []*entity
	for si, frag := range frags {
	rows:
		for _, r := range frag {
			var key schema.Row
			for c, v := range r {
				if isKey[c] {
					if v.IsNull() {
						continue rows
					}
					key = append(key, v)
				}
			}
			e := byKey[kindKey(key)]
			if e == nil {
				e = &entity{first: r, vals: make([][]value.Value, len(r))}
				for c := range e.vals {
					e.vals[c] = make([]value.Value, len(frags))
				}
				byKey[kindKey(key)] = e
				order = append(order, e)
			}
			for c, v := range r {
				if e.vals[c][si].IsNull() {
					e.vals[c][si] = v
				}
			}
		}
	}
	out := make([]schema.Row, len(order))
	for i, e := range order {
		row := make(schema.Row, len(def.Columns))
		for c := range row {
			if isKey[c] {
				row[c] = e.first[c]
				continue
			}
			v, err := resolve[c](e.vals[c])
			if err != nil {
				return nil, fmt.Errorf("column %s: %w", def.Columns[c].Name, err)
			}
			row[c] = v
		}
		out[i] = row
	}
	return out, nil
}

// kindKey encodes values kind-exactly: equal keys mean equal kinds and
// equal values.
func kindKey(vals []value.Value) string {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%d:%s\x00", v.K, v.Text())
	}
	return b.String()
}

// Check compares got, a federated answer to sql, with the oracle's,
// holding it to exactly what SQL fixes:
//
//   - with ORDER BY, row for row (the oracle loads in source order and
//     sorts stably, as the federation's auto fan-in does, so ties break
//     alike);
//   - with LIMIT but no ORDER BY, the same row count, every row drawn
//     from the unlimited answer;
//   - otherwise, the same multiset of rows.
//
// Columns always match by name and position; values match kind-exactly.
func (o *Oracle) Check(ctx context.Context, sql string, got *schema.ResultSet) error {
	want, err := o.db.Query(ctx, sql)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if strings.Join(want.Columns, ",") != strings.Join(got.Columns, ",") {
		return fmt.Errorf("columns: oracle %v, federation %v", want.Columns, got.Columns)
	}
	if len(want.Rows) != len(got.Rows) {
		return fmt.Errorf("rows: oracle %d, federation %d", len(want.Rows), len(got.Rows))
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return err
	}
	sel, ok := stmt.(*sqlparser.Select)
	if !ok {
		return fmt.Errorf("not a SELECT: %s", sql)
	}
	last := sel
	for last.Compound != nil {
		last = last.Compound.Right
	}
	switch {
	case len(last.OrderBy) > 0:
		for i := range want.Rows {
			if kindKey(want.Rows[i]) != kindKey(got.Rows[i]) {
				return fmt.Errorf("row %d: oracle %v, federation %v", i, want.Rows[i], got.Rows[i])
			}
		}
		return nil
	case last.Limit != nil:
		last.Limit = nil
		all, err := o.db.Query(ctx, sqlparser.FormatStatement(sel, nil))
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		return contains(all.Rows, got.Rows)
	default:
		return contains(want.Rows, got.Rows)
	}
}

// contains reports an error unless sub is a sub-multiset of rows.
func contains(rows, sub []schema.Row) error {
	left := make(map[string]int, len(rows))
	for _, r := range rows {
		left[kindKey(r)]++
	}
	for _, r := range sub {
		k := kindKey(r)
		if left[k] == 0 {
			return fmt.Errorf("federation row %v is not in the oracle's answer", r)
		}
		left[k]--
	}
	return nil
}
