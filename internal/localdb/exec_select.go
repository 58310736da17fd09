package localdb

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"myriad/internal/lockmgr"
	"myriad/internal/schema"
	"myriad/internal/spill"
	"myriad/internal/sqlparser"
	"myriad/internal/value"
)

// binding maps one FROM entry (by effective name) to a column range in
// the executor's concatenated runtime row.
type binding struct {
	qual string
	sc   *schema.Schema
	off  int
}

// rowBinder resolves column references against the current bindings.
type rowBinder struct {
	bindings []binding
	width    int
}

func (b *rowBinder) add(qual string, sc *schema.Schema) {
	b.bindings = append(b.bindings, binding{qual: qual, sc: sc, off: b.width})
	b.width += len(sc.Columns)
}

func (b *rowBinder) resolve(table, column string) (int, error) {
	if table != "" {
		for _, bd := range b.bindings {
			if strings.EqualFold(bd.qual, table) {
				ci := bd.sc.ColIndex(column)
				if ci < 0 {
					return 0, fmt.Errorf("localdb: no column %s.%s", table, column)
				}
				return bd.off + ci, nil
			}
		}
		return 0, fmt.Errorf("localdb: unknown table or alias %q", table)
	}
	found := -1
	for _, bd := range b.bindings {
		if ci := bd.sc.ColIndex(column); ci >= 0 {
			if found >= 0 {
				return 0, fmt.Errorf("localdb: ambiguous column %q", column)
			}
			found = bd.off + ci
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("localdb: unknown column %q", column)
	}
	return found, nil
}

// refersOnlyTo reports whether every column in e resolves within the
// single binding named qual (used for pushdown decisions).
func refersOnlyTo(e sqlparser.Expr, qual string, sc *schema.Schema) bool {
	ok := true
	for _, c := range sqlparser.ColumnsIn(e) {
		if c.Table != "" {
			if !strings.EqualFold(c.Table, qual) {
				ok = false
			}
			continue
		}
		if sc.ColIndex(c.Column) < 0 {
			ok = false
		}
	}
	return ok
}

// execSelect evaluates sel and returns a materialized result. Callers
// hold tx.mu.
func (tx *Txn) execSelect(ctx context.Context, sel *sqlparser.Select) (*schema.ResultSet, error) {
	// Flatten UNION chains; ORDER BY / LIMIT written on the final branch
	// apply to the combined result.
	if sel.Compound != nil {
		return tx.execUnion(ctx, sel)
	}
	return tx.execSimpleSelect(ctx, sel)
}

func (tx *Txn) execUnion(ctx context.Context, sel *sqlparser.Select) (*schema.ResultSet, error) {
	it, cols, err := tx.unionIter(ctx, sel)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	rs := &schema.ResultSet{Columns: cols}
	if err := drainInto(ctx, it, rs); err != nil {
		return nil, err
	}
	return rs, nil
}

// unionIter assembles the streaming pipeline for a compound SELECT:
// every branch's pipeline is opened eagerly (locks are acquired in
// branch order, as the old materializing executor did), concatenated,
// deduplicated when any link is a plain UNION, then sorted and limited
// by the clauses written on the final branch. Nothing materializes:
// dedup runs through the budget-true spill.Deduper, ORDER BY through
// the external merge sort, and a LIMIT closes the concatenation early
// so unstarted branches never pull a row.
func (tx *Txn) unionIter(ctx context.Context, sel *sqlparser.Select) (rowIter, []string, error) {
	var branches []*sqlparser.Select
	var alls []bool
	cur := sel
	for {
		branches = append(branches, cur)
		if cur.Compound == nil {
			break
		}
		alls = append(alls, cur.Compound.All)
		cur = cur.Compound.Right
	}
	last := branches[len(branches)-1]
	orderBy, limit := last.OrderBy, last.Limit

	var its []rowIter
	var cols []string
	distinct := false
	built := false
	defer func() {
		if !built {
			for _, it := range its {
				it.Close()
			}
		}
	}()
	for i, br := range branches {
		core := *br
		core.Compound = nil
		core.OrderBy = nil
		core.Limit = nil
		it, c, err := tx.selectIter(ctx, &core)
		if err != nil {
			return nil, nil, err
		}
		its = append(its, it)
		if cols == nil {
			cols = c
		} else if len(c) != len(cols) {
			return nil, nil, fmt.Errorf("localdb: UNION branches have %d and %d columns", len(cols), len(c))
		}
		if i > 0 && !alls[i-1] {
			distinct = true
		}
	}

	var out rowIter = newConcatIter(its)
	if distinct {
		out = newDistinctIter(out, tx.db.budget)
	}
	if len(orderBy) > 0 {
		itemFns, sortFns, descs, err := compileUnionOrderBy(orderBy, cols)
		if err != nil {
			return nil, nil, err
		}
		out = newSortIter(out, itemFns, sortFns, descs, tx.db.budget)
	}
	if limit != nil {
		out = newLimitIter(out, limit.Count, limit.Offset)
	}
	built = true
	return out, cols, nil
}

// compileUnionOrderBy resolves a compound select's ORDER BY — output
// column references or 1-based ordinals only, per the UNION scoping
// rule — into slot evaluators over the union's output rows, plus the
// identity projection the sort carries rows through.
func compileUnionOrderBy(orderBy []sqlparser.OrderItem, cols []string) (itemFns, sortFns []evalFn, descs []bool, err error) {
	slotFn := func(ci int) evalFn {
		return func(r []value.Value) (value.Value, error) { return r[ci], nil }
	}
	rs := &schema.ResultSet{Columns: cols}
	sortFns = make([]evalFn, len(orderBy))
	descs = make([]bool, len(orderBy))
	for i, o := range orderBy {
		switch e := o.Expr.(type) {
		case *sqlparser.ColumnRef:
			ci := rs.ColIndex(e.Column)
			if ci < 0 {
				return nil, nil, nil, fmt.Errorf("localdb: ORDER BY column %q not in result", e.Column)
			}
			sortFns[i] = slotFn(ci)
		case *sqlparser.Literal:
			n, ok := e.Val.Int()
			if !ok || n < 1 || int(n) > len(cols) {
				return nil, nil, nil, fmt.Errorf("localdb: ORDER BY ordinal %s out of range", e.Val)
			}
			sortFns[i] = slotFn(int(n) - 1)
		default:
			return nil, nil, nil, fmt.Errorf("localdb: UNION ORDER BY must reference output columns")
		}
		descs[i] = o.Desc
	}
	itemFns = make([]evalFn, len(cols))
	for i := range cols {
		itemFns[i] = slotFn(i)
	}
	return itemFns, sortFns, descs, nil
}

// compareKeys orders two sort-key tuples with per-key direction;
// negative means a sorts before b. It is the one comparator shared by
// the full-sort, top-K, and grouped ORDER BY paths so their orderings
// cannot drift apart.
func compareKeys(a, b []value.Value, descs []bool) int {
	for i := range descs {
		c := compareForSort(a[i], b[i])
		if c == 0 {
			continue
		}
		if descs[i] {
			return -c
		}
		return c
	}
	return 0
}

// compareForSort orders values with NULLs first (ascending) — the
// shared federation comparator, so the fan-in merge over this engine's
// sorted output interleaves on exactly the order the engine produced.
func compareForSort(a, b value.Value) int {
	return schema.CompareSort(a, b)
}

func applyLimit(rs *schema.ResultSet, limit *sqlparser.LimitClause) {
	if limit == nil {
		return
	}
	off := int(limit.Offset)
	if off > len(rs.Rows) {
		off = len(rs.Rows)
	}
	rs.Rows = rs.Rows[off:]
	if limit.Count >= 0 && int(limit.Count) < len(rs.Rows) {
		rs.Rows = rs.Rows[:limit.Count]
	}
}

// execSimpleSelect evaluates one SELECT core (no compound) by draining
// the pull-based iterator pipeline selectIter assembles.
func (tx *Txn) execSimpleSelect(ctx context.Context, sel *sqlparser.Select) (*schema.ResultSet, error) {
	it, cols, err := tx.selectIter(ctx, sel)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	rs := &schema.ResultSet{Columns: cols}
	if err := drainInto(ctx, it, rs); err != nil {
		return nil, err
	}
	return rs, nil
}

// selectIter assembles the pull pipeline for one SELECT core: scan ->
// joins -> residual filter -> (group | project/sort/top-K) -> distinct
// -> limit, returning the head operator and the output column names.
// LIMIT terminates the pipeline early, propagating all the way down to
// the storage scan. The caller owns Close — closing mid-stream is the
// early-termination path streaming consumers (and the gateway's wire
// transport) rely on. Grouped and from-less selects materialize
// internally and stream their result; everything else pulls lazily.
func (tx *Txn) selectIter(ctx context.Context, sel *sqlparser.Select) (rowIter, []string, error) {
	if len(sel.From) == 0 {
		rs, err := tx.execFromlessSelect(sel)
		if err != nil {
			return nil, nil, err
		}
		return newRowSliceIter(rs.Rows), rs.Columns, nil
	}

	conjuncts := sqlparser.SplitConjuncts(sel.Where)
	used := make([]bool, len(conjuncts))

	// Open the first FROM entry, then fold in comma-joined tables and
	// explicit JOINs left to right. Locks are acquired eagerly while
	// constructing the pipeline (same order as the old materializing
	// executor); rows flow lazily once the pipeline is pulled.
	//
	// The base scan gets the statement's ORDER BY as a hint: a walk of
	// an ordered index on the sort column delivers rows pre-sorted
	// (joins and filters preserve the left stream's order), and the
	// sort/top-K stage below is dropped. The grouped path orders its
	// own output, so it takes no hint.
	from := tx.orderJoinBuilds(sel)
	grouped := len(sel.GroupBy) > 0 || selectHasAggregates(sel)
	var hint *orderHint
	var groupCols []string
	if grouped {
		groupCols = tx.deriveGroupHint(sel, from)
	} else {
		hint = tx.deriveOrderHint(sel, from)
	}
	b := &rowBinder{}
	it, baseChoice, err := tx.scanBase(ctx, from[0], conjuncts, used, b, hint, groupCols)
	if err != nil {
		return nil, nil, err
	}
	orderSatisfied := baseChoice != nil && baseChoice.order
	built := false
	defer func() {
		if !built && it != nil {
			it.Close()
		}
	}()
	for _, ref := range from[1:] {
		if it, err = tx.joinWith(ctx, it, b, ref, sqlparser.JoinInner, nil, conjuncts, used); err != nil {
			return nil, nil, err
		}
	}
	for _, j := range sel.Joins {
		if it, err = tx.joinWith(ctx, it, b, j.Table, j.Kind, j.On, conjuncts, used); err != nil {
			return nil, nil, err
		}
	}

	// Residual WHERE conjuncts.
	var residual []sqlparser.Expr
	for i, c := range conjuncts {
		if !used[i] {
			residual = append(residual, c)
		}
	}
	if len(residual) > 0 {
		pred, err := compilePred(sqlparser.JoinConjuncts(residual), b)
		if err != nil {
			return nil, nil, err
		}
		it = newFilterIter(it, pred, 0)
	}

	if grouped {
		git, cols, err := tx.groupPipeline(sel, b, it, baseChoice != nil && baseChoice.group)
		if err != nil {
			return nil, nil, err
		}
		built = true
		return git, cols, nil
	}

	// Plain projection path.
	items, err := expandItems(sel.Items, b)
	if err != nil {
		return nil, nil, err
	}
	itemFns := make([]evalFn, len(items))
	for i, item := range items {
		if itemFns[i], err = compileExpr(item.Expr, b); err != nil {
			return nil, nil, err
		}
	}
	// Sort keys evaluate in the input scope, with aliases and ordinals
	// resolving to select items.
	sortFns, descs, err := compileOrderBy(sel.OrderBy, b, items, itemFns)
	if err != nil {
		return nil, nil, err
	}

	switch {
	case len(sortFns) > 0 && orderSatisfied:
		// The base scan walked an ordered index on the sort column: rows
		// arrive already in ORDER BY order (ties in arrival order, same
		// as the stable sort), so no sort, top-K heap, or spill runs at
		// all — and a LIMIT below terminates the index walk early.
		it = newProjIter(it, itemFns, nil)
	case len(sortFns) > 0 && sel.Limit != nil && sel.Limit.Count >= 0 && !sel.Distinct &&
		sel.Limit.Count <= math.MaxInt32-sel.Limit.Offset:
		// ORDER BY + LIMIT without DISTINCT fuses into a bounded top-K
		// heap: only offset+count rows are ever retained, and
		// projection runs on the survivors alone. DISTINCT dedupes
		// between sort and limit, so it needs the full sorted stream.
		// An absurd bound (count+offset overflowing, or beyond int32)
		// falls back to the full sort — the heap would be bigger than
		// the input anyway.
		built = true
		return newTopKIter(it, itemFns, sortFns, descs, int(sel.Limit.Count), int(sel.Limit.Offset)), itemNames(items), nil
	case len(sortFns) > 0:
		it = newSortIter(it, itemFns, sortFns, descs, tx.db.budget)
	default:
		// Bare columns over a heap scan or a hash-index probe, and its
		// WHERE, make this the plain-scan path, which filters and
		// encodes a batch at a time.
		var slots []int
		if batchSourceOf(it) != nil {
			slots = bareSlots(items, b)
		}
		it = newProjIter(it, itemFns, slots)
	}
	if sel.Distinct {
		it = newDistinctIter(it, tx.db.budget)
	}
	if sel.Limit != nil {
		it = newLimitIter(it, sel.Limit.Count, sel.Limit.Offset)
	}
	built = true
	return it, itemNames(items), nil
}

// orderJoinBuilds returns the FROM list of a comma join stably
// reordered by ascending table cardinality: the smallest relation
// becomes the base (the streamed probe side — the System-R
// smallest-outer heuristic, keeping the driving stream and every
// intermediate probe result small), and the remaining entries follow
// as hash-join build sides smallest-first, so the most selective
// builds shrink the probe stream earliest — the way the federation
// planner already orders its residual joins by estimate. Unlike the
// planner it reads actual row counts from storage, the freshest
// statistic there is; a stream relation has no count to read and ranks
// by its EstRows. Ties keep syntactic order (the sort is stable),
// explicit JOIN clauses are untouched (their ON scope depends on
// position), and a SELECT with an unqualified star keeps syntactic
// order outright — star expansion follows binding order, and
// reordering would silently permute the output columns.
func (tx *Txn) orderJoinBuilds(sel *sqlparser.Select) []sqlparser.TableRef {
	if len(sel.From) < 2 {
		return sel.From
	}
	for _, it := range sel.Items {
		if it.Star && it.Table == "" {
			return sel.From
		}
	}
	rows := make([]float64, len(sel.From))
	tx.db.latch.RLock()
	for i := range sel.From {
		if rel := tx.db.relation(sel.From[i].Name); rel != nil {
			rows[i] = rel.EstRows
			continue
		}
		t, err := tx.db.table(sel.From[i].Name)
		if err != nil {
			tx.db.latch.RUnlock()
			return sel.From // unknown table: let the scan report it
		}
		rows[i] = float64(t.Len())
	}
	tx.db.latch.RUnlock()
	idx := make([]int, len(sel.From))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rows[idx[a]] < rows[idx[b]] })
	out := make([]sqlparser.TableRef, 0, len(sel.From))
	for _, i := range idx {
		out = append(out, sel.From[i])
	}
	return out
}

func (tx *Txn) execFromlessSelect(sel *sqlparser.Select) (*schema.ResultSet, error) {
	b := &rowBinder{}
	items, err := expandItems(sel.Items, b)
	if err != nil {
		return nil, err
	}
	row := make(schema.Row, len(items))
	for i, it := range items {
		fn, err := compileExpr(it.Expr, b)
		if err != nil {
			return nil, err
		}
		if row[i], err = fn(nil); err != nil {
			return nil, err
		}
	}
	rs := &schema.ResultSet{Columns: itemNames(items), Rows: []schema.Row{row}}
	applyLimit(rs, sel.Limit)
	return rs, nil
}

// bareSlots returns each item's input slot when every item is a bare
// column reference, else nil.
func bareSlots(items []namedItem, b *rowBinder) []int {
	slots := make([]int, len(items))
	for i, it := range items {
		cr, ok := it.Expr.(*sqlparser.ColumnRef)
		if !ok {
			return nil
		}
		slot, err := b.resolve(cr.Table, cr.Column)
		if err != nil {
			return nil
		}
		slots[i] = slot
	}
	return slots
}

// namedItem is a resolved select item (stars expanded).
type namedItem struct {
	Expr sqlparser.Expr
	Name string
}

func expandItems(items []sqlparser.SelectItem, b *rowBinder) ([]namedItem, error) {
	var out []namedItem
	for _, it := range items {
		switch {
		case it.Star && it.Table == "":
			if len(b.bindings) == 0 {
				return nil, fmt.Errorf("localdb: SELECT * without FROM")
			}
			for _, bd := range b.bindings {
				for _, c := range bd.sc.Columns {
					out = append(out, namedItem{
						Expr: &sqlparser.ColumnRef{Table: bd.qual, Column: c.Name},
						Name: c.Name,
					})
				}
			}
		case it.Star:
			matched := false
			for _, bd := range b.bindings {
				if !strings.EqualFold(bd.qual, it.Table) {
					continue
				}
				matched = true
				for _, c := range bd.sc.Columns {
					out = append(out, namedItem{
						Expr: &sqlparser.ColumnRef{Table: bd.qual, Column: c.Name},
						Name: c.Name,
					})
				}
			}
			if !matched {
				return nil, fmt.Errorf("localdb: unknown table %q in %s.*", it.Table, it.Table)
			}
		default:
			name := it.As
			if name == "" {
				if c, ok := it.Expr.(*sqlparser.ColumnRef); ok {
					name = c.Column
				} else {
					name = sqlparser.FormatExpr(it.Expr, nil)
				}
			}
			out = append(out, namedItem{Expr: it.Expr, Name: name})
		}
	}
	return out, nil
}

func itemNames(items []namedItem) []string {
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = it.Name
	}
	return names
}

// compileOrderBy compiles ORDER BY expressions against the input scope.
// Aliases and ordinals refer to select items.
func compileOrderBy(orderBy []sqlparser.OrderItem, b *rowBinder, items []namedItem, itemFns []evalFn) ([]evalFn, []bool, error) {
	if len(orderBy) == 0 {
		return nil, nil, nil
	}
	fns := make([]evalFn, len(orderBy))
	descs := make([]bool, len(orderBy))
	for i, o := range orderBy {
		descs[i] = o.Desc
		if lit, ok := o.Expr.(*sqlparser.Literal); ok {
			if n, isInt := lit.Val.Int(); isInt {
				if n < 1 || int(n) > len(items) {
					return nil, nil, fmt.Errorf("localdb: ORDER BY position %d out of range", n)
				}
				fns[i] = itemFns[n-1]
				continue
			}
		}
		if cr, ok := o.Expr.(*sqlparser.ColumnRef); ok && cr.Table == "" {
			if _, err := b.resolve("", cr.Column); err != nil {
				// Not an input column: try select-item alias.
				for j, it := range items {
					if strings.EqualFold(it.Name, cr.Column) {
						fns[i] = itemFns[j]
						break
					}
				}
				if fns[i] != nil {
					continue
				}
			}
		}
		fn, err := compileExpr(o.Expr, b)
		if err != nil {
			return nil, nil, err
		}
		fns[i] = fn
	}
	return fns, descs, nil
}

func selectHasAggregates(sel *sqlparser.Select) bool {
	for _, it := range sel.Items {
		if it.Expr != nil && sqlparser.HasAggregate(it.Expr) {
			return true
		}
	}
	if sel.Having != nil && sqlparser.HasAggregate(sel.Having) {
		return true
	}
	for _, o := range sel.OrderBy {
		if sqlparser.HasAggregate(o.Expr) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Base scans and joins

// scanBase opens one base table as a row iterator applying pushdown
// conjuncts, with locking: a primary-key point predicate takes IS + key
// S; anything else takes a table S lock. Locks are acquired before the
// iterator is returned; rows are read lazily as the iterator is pulled
// (safe because the table lock freezes the table for the transaction).
//
// Among full-scan alternatives the access path — heap scan, hash-index
// equality probe, or ordered-index range scan — is chosen by estimated
// selectivity over the table's cached statistics (see chooseAccess).
// hint, non-nil only for the statement's first FROM entry, carries a
// single-column ORDER BY the scan may satisfy by walking an ordered
// index; the returned choice reports whether it did, letting the caller
// drop its sort stage. All pushed conjuncts are still applied as a
// filter above the scan (index bounds narrow reads, they never replace
// the predicate).
func (tx *Txn) scanBase(ctx context.Context, ref sqlparser.TableRef, conjuncts []sqlparser.Expr, used []bool, b *rowBinder, hint *orderHint, groupCols []string) (rowIter, *accessChoice, error) {
	if rel := tx.db.relation(ref.Name); rel != nil {
		it, err := tx.scanRelation(rel, ref.EffectiveName(), conjuncts, used, b)
		return it, nil, err
	}
	tx.db.latch.RLock()
	t, err := tx.db.table(ref.Name)
	tx.db.latch.RUnlock()
	if err != nil {
		return nil, nil, err
	}
	qual := ref.EffectiveName()
	sc := t.Schema

	// Identify pushable conjuncts and a possible PK point probe.
	var local []sqlparser.Expr
	var pointKey *value.Value
	pkCol := ""
	if len(sc.Key) == 1 {
		pkCol = sc.Key[0]
	}
	for i, c := range conjuncts {
		if used[i] || !refersOnlyTo(c, qual, sc) {
			continue
		}
		local = append(local, c)
		used[i] = true
		if pkCol != "" && pointKey == nil {
			if col, lit, ok := equalityLiteral(c); ok && strings.EqualFold(col, pkCol) {
				v := lit
				pointKey = &v
			}
		}
	}

	if pointKey != nil {
		// Point read: IS on table, S on the key resource.
		if err := tx.lockTable(ctx, ref.Name, lockmgr.IS); err != nil {
			return nil, nil, err
		}
		probe := make([]value.Value, 1)
		probe[0] = *pointKey
		tx.db.latch.RLock()
		_, row, found := t.GetByKey(probe)
		var keyEnc string
		if found {
			keyEnc, err = t.KeyString(row)
		} else {
			// Lock the key value even when absent to block phantom
			// inserts of that key.
			tmp := make(schema.Row, len(sc.Columns))
			for i, ki := range sc.KeyIndexes() {
				_ = i
				tmp[ki] = *pointKey
			}
			keyEnc, err = t.KeyString(tmp)
		}
		tx.db.latch.RUnlock()
		if err != nil {
			return nil, nil, err
		}
		if err := tx.lockKey(ctx, ref.Name, keyEnc, lockmgr.S); err != nil {
			return nil, nil, err
		}
		// Re-read after acquiring the lock (the row may have changed
		// while we waited).
		tx.db.latch.RLock()
		_, row, found = t.GetByKey(probe)
		tx.db.latch.RUnlock()
		b.add(qual, sc)
		choice := &accessChoice{kind: accessPKPoint}
		if !found {
			return newSliceIter(nil), choice, nil
		}
		it, err := tx.filterLocal(newSliceIter([][]value.Value{row}), local, b)
		return it, choice, err
	}

	// Full or index scan: table S lock.
	if err := tx.lockTable(ctx, ref.Name, lockmgr.S); err != nil {
		return nil, nil, err
	}
	b.add(qual, sc)

	tx.db.latch.RLock()
	choice := chooseAccess(t, local, hint, groupCols)
	tx.db.latch.RUnlock()

	switch choice.kind {
	case accessHashEq:
		ix, _ := t.Index(choice.col)
		it, err := tx.filterLocal(newHashProbeIter(tx.db, t, ix, []value.Value{choice.eq}), local, b)
		return it, &choice, err
	case accessOrdered:
		it, err := tx.filterLocal(newIndexScanIter(tx.db, t, choice.ix, choice.tlo, choice.thi, choice.desc), local, b)
		return it, &choice, err
	case accessMultiEq:
		// Hash probes when unordered output is fine; ordered point
		// walks when the choice promises sorted output (or no hash
		// index exists).
		if ix, ok := t.Index(choice.col); ok && !choice.order && !choice.group {
			it, err := tx.filterLocal(newHashProbeIter(tx.db, t, ix, choice.eqList), local, b)
			return it, &choice, err
		}
		if ix, ok := t.OrderedIndex(choice.col); ok {
			it, err := tx.filterLocal(newMultiPointIter(tx.db, t, ix, choice.eqList, choice.desc), local, b)
			return it, &choice, err
		}
	}

	// Heap scan: rows stream out in slot order, batch-copied under the
	// latch, so a LIMIT above never touches the rest of the heap.
	it, err := tx.filterLocal(newHeapScanIter(tx.db, t), local, b)
	return it, &choice, err
}

// filterLocal wraps it with this table's pushdown conjuncts. The
// predicate was compiled against the full binder, so rows are padded to
// the binding's offset during evaluation (see filterIter).
func (tx *Txn) filterLocal(it rowIter, local []sqlparser.Expr, b *rowBinder) (rowIter, error) {
	if len(local) == 0 {
		return it, nil
	}
	pred, err := compilePred(sqlparser.JoinConjuncts(local), b)
	if err != nil {
		it.Close()
		return nil, err
	}
	return newFilterIter(it, pred, b.bindings[len(b.bindings)-1].off), nil
}

// equalityLiteral matches "col = literal" or "literal = col".
func equalityLiteral(e sqlparser.Expr) (string, value.Value, bool) {
	bx, ok := e.(*sqlparser.BinaryExpr)
	if !ok || bx.Op != "=" {
		return "", value.Value{}, false
	}
	if c, ok := bx.L.(*sqlparser.ColumnRef); ok {
		if l, ok := bx.R.(*sqlparser.Literal); ok {
			return c.Column, l.Val, true
		}
	}
	if c, ok := bx.R.(*sqlparser.ColumnRef); ok {
		if l, ok := bx.L.(*sqlparser.Literal); ok {
			return c.Column, l.Val, true
		}
	}
	return "", value.Value{}, false
}

// joinWith folds the next table into the running pipeline. Equi-join
// conditions drive a streaming hash join (build on the right, probe as
// the left streams through); everything else nested-loops. The new
// table's single-table pushdown conjuncts are applied at its scan.
func (tx *Txn) joinWith(ctx context.Context, left rowIter, b *rowBinder, ref sqlparser.TableRef, kind sqlparser.JoinKind, on sqlparser.Expr, conjuncts []sqlparser.Expr, used []bool) (rowIter, error) {
	leftWidth := b.width
	leftBindings := len(b.bindings)

	// WHERE conjuncts must not be pushed below the null-supplying side
	// of a LEFT JOIN: they filter after padding, not before.
	scanConjuncts, scanUsed := conjuncts, used
	if kind == sqlparser.JoinLeft {
		scanConjuncts, scanUsed = nil, nil
	}
	right, _, err := tx.scanBase(ctx, ref, scanConjuncts, scanUsed, b, nil, nil)
	if err != nil {
		left.Close()
		return nil, err
	}
	rightSc := b.bindings[len(b.bindings)-1].sc
	rightWidth := len(rightSc.Columns)

	// Gather join conditions: the ON clause plus, for inner joins,
	// cross-binding WHERE conjuncts now resolvable.
	conds := sqlparser.SplitConjuncts(on)
	if kind == sqlparser.JoinInner {
		for i, c := range conjuncts {
			if used[i] {
				continue
			}
			if exprResolvable(c, b) {
				conds = append(conds, c)
				used[i] = true
			}
		}
	}

	// Find hashable equality pairs: left side resolves in the old
	// bindings, right side in the new table only.
	var leftKeys, rightKeys []evalFn
	var residual []sqlparser.Expr
	leftBinder := &rowBinder{bindings: b.bindings[:leftBindings], width: leftWidth}
	for _, c := range conds {
		bx, ok := c.(*sqlparser.BinaryExpr)
		if ok && bx.Op == "=" {
			lf, rf, ok2 := splitEquiPair(bx, leftBinder, b, rightSc, leftWidth)
			if ok2 {
				leftKeys = append(leftKeys, lf)
				rightKeys = append(rightKeys, rf)
				continue
			}
		}
		residual = append(residual, c)
	}
	var residualFn Predicate
	if len(residual) > 0 {
		if residualFn, err = compilePred(sqlparser.JoinConjuncts(residual), b); err != nil {
			left.Close()
			right.Close()
			return nil, err
		}
	}

	jk := joinInner
	if kind == sqlparser.JoinLeft {
		jk = joinLeft
	}
	// With no equi pairs the hash join degenerates to the nested loop:
	// every row hashes to the empty key.
	return &hashJoinIter{
		left: left, right: right,
		leftKeys: leftKeys, rightKeys: rightKeys, residual: residualFn,
		kind: jk, leftWidth: leftWidth, rightWidth: rightWidth,
		out: recordSlab{limit: tx.db.budget.Limit()},
	}, nil
}

// exprResolvable reports whether every column in e binds in b.
func exprResolvable(e sqlparser.Expr, b *rowBinder) bool {
	ok := true
	for _, c := range sqlparser.ColumnsIn(e) {
		if _, err := b.resolve(c.Table, c.Column); err != nil {
			ok = false
		}
	}
	return ok
}

// splitEquiPair checks whether bx is left-expr = right-expr with sides
// separable across the join; both compiled fns evaluate against the
// combined (padded) row.
func splitEquiPair(bx *sqlparser.BinaryExpr, leftBinder, full *rowBinder, rightSc *schema.Schema, leftWidth int) (evalFn, evalFn, bool) {
	rightQual := full.bindings[len(full.bindings)-1].qual
	isLeft := func(e sqlparser.Expr) bool { return exprResolvable(e, leftBinder) }
	isRight := func(e sqlparser.Expr) bool { return refersOnlyTo(e, rightQual, rightSc) && hasColumns(e) }

	var lSide, rSide sqlparser.Expr
	switch {
	case isLeft(bx.L) && isRight(bx.R) && hasColumns(bx.L):
		lSide, rSide = bx.L, bx.R
	case isLeft(bx.R) && isRight(bx.L) && hasColumns(bx.R):
		lSide, rSide = bx.R, bx.L
	default:
		return nil, nil, false
	}
	lf, err := compileExpr(lSide, full)
	if err != nil {
		return nil, nil, false
	}
	rf, err := compileExpr(rSide, full)
	if err != nil {
		return nil, nil, false
	}
	return lf, rf, true
}

func hasColumns(e sqlparser.Expr) bool { return len(sqlparser.ColumnsIn(e)) > 0 }

// hashKeyOf evaluates the key fns and appends the join key to buf (see
// value.AppendKey); null reports any NULL key column (which never
// matches).
func hashKeyOf(buf []byte, fns []evalFn, row []value.Value) (key []byte, null bool, err error) {
	for _, fn := range fns {
		v, err := fn(row)
		if err != nil {
			return buf, false, err
		}
		if v.IsNull() {
			return buf, true, nil
		}
		buf = value.AppendKey(buf, &v)
	}
	return buf, false, nil
}

// ---------------------------------------------------------------------
// Grouping and aggregation

type aggSpec struct {
	fn       *sqlparser.FuncExpr
	key      string // canonical text, for matching references
	argFn    evalFn // nil for COUNT(*)
	distinct bool
}

type aggState struct {
	count    int64
	sumF     float64
	sumI     int64
	min, max value.Value
	distinct *distinctAcc // DISTINCT tracking (nil otherwise)
	sumIsInt bool
	inited   bool
}

// close releases a state's DISTINCT dedup resources, if any.
func (st *aggState) close() {
	if st != nil && st.distinct != nil {
		st.distinct.close()
		st.distinct = nil
	}
}

// distinctAcc tracks which argument values a DISTINCT aggregate has
// already folded, in a spill.Deduper: the dedup set is budget-accounted
// (without a limit it reserves nothing), and once it outgrows the
// budget the remaining values spill to sort-based dedup — first
// occurrences past the spill point are deferred and folded at finalize
// time, so a single group's DISTINCT state never errors past the
// budget, it spills like every other operator.
type distinctAcc struct {
	ded *spill.Deduper
	key []byte // the value's row key, rebuilt per value
}

func newDistinctAcc(budget *spill.Budget) *distinctAcc {
	return &distinctAcc{ded: spill.NewDeduper(budget)}
}

// admit reports whether v is a first occurrence to fold now. A first
// occurrence arriving after the dedup set spilled is deferred (admit
// reports false) and surfaces from drain instead.
func (a *distinctAcc) admit(v value.Value) (bool, error) {
	row := schema.Row{v}
	a.key = value.AppendRowKey(a.key[:0], row)
	return a.ded.Admit(string(a.key), row)
}

// drain feeds the deferred first occurrences (if any spilled) through
// fold; call exactly once, after the group's input is exhausted.
func (a *distinctAcc) drain(ctx context.Context, fold func(value.Value) error) error {
	if !a.ded.Spilled() {
		return nil
	}
	it, err := a.ded.Tail(ctx)
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		rec, err := it.Next(ctx)
		if err != nil {
			return err
		}
		if rec == nil {
			return nil
		}
		if err := fold(spill.TailRow(rec)[0]); err != nil {
			return err
		}
	}
}

// close releases the dedup state (budget reservations and spill runs).
func (a *distinctAcc) close() { a.ded.Close() }

// accumulate folds one input row into an aggregate state. A DISTINCT
// aggregate folds each first occurrence exactly once; occurrences the
// spilled dedup set deferred are folded later, when finalize drains
// them.
func accumulate(st *aggState, spec *aggSpec, row []value.Value) error {
	if spec.fn.Star {
		st.count++
		return nil
	}
	v, err := spec.argFn(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if spec.distinct {
		emit, err := st.distinct.admit(v)
		if err != nil {
			return err
		}
		if !emit {
			return nil
		}
	}
	return foldValue(st, spec, v)
}

// foldValue applies one (non-null, dedup-admitted) value to the state.
func foldValue(st *aggState, spec *aggSpec, v value.Value) error {
	st.count++
	switch spec.fn.Name {
	case "SUM", "AVG":
		if v.K == value.KindInt && st.sumIsInt {
			st.sumI += v.RawInt()
		} else {
			if st.sumIsInt {
				st.sumF = float64(st.sumI)
				st.sumIsInt = false
			}
			f, ok := v.Float()
			if !ok {
				return fmt.Errorf("localdb: %s of non-numeric %s", spec.fn.Name, v.K)
			}
			st.sumF += f
		}
	case "MIN":
		if !st.inited {
			st.min = v
			st.inited = true
		} else if c, ok := value.Compare(v, st.min); ok && c < 0 {
			st.min = v
		}
	case "MAX":
		if !st.inited {
			st.max = v
			st.inited = true
		} else if c, ok := value.Compare(v, st.max); ok && c > 0 {
			st.max = v
		}
	}
	return nil
}

// finalize computes the aggregate's result. For a DISTINCT aggregate it
// first drains any dedup state that spilled (folding the deferred first
// occurrences) and releases the state.
func finalize(ctx context.Context, st *aggState, spec *aggSpec) (value.Value, error) {
	if st.distinct != nil {
		err := st.distinct.drain(ctx, func(v value.Value) error { return foldValue(st, spec, v) })
		st.distinct.close()
		st.distinct = nil
		if err != nil {
			return value.Null(), err
		}
	}
	return finalValue(st, spec), nil
}

func finalValue(st *aggState, spec *aggSpec) value.Value {
	switch spec.fn.Name {
	case "COUNT":
		return value.NewInt(st.count)
	case "SUM":
		if st.count == 0 {
			return value.Null()
		}
		if st.sumIsInt {
			return value.NewInt(st.sumI)
		}
		return value.NewFloat(st.sumF)
	case "AVG":
		if st.count == 0 {
			return value.Null()
		}
		total := st.sumF
		if st.sumIsInt {
			total = float64(st.sumI)
		}
		return value.NewFloat(total / float64(st.count))
	case "MIN":
		if !st.inited {
			return value.Null()
		}
		return st.min
	case "MAX":
		if !st.inited {
			return value.Null()
		}
		return st.max
	default:
		return value.Null()
	}
}

// groupBinder compiles post-grouping expressions against the group row
// [keys..., aggs...]: whole subtrees matching a GROUP BY expression or a
// collected aggregate are rewritten to slot references.
type groupBinder struct {
	keyStrs  []string
	groupBy  []sqlparser.Expr
	aggIndex map[string]int
	nKeys    int
}

func (g *groupBinder) compile(e sqlparser.Expr) (evalFn, error) {
	rewritten, err := g.rewrite(e)
	if err != nil {
		return nil, err
	}
	return compileExpr(rewritten, g)
}

// compilePred compiles a post-grouping condition (HAVING).
func (g *groupBinder) compilePred(e sqlparser.Expr) (Predicate, error) {
	rewritten, err := g.rewrite(e)
	if err != nil {
		return nil, err
	}
	return compilePred(rewritten, g)
}

// resolve handles column refs that survive rewriting: a bare column that
// names a GROUP BY column is allowed; anything else is a SQL error.
func (g *groupBinder) resolve(table, column string) (int, error) {
	for i, ge := range g.groupBy {
		if cr, ok := ge.(*sqlparser.ColumnRef); ok {
			if strings.EqualFold(cr.Column, column) && (table == "" || strings.EqualFold(cr.Table, table)) {
				return i, nil
			}
		}
	}
	name := column
	if table != "" {
		name = table + "." + column
	}
	return 0, fmt.Errorf("localdb: column %q must appear in GROUP BY or inside an aggregate", name)
}

func (g *groupBinder) rewrite(e sqlparser.Expr) (sqlparser.Expr, error) {
	if e == nil {
		return nil, nil
	}
	key := sqlparser.FormatExpr(e, nil)
	for i, ks := range g.keyStrs {
		if ks == key {
			return &sqlparser.SlotRef{Slot: i}, nil
		}
	}
	if f, ok := e.(*sqlparser.FuncExpr); ok && sqlparser.AggregateFuncs[f.Name] {
		if i, ok := g.aggIndex[key]; ok {
			return &sqlparser.SlotRef{Slot: g.nKeys + i}, nil
		}
		return nil, fmt.Errorf("localdb: uncollected aggregate %s", key)
	}
	// Recurse structurally.
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		l, err := g.rewrite(x.L)
		if err != nil {
			return nil, err
		}
		r, err := g.rewrite(x.R)
		if err != nil {
			return nil, err
		}
		return &sqlparser.BinaryExpr{Op: x.Op, L: l, R: r}, nil
	case *sqlparser.UnaryExpr:
		sub, err := g.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		return &sqlparser.UnaryExpr{Op: x.Op, E: sub}, nil
	case *sqlparser.IsNullExpr:
		sub, err := g.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		return &sqlparser.IsNullExpr{E: sub, Not: x.Not}, nil
	case *sqlparser.InExpr:
		sub, err := g.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		out := &sqlparser.InExpr{E: sub, Not: x.Not}
		for _, it := range x.List {
			ri, err := g.rewrite(it)
			if err != nil {
				return nil, err
			}
			out.List = append(out.List, ri)
		}
		return out, nil
	case *sqlparser.BetweenExpr:
		sub, err := g.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		lo, err := g.rewrite(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := g.rewrite(x.Hi)
		if err != nil {
			return nil, err
		}
		return &sqlparser.BetweenExpr{E: sub, Not: x.Not, Lo: lo, Hi: hi}, nil
	case *sqlparser.FuncExpr:
		out := &sqlparser.FuncExpr{Name: x.Name, Distinct: x.Distinct, Star: x.Star}
		for _, a := range x.Args {
			ra, err := g.rewrite(a)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, ra)
		}
		return out, nil
	case *sqlparser.CaseExpr:
		out := &sqlparser.CaseExpr{}
		for _, w := range x.Whens {
			c, err := g.rewrite(w.Cond)
			if err != nil {
				return nil, err
			}
			res, err := g.rewrite(w.Result)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, sqlparser.WhenClause{Cond: c, Result: res})
		}
		var err error
		if out.Else, err = g.rewrite(x.Else); err != nil {
			return nil, err
		}
		return out, nil
	default:
		return e, nil
	}
}
