package localdb

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"myriad/internal/schema"
	"myriad/internal/spill"
	"myriad/internal/sqlparser"
	"myriad/internal/value"
)

// Grouped execution runs as a pull pipeline like everything else:
//
//	input -> (stream | sort | hash) group fold -> HAVING -> sort/proj
//	      -> DISTINCT -> LIMIT
//
// Three interchangeable fold strategies produce identical group rows
// [group keys..., aggregate results...]:
//
//   - streamGroupIter when the base access path already delivers rows
//     with equal group keys adjacent (an ordered-index walk on the
//     grouping columns): one group's state is all that is ever held,
//     and a LIMIT above stops the index walk early.
//   - sortGroupIter under a memory budget: sort rows by group key
//     through spill.Sorter (spilling runs past the budget), then fold
//     adjacent equal-key runs — memory is the budget plus one group.
//   - hashGroupIter with no budget: classic hash aggregation.
//
// All three emit groups in ascending group-key order (NULLs first,
// schema.CompareSort), so the choice of strategy never changes the
// observable result of a query.

// groupPlan is the compiled form of a grouped SELECT: aggregate specs,
// group-key evaluators over input rows, and the post-grouping item /
// HAVING / ORDER BY evaluators over group rows.
type groupPlan struct {
	items    []namedItem
	aggs     []*aggSpec
	keyFns   []evalFn // group-key expressions, input-row scope
	keyStrs  []string
	keyIdxs  []int     // input-row slots when every key is a plain column, else nil
	identity bool      // select items are exactly [keys..., aggs...]: group row == output row
	itemFns  []evalFn  // select items, group-row scope
	having   Predicate // nil when no HAVING
	sortFns  []evalFn  // ORDER BY keys, group-row scope
	descs    []bool
}

func (p *groupPlan) nKeys() int { return len(p.keyStrs) }

// compileGroupPlan compiles the grouped query's expressions once, before
// any rows flow. The layout of a group row is [keys..., aggs...]; the
// groupBinder rewrites post-grouping expressions to slot references into
// that row.
func compileGroupPlan(sel *sqlparser.Select, b *rowBinder) (*groupPlan, error) {
	items, err := expandItems(sel.Items, b)
	if err != nil {
		return nil, err
	}

	// Collect unique aggregate calls across items, HAVING, ORDER BY.
	var aggs []*aggSpec
	aggIndex := make(map[string]int)
	collect := func(e sqlparser.Expr) error {
		var werr error
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			f, ok := x.(*sqlparser.FuncExpr)
			if !ok || !sqlparser.AggregateFuncs[f.Name] {
				return true
			}
			key := sqlparser.FormatExpr(f, nil)
			if _, dup := aggIndex[key]; dup {
				return false
			}
			spec := &aggSpec{fn: f, key: key, distinct: f.Distinct}
			if !f.Star {
				if len(f.Args) != 1 {
					werr = fmt.Errorf("localdb: %s expects one argument", f.Name)
					return false
				}
				fn, err := compileExpr(f.Args[0], b)
				if err != nil {
					werr = err
					return false
				}
				spec.argFn = fn
			}
			aggIndex[key] = len(aggs)
			aggs = append(aggs, spec)
			return false
		})
		return werr
	}
	for _, it := range items {
		if err := collect(it.Expr); err != nil {
			return nil, err
		}
	}
	if sel.Having != nil {
		if err := collect(sel.Having); err != nil {
			return nil, err
		}
	}
	for _, o := range sel.OrderBy {
		if err := collect(o.Expr); err != nil {
			return nil, err
		}
	}

	// Compile group keys. When every key is a plain column reference the
	// plan also records the raw row slots, so per-row key access on the
	// streamed path is an index instead of a closure call.
	keyFns := make([]evalFn, len(sel.GroupBy))
	keyStrs := make([]string, len(sel.GroupBy))
	keyIdxs := make([]int, 0, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		fn, err := compileExpr(g, b)
		if err != nil {
			return nil, err
		}
		keyFns[i] = fn
		keyStrs[i] = sqlparser.FormatExpr(g, nil)
		if cr, ok := g.(*sqlparser.ColumnRef); ok && keyIdxs != nil {
			if idx, err := b.resolve(cr.Table, cr.Column); err == nil {
				keyIdxs = append(keyIdxs, idx)
				continue
			}
		}
		keyIdxs = nil
	}

	// The projection over the group row is the identity when the select
	// items are exactly the group keys followed by each aggregate, in
	// plan order — then the folded group row doubles as the output row
	// and the pipeline can skip the projection stage.
	identity := len(items) == len(keyStrs)+len(aggs)
	for i := 0; identity && i < len(items); i++ {
		e := sqlparser.FormatExpr(items[i].Expr, nil)
		if i < len(keyStrs) {
			identity = e == keyStrs[i]
		} else {
			idx, ok := aggIndex[e]
			identity = ok && idx == i-len(keyStrs)
		}
	}

	gb := &groupBinder{keyStrs: keyStrs, groupBy: sel.GroupBy, aggIndex: aggIndex, nKeys: len(keyStrs)}

	itemFns := make([]evalFn, len(items))
	for i, it := range items {
		if itemFns[i], err = gb.compile(it.Expr); err != nil {
			return nil, err
		}
	}
	var having Predicate
	if sel.Having != nil {
		if having, err = gb.compilePred(sel.Having); err != nil {
			return nil, err
		}
	}
	sortFns := make([]evalFn, len(sel.OrderBy))
	descs := make([]bool, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		descs[i] = o.Desc
		// Allow aliases and ordinals as in the plain path.
		if lit, ok := o.Expr.(*sqlparser.Literal); ok {
			if n, isInt := lit.Val.Int(); isInt && n >= 1 && int(n) <= len(items) {
				sortFns[i] = itemFns[n-1]
				continue
			}
		}
		if cr, ok := o.Expr.(*sqlparser.ColumnRef); ok && cr.Table == "" {
			found := false
			for j, it := range items {
				if strings.EqualFold(it.Name, cr.Column) {
					sortFns[i] = itemFns[j]
					found = true
					break
				}
			}
			if found {
				continue
			}
		}
		fn, err := gb.compile(o.Expr)
		if err != nil {
			return nil, err
		}
		sortFns[i] = fn
	}

	return &groupPlan{
		items: items, aggs: aggs,
		keyFns: keyFns, keyStrs: keyStrs, keyIdxs: keyIdxs, identity: identity,
		itemFns: itemFns, having: having,
		sortFns: sortFns, descs: descs,
	}, nil
}

// groupPipeline assembles the grouped tail of a SELECT over the already
// built input pipeline `it`. streamed reports that the base access path
// emits rows with equal group keys adjacent (accessChoice.group). The
// returned iterator owns `it`; on error the caller still owns it.
func (tx *Txn) groupPipeline(sel *sqlparser.Select, b *rowBinder, it rowIter, streamed bool) (rowIter, []string, error) {
	plan, err := compileGroupPlan(sel, b)
	if err != nil {
		return nil, nil, err
	}
	var out rowIter
	switch {
	case streamed && plan.nKeys() > 0:
		out = newStreamGroupIter(tx, plan, it)
	case tx.db.budget.Limit() > 0 && plan.nKeys() > 0:
		out = newSortGroupIter(tx, plan, it)
	default:
		// Unlimited memory — or a global aggregate, where the single
		// group's fold state is the whole footprint and sorting the
		// input through the spill layer would buy nothing.
		out = newHashGroupIter(tx, plan, it)
	}
	if plan.having != nil {
		out = newFilterIter(out, plan.having, 0)
	}
	switch {
	case len(plan.sortFns) > 0:
		out = newSortIter(out, plan.itemFns, plan.sortFns, plan.descs, tx.db.budget)
	case plan.identity:
		// Group rows are already the output rows; skip the projection.
	default:
		out = newProjIter(out, plan.itemFns)
	}
	if sel.Distinct {
		out = newDistinctIter(out, tx.db.budget)
	}
	if sel.Limit != nil {
		out = newLimitIter(out, sel.Limit.Count, sel.Limit.Offset)
	}
	return out, itemNames(plan.items), nil
}

// groupFolder folds input rows into one live group's aggregate states.
// The stream and sort strategies hold exactly one folder's worth of
// state at a time; only DISTINCT aggregates grow with the group's row
// count, and their dedup state is a budget-true spill.Deduper — past
// the budget it spills to sort-based dedup instead of erroring, so a
// single huge group completes like any other budgeted operator.
type groupFolder struct {
	tx     *Txn
	plan   *groupPlan
	keys   []value.Value
	states []*aggState
}

func (f *groupFolder) open(keys []value.Value) {
	f.keys = keys
	if f.states == nil {
		f.states = make([]*aggState, len(f.plan.aggs))
		for i := range f.states {
			f.states[i] = new(aggState)
		}
	}
	for i, st := range f.states {
		st.close()
		*st = aggState{sumIsInt: true}
		if f.plan.aggs[i].distinct {
			st.distinct = newDistinctAcc(f.tx.db.budget, "DISTINCT aggregate "+f.plan.aggs[i].key)
		}
	}
}

func (f *groupFolder) fold(r schema.Row) error {
	for i, spec := range f.plan.aggs {
		if err := accumulate(f.states[i], spec, r); err != nil {
			return err
		}
	}
	return nil
}

// emit finalizes the live group into its group row and drops the
// group's references; the aggState structs themselves are kept for the
// next open, so steady-state grouping allocates only the output row.
func (f *groupFolder) emit(ctx context.Context) (schema.Row, error) {
	grow := make(schema.Row, len(f.plan.keyStrs)+len(f.plan.aggs))
	copy(grow, f.keys)
	for i, spec := range f.plan.aggs {
		v, err := finalize(ctx, f.states[i], spec)
		if err != nil {
			return nil, err
		}
		grow[len(f.plan.keyStrs)+i] = v
	}
	f.keys = nil
	return grow, nil
}

// close releases any live group's dedup state (an iterator torn down
// mid-group, e.g. by a LIMIT upstream).
func (f *groupFolder) close() {
	for _, st := range f.states {
		st.close()
	}
}

// streamGroupIter folds a pre-grouped input stream group-at-a-time. The
// chosen access path guarantees equal group keys arrive adjacent (an
// ordered-index walk on the grouping columns; joins and filters
// preserve the base stream's order), so no accumulation map or sort
// exists at all: one group's aggregate state is the whole footprint,
// regardless of group count or input size. Closing mid-stream — a LIMIT
// upstream of enough groups — terminates the underlying index walk.
//
// Group identity here is value.Identical on each key column, checked
// against physical adjacency. Keys that compare equal under
// schema.CompareSort but are not identical (+0.0 vs -0.0 floats) tie in
// the index and may interleave; the planner only selects this path for
// plain column keys, where a storage column holds one kind and such
// ties cannot split a rowKey-identity group (see access.go).
type streamGroupIter struct {
	plan        *groupPlan
	child       rowIter
	folder      groupFolder
	pending     schema.Row // first input row of the next group
	pendingKeys []value.Value
	// scratch and spare ping-pong as key buffers: at most two group keys
	// are ever live (the open group's, held by the folder until emit
	// copies it out, and the pending group's), so the hot loop runs
	// allocation-free — scratch takes each row's key for the adjacency
	// check and is promoted to pendingKeys on a group change, while the
	// just-emitted group's buffer comes back as the next scratch.
	scratch []value.Value
	spare   []value.Value
	eof     bool
	closed  bool
}

func newStreamGroupIter(tx *Txn, plan *groupPlan, child rowIter) *streamGroupIter {
	return &streamGroupIter{plan: plan, child: child,
		folder:  groupFolder{tx: tx, plan: plan},
		scratch: make([]value.Value, len(plan.keyFns)),
		spare:   make([]value.Value, len(plan.keyFns))}
}

// keysInto evaluates the group key into dst, which must have room for
// every key column.
func (g *streamGroupIter) keysInto(r schema.Row, dst []value.Value) error {
	if g.plan.keyIdxs != nil {
		for i, idx := range g.plan.keyIdxs {
			dst[i] = r[idx]
		}
		return nil
	}
	for i, fn := range g.plan.keyFns {
		v, err := fn(r)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// sameKeys reports whether row r's group key matches keys, without
// materializing r's key when the plan has raw key slots.
func (g *streamGroupIter) sameKeys(r schema.Row, keys []value.Value) (bool, error) {
	if idxs := g.plan.keyIdxs; idxs != nil {
		for i, idx := range idxs {
			if !value.Identical(keys[i], r[idx]) {
				return false, nil
			}
		}
		return true, nil
	}
	if err := g.keysInto(r, g.scratch); err != nil {
		return false, err
	}
	for i := range keys {
		if !value.Identical(keys[i], g.scratch[i]) {
			return false, nil
		}
	}
	return true, nil
}

func (g *streamGroupIter) Next(ctx context.Context) ([]value.Value, error) {
	if g.closed || g.eof {
		return nil, nil
	}
	var first schema.Row
	var keys []value.Value
	if g.pending != nil {
		first, keys = g.pending, g.pendingKeys
		g.pending, g.pendingKeys = nil, nil
	} else {
		r, err := g.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if r == nil {
			g.eof = true
			return nil, nil
		}
		keys = g.spare
		g.spare = nil
		if err := g.keysInto(r, keys); err != nil {
			return nil, err
		}
		first = r
	}
	g.folder.open(keys)
	if err := g.folder.fold(first); err != nil {
		return nil, err
	}
	for {
		r, err := g.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if r == nil {
			g.eof = true
			break
		}
		same, err := g.sameKeys(r, keys)
		if err != nil {
			return nil, err
		}
		if !same {
			// Once per group: materialize the next group's key and hand
			// the scratch buffer over to it.
			if err := g.keysInto(r, g.scratch); err != nil {
				return nil, err
			}
			g.pending = r
			g.pendingKeys, g.scratch = g.scratch, nil
			break
		}
		if err := g.folder.fold(r); err != nil {
			return nil, err
		}
	}
	out, err := g.folder.emit(ctx)
	if err != nil {
		return nil, err
	}
	// The emitted group's key buffer is free again: recycle it.
	if g.scratch == nil {
		g.scratch = keys
	} else {
		g.spare = keys
	}
	return out, nil
}

func (g *streamGroupIter) Close() {
	if !g.closed {
		g.closed = true
		g.child.Close()
		g.folder.close()
	}
}

// sortGroupIter is budget-true GROUP BY as sort-then-fold. Every input
// row becomes one record [gk, keys..., row...] in a spill.Sorter
// ordered by the group keys under schema.CompareSort with gk — the
// collision-safe rowKey of the keys — as tie-break, so records whose
// keys tie under CompareSort but denote distinct groups (+0.0 vs -0.0)
// still land in separate adjacent runs. The sorter is stable, so an
// equal-gk run preserves arrival order and float SUM folds in the same
// order the hash strategy sees. Emission folds one adjacent run at a
// time: resident memory is the sorter's budget plus one group's state.
type sortGroupIter struct {
	tx      *Txn
	plan    *groupPlan
	child   rowIter
	folder  groupFolder
	src     *spill.Iterator
	pending schema.Row // first record of the next group
	filled  bool
	emitted bool // at least one group emitted
	eof     bool
	closed  bool
}

func newSortGroupIter(tx *Txn, plan *groupPlan, child rowIter) *sortGroupIter {
	return &sortGroupIter{tx: tx, plan: plan, child: child, folder: groupFolder{tx: tx, plan: plan}}
}

func (g *sortGroupIter) fill(ctx context.Context) error {
	nk := len(g.plan.keyFns)
	cmp := func(a, b schema.Row) int {
		for i := 0; i < nk; i++ {
			if c := compareForSort(a[1+i], b[1+i]); c != 0 {
				return c
			}
		}
		return strings.Compare(a[0].S, b[0].S)
	}
	sorter := spill.NewSorterFunc(g.tx.db.budget, cmp)
	slab := recordSlab{limit: g.tx.db.budget.Limit()}
	for {
		r, err := g.child.Next(ctx)
		if err != nil {
			sorter.Close()
			return err
		}
		if r == nil {
			break
		}
		rec := slab.next(1 + nk + len(r))
		for i, fn := range g.plan.keyFns {
			if rec[1+i], err = fn(r); err != nil {
				sorter.Close()
				return err
			}
		}
		rec[0] = value.NewText(rowKey(rec[1 : 1+nk]))
		copy(rec[1+nk:], r)
		if err := sorter.Add(rec); err != nil {
			sorter.Close()
			return err
		}
	}
	g.child.Close()
	it, err := sorter.Finish()
	if err != nil {
		sorter.Close()
		return err
	}
	g.src = it
	g.filled = true
	return nil
}

func (g *sortGroupIter) Next(ctx context.Context) ([]value.Value, error) {
	if g.closed || g.eof {
		return nil, nil
	}
	if !g.filled {
		if err := g.fill(ctx); err != nil {
			return nil, err
		}
	}
	nk := len(g.plan.keyFns)
	var first schema.Row
	if g.pending != nil {
		first, g.pending = g.pending, nil
	} else {
		rec, err := g.src.Next(ctx)
		if err != nil {
			return nil, err
		}
		if rec == nil {
			g.eof = true
			// A global aggregate over an empty input still yields one group.
			if nk == 0 && !g.emitted {
				g.emitted = true
				g.folder.open(nil)
				return g.folder.emit(ctx)
			}
			return nil, nil
		}
		first = rec
	}
	gk := first[0].S
	g.folder.open(first[1 : 1+nk])
	if err := g.folder.fold(first[1+nk:]); err != nil {
		return nil, err
	}
	for {
		rec, err := g.src.Next(ctx)
		if err != nil {
			return nil, err
		}
		if rec == nil {
			g.eof = true
			break
		}
		if rec[0].S != gk {
			g.pending = rec
			break
		}
		if err := g.folder.fold(rec[1+nk:]); err != nil {
			return nil, err
		}
	}
	g.emitted = true
	return g.folder.emit(ctx)
}

func (g *sortGroupIter) Close() {
	if !g.closed {
		g.closed = true
		g.child.Close()
		g.folder.close()
		if g.src != nil {
			g.src.Close()
			g.src = nil
		}
	}
}

// hashGroupIter is classic hash aggregation for databases running
// without a memory budget: accumulation is O(input) with state
// proportional to the group count. Groups are emitted sorted by group
// key (CompareSort, then rowKey as the distinct-group tie-break) so the
// hash, sort, and stream strategies present groups in one order.
type hashGroupIter struct {
	tx     *Txn
	plan   *groupPlan
	child  rowIter
	groups []*hashGroup
	pos    int
	filled bool
	closed bool
}

type hashGroup struct {
	gk     string
	keys   []value.Value
	states []*aggState
}

func newHashGroupIter(tx *Txn, plan *groupPlan, child rowIter) *hashGroupIter {
	return &hashGroupIter{tx: tx, plan: plan, child: child}
}

func (g *hashGroupIter) fill(ctx context.Context) error {
	byKey := make(map[string]*hashGroup)
	for {
		r, err := g.child.Next(ctx)
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		keys := make([]value.Value, len(g.plan.keyFns))
		for i, fn := range g.plan.keyFns {
			if keys[i], err = fn(r); err != nil {
				return err
			}
		}
		gk := rowKey(keys)
		hg, ok := byKey[gk]
		if !ok {
			hg = &hashGroup{gk: gk, keys: keys, states: make([]*aggState, len(g.plan.aggs))}
			for i := range hg.states {
				hg.states[i] = &aggState{sumIsInt: true}
				if g.plan.aggs[i].distinct {
					hg.states[i].distinct = newDistinctAcc(g.tx.db.budget, "DISTINCT aggregate "+g.plan.aggs[i].key)
				}
			}
			byKey[gk] = hg
			g.groups = append(g.groups, hg)
		}
		for i, spec := range g.plan.aggs {
			if err := accumulate(hg.states[i], spec, r); err != nil {
				return err
			}
		}
	}
	g.child.Close()
	// A global aggregate over an empty input still yields one group.
	if len(g.plan.keyFns) == 0 && len(g.groups) == 0 {
		hg := &hashGroup{states: make([]*aggState, len(g.plan.aggs))}
		for i := range hg.states {
			hg.states[i] = &aggState{sumIsInt: true}
			if g.plan.aggs[i].distinct {
				hg.states[i].distinct = newDistinctAcc(g.tx.db.budget, "DISTINCT aggregate "+g.plan.aggs[i].key)
			}
		}
		g.groups = append(g.groups, hg)
	}
	sort.Slice(g.groups, func(a, b int) bool {
		ga, gb := g.groups[a], g.groups[b]
		for i := range ga.keys {
			if c := compareForSort(ga.keys[i], gb.keys[i]); c != 0 {
				return c < 0
			}
		}
		return ga.gk < gb.gk
	})
	g.filled = true
	return nil
}

func (g *hashGroupIter) Next(ctx context.Context) ([]value.Value, error) {
	if g.closed {
		return nil, nil
	}
	if !g.filled {
		if err := g.fill(ctx); err != nil {
			return nil, err
		}
	}
	if g.pos >= len(g.groups) {
		return nil, nil
	}
	hg := g.groups[g.pos]
	g.pos++
	grow := make(schema.Row, len(g.plan.keyStrs)+len(g.plan.aggs))
	copy(grow, hg.keys)
	for i, spec := range g.plan.aggs {
		v, err := finalize(ctx, hg.states[i], spec)
		if err != nil {
			return nil, err
		}
		grow[len(g.plan.keyStrs)+i] = v
	}
	g.groups[g.pos-1] = nil // release the folded state as we go
	return grow, nil
}

func (g *hashGroupIter) Close() {
	if !g.closed {
		g.closed = true
		g.child.Close()
		for _, hg := range g.groups {
			if hg == nil {
				continue
			}
			for _, st := range hg.states {
				st.close()
			}
		}
		g.groups = nil
	}
}
