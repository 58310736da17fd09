package localdb

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"unsafe"

	"myriad/internal/schema"
	"myriad/internal/spill"
	"myriad/internal/sqlparser"
	"myriad/internal/value"
)

// Grouped execution runs as a pull pipeline like everything else:
//
//	input -> group fold -> HAVING -> sort/proj -> DISTINCT -> LIMIT
//
// Two fold operators produce the group rows [group keys...,
// aggregate results...], and the access path, not a setting, picks
// between them:
//
//   - streamGroupIter when the base access path already delivers rows
//     with equal group keys adjacent (an ordered-index walk on the
//     grouping columns): one group's state is all that is ever held,
//     and a LIMIT above stops the index walk early. Groups come out in
//     the walk's order.
//   - groupIter otherwise: a hash-first fold whose groups stay resident
//     while the memory budget lets them, and whose overflow sorts
//     through spill.Sorter. The budget decides when it spills, never
//     which algorithm runs.
//
// groupIter emits groups in ascending group-key order (NULLs first,
// schema.CompareSort, then the kind-exact row key), and so does
// streamGroupIter for a single group key. When the ORDER BY is an ASC
// prefix of the group keys in that order, the pipeline sorts nothing.

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
	// keyOrdered: the ORDER BY keys are, in order and all ASC, a prefix
	// of the group keys, so ascending group-key order satisfies it.
	keyOrdered  bool
	hasDistinct bool // some aggregate is DISTINCT
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
	keyOrdered := len(sel.OrderBy) > 0 && len(sel.OrderBy) <= len(keyStrs)
	for i, o := range sel.OrderBy {
		descs[i] = o.Desc
		// Allow aliases and ordinals as in the plain path.
		src, fn := o.Expr, evalFn(nil)
		if lit, ok := o.Expr.(*sqlparser.Literal); ok {
			if n, isInt := lit.Val.Int(); isInt && n >= 1 && int(n) <= len(items) {
				src, fn = items[n-1].Expr, itemFns[n-1]
			}
		}
		if cr, ok := o.Expr.(*sqlparser.ColumnRef); ok && cr.Table == "" && fn == nil {
			for j, it := range items {
				if strings.EqualFold(it.Name, cr.Column) {
					src, fn = it.Expr, itemFns[j]
					break
				}
			}
		}
		if fn == nil {
			if fn, err = gb.compile(o.Expr); err != nil {
				return nil, err
			}
		}
		sortFns[i] = fn
		keyOrdered = keyOrdered && !o.Desc && sqlparser.FormatExpr(src, nil) == keyStrs[i]
	}
	hasDistinct := false
	for _, a := range aggs {
		hasDistinct = hasDistinct || a.distinct
	}

	return &groupPlan{
		items: items, aggs: aggs,
		keyFns: keyFns, keyStrs: keyStrs, keyIdxs: keyIdxs, identity: identity,
		itemFns: itemFns, having: having,
		sortFns: sortFns, descs: descs,
		keyOrdered: keyOrdered, hasDistinct: hasDistinct,
	}, nil
}

// keysInto evaluates row r's group key into dst, which must have room
// for every key column.
func (p *groupPlan) keysInto(r schema.Row, dst []value.Value) error {
	if p.keyIdxs != nil {
		for i, idx := range p.keyIdxs {
			dst[i] = r[idx]
		}
		return nil
	}
	for i, fn := range p.keyFns {
		v, err := fn(r)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
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
	if streamed && plan.nKeys() > 0 {
		out = newStreamGroupIter(tx, plan, it)
	} else {
		out = newGroupIter(tx, plan, it)
	}
	if plan.having != nil {
		out = newFilterIter(out, plan.having, 0)
	}
	// The stream walk orders groups by the index columns, which is the
	// group-key order only when there is one key.
	ordered := plan.keyOrdered && (!streamed || plan.nKeys() == 1)
	switch {
	case len(plan.sortFns) > 0 && !ordered:
		out = newSortIter(out, plan.itemFns, plan.sortFns, plan.descs, tx.db.budget)
	case plan.identity:
		// Group rows are already the output rows; skip the projection.
	default:
		out = newProjIter(out, plan.itemFns, nil)
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
// The stream operator and groupIter's overflow fold reuse one folder
// for group after group; each of groupIter's resident groups is one.
// Only DISTINCT aggregates grow with the group's row count, and their
// dedup state is a budget-true spill.Deduper — past the budget it
// spills to sort-based dedup instead of erroring, so a single huge
// group completes like any other budgeted operator.
type groupFolder struct {
	plan   *groupPlan
	keys   []value.Value
	states []aggState
}

func (f *groupFolder) open(keys []value.Value, budget *spill.Budget) {
	f.keys = keys
	if f.states == nil {
		f.states = make([]aggState, len(f.plan.aggs))
	}
	for i := range f.states {
		st := &f.states[i]
		st.close()
		*st = aggState{sumIsInt: true}
		if f.plan.aggs[i].distinct {
			st.distinct = newDistinctAcc(budget)
		}
	}
}

func (f *groupFolder) fold(r schema.Row) error {
	for i, spec := range f.plan.aggs {
		if err := accumulate(&f.states[i], spec, r); err != nil {
			return err
		}
	}
	return nil
}

// emit finalizes the live group into its group row and drops the
// group's references; the states are kept for the next open, so
// steady-state grouping allocates only the output row.
func (f *groupFolder) emit(ctx context.Context) (schema.Row, error) {
	grow := make(schema.Row, len(f.plan.keyStrs)+len(f.plan.aggs))
	copy(grow, f.keys)
	for i, spec := range f.plan.aggs {
		v, err := finalize(ctx, &f.states[i], spec)
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
	for i := range f.states {
		f.states[i].close()
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
// ties cannot split a row-key identity group (see access.go).
type streamGroupIter struct {
	budget      *spill.Budget
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
	return &streamGroupIter{budget: tx.db.budget, plan: plan, child: child,
		folder:  groupFolder{plan: plan},
		scratch: make([]value.Value, len(plan.keyFns)),
		spare:   make([]value.Value, len(plan.keyFns))}
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
	if err := g.plan.keysInto(r, g.scratch); err != nil {
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
		if err := g.plan.keysInto(r, keys); err != nil {
			return nil, err
		}
		first = r
	}
	g.folder.open(keys, g.budget)
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
			if err := g.plan.keysInto(r, g.scratch); err != nil {
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

// groupIter is GROUP BY as a hash-first fold. Each new group reserves
// its bytes from the budget and stays resident, folding its rows as
// they arrive. The first refused reservation freezes the table: a row
// whose group is resident still folds into it, and every other row goes
// to a spill.Sorter as the record [gk, keys..., row...]. Records order
// by the keys under schema.CompareSort, then by gk, the kind-exact row
// key of the keys, so keys that tie under CompareSort but are distinct
// groups (+0.0 and -0.0) stay apart. At the end the resident groups,
// sorted the same way, and the sorter's groups, folded one adjacent run
// at a time, merge into one ascending stream; no group is in both.
//
// A group is resident or overflowed for its whole life, and the sorter
// is stable, so every group folds its rows in arrival order: a float
// SUM or a DISTINCT aggregate comes out bit for bit as with no budget,
// and no aggregate state ever needs merging. Without a limit nothing
// freezes and nothing is reserved.
type groupIter struct {
	budget *spill.Budget
	plan   *groupPlan
	child  rowIter
	table  map[string]*residentGroup
	groups []*residentGroup // in arrival order, then sorted for emission
	held   int64            // bytes the resident groups reserved
	frozen bool
	sorter *spill.Sorter   // the overflow, from the freeze on
	src    *spill.Iterator // the sorted overflow
	head   schema.Row      // the next overflow group's first record
	folder groupFolder     // folds one overflow group at a time
	filled bool
	closed bool
}

// residentGroup is one group held in groupIter's table.
type residentGroup struct {
	gk string
	groupFolder
}

// residentGroupBytes is a resident group's fixed cost beyond its key
// and states: the struct and its table slot.
const residentGroupBytes = int64(unsafe.Sizeof(residentGroup{})) + 32

func newGroupIter(tx *Txn, plan *groupPlan, child rowIter) *groupIter {
	budget := tx.db.budget
	return &groupIter{budget: budget, plan: plan, child: child,
		table:  make(map[string]*residentGroup),
		folder: groupFolder{plan: plan},
		// A DISTINCT aggregate's state grows with its group's rows, so
		// it cannot be charged when the group opens: under a limit such
		// a plan keeps no table and folds every group from the sorter,
		// one at a time. A global aggregate's one group is always held.
		frozen: budget.Limit() > 0 && plan.hasDistinct && plan.nKeys() > 0,
	}
}

// groupBytes is what a resident group charges the budget.
func (g *groupIter) groupBytes(gk string, keys []value.Value) int64 {
	return residentGroupBytes + int64(len(gk)) + schema.RowBytes(keys) +
		int64(len(g.plan.aggs))*int64(unsafe.Sizeof(aggState{}))
}

// release returns a resident group's reservation once it is emitted.
func (g *groupIter) release(rg *residentGroup) {
	if g.budget.Limit() > 0 {
		n := g.groupBytes(rg.gk, rg.keys)
		g.held -= n
		g.budget.Release(n)
	}
}

// compareGroups orders groups by their keys under schema.CompareSort,
// then by their row keys.
func compareGroups(ka, kb []value.Value, gka, gkb string) int {
	for i := range ka {
		if c := schema.CompareSort(ka[i], kb[i]); c != 0 {
			return c
		}
	}
	return strings.Compare(gka, gkb)
}

// hold makes a new resident group and reports it, or nil once the table
// is frozen. Under a limit each group reserves groupBytes. The first
// group is held even past the limit: one group's state is the least any
// fold holds, the overflow fold's included. The table takes at most
// three quarters of the limit, so the sorter that takes the overflow
// keeps at least a quarter for its runs.
func (g *groupIter) hold(gk []byte, keys []value.Value) *residentGroup {
	if g.frozen {
		return nil
	}
	key := string(gk)
	if limit := g.budget.Limit(); limit > 0 {
		n := g.groupBytes(key, keys)
		switch {
		case len(g.groups) == 0:
			g.budget.Force(n)
		case 4*(g.held+n) > 3*limit || !g.budget.Reserve(n):
			g.frozen = true
			return nil
		}
		g.held += n
	}
	rg := &residentGroup{gk: key, groupFolder: groupFolder{plan: g.plan}}
	rg.open(slices.Clone(keys), g.budget)
	g.table[key] = rg
	g.groups = append(g.groups, rg)
	return rg
}

func (g *groupIter) fill(ctx context.Context) error {
	nk := g.plan.nKeys()
	keys := make([]value.Value, nk)
	var gk []byte
	slab := recordSlab{limit: g.budget.Limit()}
	for {
		r, err := g.child.Next(ctx)
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		if err := g.plan.keysInto(r, keys); err != nil {
			return err
		}
		gk = value.AppendRowKey(gk[:0], keys)
		rg := g.table[string(gk)]
		if rg == nil {
			rg = g.hold(gk, keys)
		}
		if rg != nil {
			if err := rg.fold(r); err != nil {
				return err
			}
			continue
		}
		if g.sorter == nil {
			g.sorter = spill.NewSorterFunc(g.budget, func(a, b schema.Row) int {
				return compareGroups(a[1:1+nk], b[1:1+nk], a[0].S, b[0].S)
			})
		}
		rec := slab.next(1 + nk + len(r))
		rec[0] = value.NewText(string(gk))
		copy(rec[1:], keys)
		copy(rec[1+nk:], r)
		if err := g.sorter.Add(rec); err != nil {
			return err
		}
	}
	g.child.Close()
	// A global aggregate over an empty input still yields one group.
	if nk == 0 && len(g.groups) == 0 {
		g.hold(nil, keys)
	}
	g.table = nil
	slices.SortFunc(g.groups, func(a, b *residentGroup) int {
		return compareGroups(a.keys, b.keys, a.gk, b.gk)
	})
	g.filled = true
	if g.sorter == nil {
		return nil
	}
	src, err := g.sorter.Finish()
	g.sorter = nil
	if err != nil {
		return err
	}
	g.src = src
	g.head, err = src.Next(ctx)
	return err
}

func (g *groupIter) Next(ctx context.Context) ([]value.Value, error) {
	if g.closed {
		return nil, nil
	}
	if !g.filled {
		if err := g.fill(ctx); err != nil {
			return nil, err
		}
	}
	nk := g.plan.nKeys()
	if h := g.head; h != nil && (len(g.groups) == 0 ||
		compareGroups(h[1:1+nk], g.groups[0].keys, h[0].S, g.groups[0].gk) < 0) {
		return g.foldOverflow(ctx)
	}
	if len(g.groups) == 0 {
		return nil, nil
	}
	rg := g.groups[0]
	g.groups[0] = nil
	g.groups = g.groups[1:]
	g.release(rg)
	return rg.emit(ctx)
}

// foldOverflow folds the sorter's next group, the adjacent records that
// share head's gk.
func (g *groupIter) foldOverflow(ctx context.Context) ([]value.Value, error) {
	nk := g.plan.nKeys()
	first := g.head
	g.head = nil
	g.folder.open(first[1:1+nk], g.budget)
	if err := g.folder.fold(first[1+nk:]); err != nil {
		return nil, err
	}
	for {
		rec, err := g.src.Next(ctx)
		if err != nil {
			return nil, err
		}
		if rec == nil {
			break
		}
		if rec[0].S != first[0].S {
			g.head = rec
			break
		}
		if err := g.folder.fold(rec[1+nk:]); err != nil {
			return nil, err
		}
	}
	return g.folder.emit(ctx)
}

func (g *groupIter) Close() {
	if g.closed {
		return
	}
	g.closed = true
	g.child.Close()
	for _, rg := range g.groups {
		rg.close()
	}
	g.groups, g.table = nil, nil
	g.budget.Release(g.held)
	g.held = 0
	g.folder.close()
	if g.sorter != nil {
		g.sorter.Close()
	}
	if g.src != nil {
		g.src.Close()
	}
}
