package localdb

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"myriad/internal/schema"
	"myriad/internal/sqlparser"
	"myriad/internal/storage"
	"myriad/internal/value"
)

// This file is the engine's access-path planner: given one base table's
// pushed-down conjuncts (and, for the first FROM entry, the statement's
// ORDER BY intent), it chooses between a heap scan, a hash-index
// equality probe, and an ordered-index range scan by estimated
// selectivity from the table's cached statistics — and reports whether
// the chosen path already delivers rows in the requested order, which
// lets the executor drop the sort/top-K/spill stage entirely.

// accessKind names the physical access path for one base table.
type accessKind uint8

const (
	accessHeap accessKind = iota
	accessPKPoint
	accessHashEq
	accessOrdered
	accessMultiEq
)

// String names the access kind for explain output.
func (k accessKind) String() string {
	switch k {
	case accessPKPoint:
		return "pk-point"
	case accessHashEq:
		return "hash-eq"
	case accessOrdered:
		return "ordered-range"
	case accessMultiEq:
		return "multi-eq"
	default:
		return "heap"
	}
}

// orderHint is the statement's ORDER BY intent when every item is a
// plain column of the base table in one uniform direction — the shape
// an ordered-index walk (single-column or composite) can satisfy
// outright.
type orderHint struct {
	cols []string
	desc bool
}

// accessChoice is one planned access path.
type accessChoice struct {
	kind   accessKind
	col    string        // indexed column (hash-eq / multi-eq; first key column for ordered)
	eq     value.Value   // hash-eq probe value
	eqList []value.Value // multi-eq probe values, sorted ascending, deduplicated

	// Ordered-walk plan: the index, its key columns, the
	// equality-pinned prefix values, the (optional) range bounds on the
	// column after the prefix, and the derived tuple-prefix scan bounds.
	ix     *storage.OrderedIndex
	cols   []string
	eqVals []value.Value
	lo     storage.Bound
	hi     storage.Bound
	tlo    storage.TupleBound
	thi    storage.TupleBound
	desc   bool
	// order reports that the path emits rows already in the hint's
	// order, so the caller can skip its sort operator.
	order bool
	// group reports that the path emits rows with equal group keys
	// adjacent (and groups in group-key sort order), so grouped
	// execution can fold group-at-a-time with no accumulation state.
	group bool
	// frac is the estimated fraction of the table the path reads.
	frac float64
	rows int64 // table rows the estimate was made against
}

// Describe renders the choice for explain output.
func (c *accessChoice) Describe(table string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s", table, c.kind)
	switch c.kind {
	case accessHashEq:
		fmt.Fprintf(&b, "(%s = %s)", c.col, c.eq)
	case accessMultiEq:
		fmt.Fprintf(&b, "(%s IN %d values)", c.col, len(c.eqList))
	case accessOrdered:
		b.WriteString("(")
		for i, v := range c.eqVals {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s = %s", c.cols[i], v)
		}
		k := len(c.eqVals)
		if c.lo.Set || c.hi.Set {
			if k > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.cols[k])
			if c.lo.Set {
				op := ">"
				if c.lo.Inclusive {
					op = ">="
				}
				fmt.Fprintf(&b, " %s %s", op, c.lo.V)
			}
			if c.hi.Set {
				op := "<"
				if c.hi.Inclusive {
					op = "<="
				}
				fmt.Fprintf(&b, " %s %s", op, c.hi.V)
			}
			k++
		}
		if k == 0 {
			b.WriteString(strings.Join(c.cols, ", "))
		} else if k < len(c.cols) {
			fmt.Fprintf(&b, ", %s", strings.Join(c.cols[k:], ", "))
		}
		if c.desc {
			b.WriteString(" desc")
		}
		b.WriteString(")")
	}
	if c.kind != accessPKPoint {
		fmt.Fprintf(&b, " ~%.1f%% of %d rows", c.frac*100, c.rows)
	}
	if c.order {
		b.WriteString("; serves ORDER BY (no sort)")
	}
	if c.group {
		b.WriteString("; serves GROUP BY (streamed)")
	}
	return b.String()
}

// colRange accumulates the range conjuncts extracted for one column:
// the tightest lower and upper bounds, plus an equality value if any.
type colRange struct {
	col string
	eq  *value.Value
	lo  storage.Bound
	hi  storage.Bound
}

// tightenLo keeps the larger of the current and new lower bound.
func (r *colRange) tightenLo(b storage.Bound) {
	if !r.lo.Set {
		r.lo = b
		return
	}
	c := schema.CompareSort(b.V, r.lo.V)
	if c > 0 || (c == 0 && !b.Inclusive) {
		r.lo = b
	}
}

// tightenHi keeps the smaller of the current and new upper bound.
func (r *colRange) tightenHi(b storage.Bound) {
	if !r.hi.Set {
		r.hi = b
		return
	}
	c := schema.CompareSort(b.V, r.hi.V)
	if c < 0 || (c == 0 && !b.Inclusive) {
		r.hi = b
	}
}

// compatibleLiteral gates bound extraction: an index range scan is only
// a safe superset of the predicate when the literal compares in the
// same class the index is ordered by. A numeric literal against a
// numeric column compares numerically both ways; text against text
// compares lexicographically both ways. A numeric literal against a
// text column (or vice versa) triggers value.Compare's numeric-parse
// fallback, whose order is not the index's lexicographic order — rows
// matching the predicate would not be contiguous in the index, so no
// bound is extracted and the conjunct stays a plain filter.
func compatibleLiteral(lit value.Value, colType schema.Type) bool {
	switch lit.K {
	case value.KindInt, value.KindFloat:
		return colType == schema.TInt || colType == schema.TFloat
	case value.KindText:
		return colType == schema.TText
	case value.KindBool:
		return colType == schema.TBool
	default:
		return false
	}
}

// rangeLiteral matches "col OP literal" or "literal OP col" for the
// ordering operators, normalizing to the column-on-the-left form.
func rangeLiteral(e sqlparser.Expr) (col string, op string, lit value.Value, ok bool) {
	bx, isBin := e.(*sqlparser.BinaryExpr)
	if !isBin {
		return "", "", value.Value{}, false
	}
	flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<="}
	if _, isRange := flip[bx.Op]; !isRange {
		return "", "", value.Value{}, false
	}
	if c, okc := bx.L.(*sqlparser.ColumnRef); okc {
		if l, okl := bx.R.(*sqlparser.Literal); okl {
			return c.Column, bx.Op, l.Val, true
		}
	}
	if c, okc := bx.R.(*sqlparser.ColumnRef); okc {
		if l, okl := bx.L.(*sqlparser.Literal); okl {
			return c.Column, flip[bx.Op], l.Val, true
		}
	}
	return "", "", value.Value{}, false
}

// extractRanges folds the table's pushed-down conjuncts into per-column
// range constraints (equality, <, <=, >, >=, BETWEEN), keyed by
// lower-cased column name. Only columns present in sc with
// class-compatible literals contribute; everything else remains a
// filter above the scan (all conjuncts do — bounds only narrow what the
// scan reads, they never replace the predicate).
func extractRanges(local []sqlparser.Expr, sc *schema.Schema) map[string]*colRange {
	out := make(map[string]*colRange)
	get := func(col string, lit value.Value) *colRange {
		ci := sc.ColIndex(col)
		if ci < 0 || lit.IsNull() || !compatibleLiteral(lit, sc.Columns[ci].Type) {
			return nil
		}
		lc := strings.ToLower(sc.Columns[ci].Name)
		r, ok := out[lc]
		if !ok {
			r = &colRange{col: sc.Columns[ci].Name}
			out[lc] = r
		}
		return r
	}
	for _, c := range local {
		if col, lit, ok := equalityLiteral(c); ok {
			if r := get(col, lit); r != nil {
				v := lit
				r.eq = &v
				r.tightenLo(storage.BoundAt(lit, true))
				r.tightenHi(storage.BoundAt(lit, true))
			}
			continue
		}
		if col, op, lit, ok := rangeLiteral(c); ok {
			if r := get(col, lit); r != nil {
				switch op {
				case "<":
					r.tightenHi(storage.BoundAt(lit, false))
				case "<=":
					r.tightenHi(storage.BoundAt(lit, true))
				case ">":
					r.tightenLo(storage.BoundAt(lit, false))
				case ">=":
					r.tightenLo(storage.BoundAt(lit, true))
				}
			}
			continue
		}
		if bt, ok := c.(*sqlparser.BetweenExpr); ok && !bt.Not {
			cr, okc := bt.E.(*sqlparser.ColumnRef)
			lo, okl := bt.Lo.(*sqlparser.Literal)
			hi, okh := bt.Hi.(*sqlparser.Literal)
			if okc && okl && okh {
				if r := get(cr.Column, lo.Val); r != nil && !hi.Val.IsNull() &&
					compatibleLiteral(hi.Val, sc.Columns[sc.ColIndex(cr.Column)].Type) {
					r.tightenLo(storage.BoundAt(lo.Val, true))
					r.tightenHi(storage.BoundAt(hi.Val, true))
				}
			}
		}
	}
	// A predicate-driven scan must exclude NULLs (comparisons are
	// unknown on NULL): when only an upper bound exists, start strictly
	// after the NULL group, which sorts first.
	for _, r := range out {
		if !r.lo.Set && r.hi.Set {
			r.lo = storage.BoundAt(value.Null(), false)
		}
	}
	return out
}

// inListConstraint is one column's positive IN-list constraint: the
// distinct probe values, coerced to the column type and sorted
// ascending. A bind join's shipped probe predicate is exactly this
// shape, so large lists here must not degrade to heap scans.
type inListConstraint struct {
	col  string
	vals []value.Value
}

// extractInLists collects "col IN (literal, ...)" conjuncts whose
// members all coerce to the column's declared type: the shape a hash
// index serves with one probe per value, or an ordered index with one
// point walk per value — in sorted value order, which satisfies a
// single-column ORDER BY on that column outright. NULL members are
// dropped (col = NULL is never true, so they match nothing; the filter
// above agrees). Values are coerced so index probes compare Identical
// to stored rows, and deduplicated so cost and work scale with the
// distinct-value count. Lists with any non-literal, NOT IN, or a
// class-incompatible member stay plain filters.
func extractInLists(local []sqlparser.Expr, sc *schema.Schema) map[string]*inListConstraint {
	var out map[string]*inListConstraint
	for _, c := range local {
		in, ok := c.(*sqlparser.InExpr)
		if !ok || in.Not || len(in.List) == 0 {
			continue
		}
		cr, ok := in.E.(*sqlparser.ColumnRef)
		if !ok {
			continue
		}
		ci := sc.ColIndex(cr.Column)
		if ci < 0 {
			continue
		}
		colType := sc.Columns[ci].Type
		vals := make([]value.Value, 0, len(in.List))
		usable := true
		for _, m := range in.List {
			lit, okl := m.(*sqlparser.Literal)
			if !okl {
				usable = false
				break
			}
			if lit.Val.IsNull() {
				continue
			}
			if !compatibleLiteral(lit.Val, colType) {
				usable = false
				break
			}
			cv, err := schema.Coerce(lit.Val, colType)
			if err != nil {
				usable = false
				break
			}
			vals = append(vals, cv)
		}
		if !usable {
			continue
		}
		sort.Slice(vals, func(i, j int) bool { return schema.CompareSort(vals[i], vals[j]) < 0 })
		keep := vals[:0]
		for _, v := range vals {
			if len(keep) == 0 || schema.CompareSort(v, keep[len(keep)-1]) != 0 {
				keep = append(keep, v)
			}
		}
		lc := strings.ToLower(sc.Columns[ci].Name)
		if out == nil {
			out = make(map[string]*inListConstraint)
		}
		// Two IN conjuncts on one column: keep the smaller list (the
		// filter above reapplies both, so either is a safe superset).
		if prev, dup := out[lc]; !dup || len(keep) < len(prev.vals) {
			out[lc] = &inListConstraint{col: sc.Columns[ci].Name, vals: keep}
		}
	}
	return out
}

// Cost-model constants, in units of "heap rows read". Index access
// pays per-row overhead (tree walk amortized over the scan, per-row
// heap Get) the sequential heap scan does not; the sort penalty charges
// paths that leave an ORDER BY to a downstream sort/top-K/spill stage
// roughly one extra pass over their output.
const (
	hashRowCost    = 1.1
	orderedRowCost = 1.5
	sortPassCost   = 1.0
)

// disableOrderedAccess forces heap/hash access even when an ordered
// index could serve a range or an ORDER BY. Tests and benchmarks use it
// to compare the index paths against the scan-and-sort baseline over
// identical data; production code never sets it.
var disableOrderedAccess bool

// servesPrefix reports whether a walk ordered by rem (the index key
// columns after the equality-pinned prefix) delivers the columns in
// want in their stated order. Columns pinned by an equality constraint
// are constant and skippable wherever they appear in want, as is a
// column the walk already ordered (a repeat is constant within ties);
// every other wanted column must match the next remaining index column.
func servesPrefix(want, rem []string, eqCols map[string]bool) bool {
	matched := make(map[string]bool, len(want))
	i := 0
	for _, w := range want {
		lw := strings.ToLower(w)
		if eqCols[lw] || matched[lw] {
			continue
		}
		if i < len(rem) && strings.EqualFold(rem[i], w) {
			matched[strings.ToLower(rem[i])] = true
			i++
			continue
		}
		return false
	}
	return true
}

// servesGroupSet reports whether a walk ordered by rem keeps rows with
// equal values on every column of want adjacent — the contiguity
// streamed grouping needs. Unlike ORDER BY, grouping is insensitive to
// key order, so want is a set: it streams iff some prefix of the
// walk's ordering columns covers exactly the wanted columns that are
// not already pinned constant by an equality (rows can only interleave
// on a walk column outside the group key).
func servesGroupSet(want, rem []string, eqCols map[string]bool) bool {
	need := make(map[string]bool, len(want))
	for _, w := range want {
		lw := strings.ToLower(w)
		if !eqCols[lw] {
			need[lw] = true
		}
	}
	for i := 0; len(need) > 0; i++ {
		if i >= len(rem) {
			return false
		}
		lr := strings.ToLower(rem[i])
		if eqCols[lr] {
			continue // constant under the walk: cannot split a group
		}
		if !need[lr] {
			return false
		}
		delete(need, lr)
	}
	return true
}

// chooseAccess picks the access path for one base table given its
// pushed-down conjuncts, the statement's order hint, and — for grouped
// statements — the group-key columns resolved onto this table (nil
// when grouping cannot stream). Callers must hold the database latch
// (the stats read touches table rows when the cache is stale).
func chooseAccess(t *storage.Table, local []sqlparser.Expr, hint *orderHint, groupCols []string) accessChoice {
	sc := t.Schema
	stats := t.CachedStats()
	n := stats.Rows
	if actual := int64(t.Len()); actual > n {
		// Stats lag behind bulk loads; never let the model see a table
		// smaller than it is.
		n = actual
	}
	ranges := extractRanges(local, sc)
	inLists := extractInLists(local, sc)
	eqCols := make(map[string]bool, len(ranges))
	for lc, r := range ranges {
		if r.eq != nil {
			eqCols[lc] = true
		}
	}

	// Selectivity of every extracted constraint combined — the sort
	// feeds only surviving rows, so the sort penalty scales with it.
	combined := 1.0
	for _, r := range ranges {
		if cs, ok := stats.Col(r.col); ok {
			if r.eq != nil {
				combined *= cs.EqFraction(n)
			} else {
				combined *= cs.RangeFraction(r.lo, r.hi, n)
			}
		} else {
			combined *= 1.0 / 3
		}
	}
	for lc, il := range inLists {
		if _, dup := ranges[lc]; dup {
			continue // already charged for this column
		}
		f := 1.0 / 3
		if cs, ok := stats.Col(il.col); ok {
			f = float64(len(il.vals)) * cs.EqFraction(n)
		}
		if f > 1 {
			f = 1
		}
		combined *= f
	}

	wantsOrder := hint != nil
	sortPenalty := func(satisfies bool) float64 {
		if !wantsOrder || satisfies {
			return 0
		}
		return combined * sortPassCost
	}
	// A path that does not stream grouping leaves grouped execution a
	// hash or sort pass over its output — charged like an unserved sort.
	wantsGroup := len(groupCols) > 0
	groupPenalty := func(satisfies bool) float64 {
		if !wantsGroup || satisfies {
			return 0
		}
		return combined * sortPassCost
	}

	best := accessChoice{kind: accessHeap, frac: 1, rows: n}
	bestCost := 1.0 + sortPenalty(false) + groupPenalty(false)

	consider := func(c accessChoice, cost float64) {
		if cost < bestCost {
			best, bestCost = c, cost
		}
	}

	for _, r := range ranges {
		if r.eq == nil {
			continue
		}
		if _, ok := t.Index(r.col); ok {
			cs, hasStats := stats.Col(r.col)
			frac := 0.1
			if hasStats {
				frac = cs.EqFraction(n)
			}
			consider(accessChoice{kind: accessHashEq, col: r.col, eq: *r.eq, frac: frac, rows: n},
				frac*hashRowCost+sortPenalty(false)+groupPenalty(false))
		}
	}

	// Every ordered index — single-column or composite — yields one
	// candidate walk: the longest equality-pinned prefix of its key
	// columns narrows the scan to a prefix group, an optional range on
	// the next column narrows it further, and the remaining key order
	// may serve the ORDER BY or stream the GROUP BY.
	if !disableOrderedAccess {
		for _, info := range t.OrderedIndexes() {
			idxCols := info.Columns
			k := 0
			var eqVals []value.Value
			frac := 1.0
			for k < len(idxCols) {
				r, ok := ranges[strings.ToLower(idxCols[k])]
				if !ok || r.eq == nil {
					break
				}
				eqVals = append(eqVals, *r.eq)
				if cs, okc := stats.Col(r.col); okc {
					frac *= cs.EqFraction(n)
				} else {
					frac *= 0.1
				}
				k++
			}
			var rng *colRange
			if k < len(idxCols) {
				if r, ok := ranges[strings.ToLower(idxCols[k])]; ok && (r.lo.Set || r.hi.Set) {
					rng = r
					if cs, okc := stats.Col(r.col); okc {
						frac *= cs.RangeFraction(r.lo, r.hi, n)
					} else {
						frac *= 1.0 / 3
					}
				}
			}
			rem := idxCols[k:]
			satOrder := wantsOrder && servesPrefix(hint.cols, rem, eqCols)
			satGroup := wantsGroup && servesGroupSet(groupCols, rem, eqCols)
			if k == 0 && rng == nil && !satOrder && !satGroup {
				continue // unconstrained walk serving nothing
			}
			c := accessChoice{
				kind: accessOrdered, col: idxCols[0], ix: info.Index,
				cols: idxCols, eqVals: eqVals,
				desc:  satOrder && hint.desc,
				order: satOrder, group: satGroup, frac: frac, rows: n,
			}
			if rng != nil {
				c.lo, c.hi = rng.lo, rng.hi
			}
			c.tlo, c.thi = tupleBounds(eqVals, rng)
			consider(c, frac*orderedRowCost+sortPenalty(satOrder)+groupPenalty(satGroup))
		}
	}

	// An IN list probes its indexed column once per distinct value:
	// hash lookups when a hash index exists, or point walks on an
	// ordered index — which emit rows in sorted value order and so
	// serve a single-column ORDER BY (or stream a single-column GROUP
	// BY) on that column with no sort.
	for _, il := range inLists {
		cs, hasStats := stats.Col(il.col)
		eqf := 0.1
		if hasStats {
			eqf = cs.EqFraction(n)
		}
		frac := float64(len(il.vals)) * eqf
		if frac > 1 {
			frac = 1
		}
		if _, ok := t.Index(il.col); ok {
			consider(accessChoice{kind: accessMultiEq, col: il.col, eqList: il.vals, frac: frac, rows: n},
				frac*hashRowCost+sortPenalty(false)+groupPenalty(false))
		}
		if ix, ok := t.OrderedIndex(il.col); ok && !disableOrderedAccess {
			satisfies := wantsOrder && servesPrefix(hint.cols, []string{il.col}, eqCols)
			satGroup := wantsGroup && servesGroupSet(groupCols, []string{il.col}, eqCols)
			consider(accessChoice{
				kind: accessMultiEq, col: il.col, eqList: il.vals, ix: ix,
				desc: satisfies && hint.desc, order: satisfies, group: satGroup, frac: frac, rows: n,
			}, frac*orderedRowCost+sortPenalty(satisfies)+groupPenalty(satGroup))
		}
	}
	return best
}

// tupleBounds builds the scan bounds for an ordered walk from the
// equality-pinned prefix values and the optional range on the next key
// column: lo = (eq..., range lo) and hi = (eq..., range hi), with a
// bare inclusive (eq...) prefix bound on whichever side has no range.
func tupleBounds(eqVals []value.Value, rng *colRange) (lo, hi storage.TupleBound) {
	if len(eqVals) == 0 && rng == nil {
		return storage.TupleBound{}, storage.TupleBound{}
	}
	if rng != nil && rng.lo.Set {
		lo = storage.TupleBoundAt(append(append([]value.Value{}, eqVals...), rng.lo.V), rng.lo.Inclusive)
	} else if len(eqVals) > 0 {
		lo = storage.TupleBoundAt(eqVals, true)
	}
	if rng != nil && rng.hi.Set {
		hi = storage.TupleBoundAt(append(append([]value.Value{}, eqVals...), rng.hi.V), rng.hi.Inclusive)
	} else if len(eqVals) > 0 {
		hi = storage.TupleBoundAt(eqVals, true)
	}
	return lo, hi
}

// baseColumns resolves each expression as a plain column reference on
// the first FROM entry, returning nil unless every one is. Qualified
// references must name the base; unqualified ones must be unambiguous
// across the statement's relations (otherwise compilation would reject
// the query anyway — returning no hint keeps that error on its normal
// path).
func (tx *Txn) baseColumns(exprs []sqlparser.Expr, sel *sqlparser.Select, from []sqlparser.TableRef) []string {
	if len(exprs) == 0 || len(from) == 0 {
		return nil
	}
	base := from[0]
	tx.db.latch.RLock()
	defer tx.db.latch.RUnlock()
	bt, err := tx.db.table(base.Name)
	if err != nil {
		return nil
	}
	others := append([]sqlparser.TableRef{}, from[1:]...)
	for _, j := range sel.Joins {
		others = append(others, j.Table)
	}
	cols := make([]string, 0, len(exprs))
	for _, e := range exprs {
		cr, ok := e.(*sqlparser.ColumnRef)
		if !ok || bt.Schema.ColIndex(cr.Column) < 0 {
			return nil
		}
		if cr.Table != "" {
			if !strings.EqualFold(cr.Table, base.EffectiveName()) {
				return nil
			}
		} else {
			// Unqualified: the column must not resolve in any other
			// relation (a select-item alias shadowing it would be fine —
			// the alias path only fires when the input column does NOT
			// resolve, and here it does).
			for _, ref := range others {
				ot, err := tx.db.table(ref.Name)
				if err != nil {
					return nil
				}
				if ot.Schema.ColIndex(cr.Column) >= 0 {
					return nil
				}
			}
		}
		cols = append(cols, cr.Column)
	}
	return cols
}

// deriveOrderHint maps the statement's ORDER BY onto the base table
// when every item is a plain column reference resolving there in one
// uniform direction: the shape an ordered index walk satisfies. The
// walk's tie order (ascending heap slot within equal keys) is exactly
// the stable sort's arrival order, so the substitution is
// row-identical, not merely equivalent.
func (tx *Txn) deriveOrderHint(sel *sqlparser.Select, from []sqlparser.TableRef) *orderHint {
	if len(sel.OrderBy) == 0 {
		return nil
	}
	desc := sel.OrderBy[0].Desc
	exprs := make([]sqlparser.Expr, 0, len(sel.OrderBy))
	for _, it := range sel.OrderBy {
		if it.Desc != desc {
			return nil
		}
		exprs = append(exprs, it.Expr)
	}
	cols := tx.baseColumns(exprs, sel, from)
	if cols == nil {
		return nil
	}
	return &orderHint{cols: cols, desc: desc}
}

// deriveGroupHint maps the statement's GROUP BY onto the base table
// when every key is a plain column reference resolving there — the
// shape an ordered walk can feed group-at-a-time. Join builds and
// filters above the scan preserve the contiguity of equal base-table
// group keys (the hash join probes the scan in order, emitting each
// probe row's matches as one contiguous block), so the hint stays
// valid for multi-relation statements too.
func (tx *Txn) deriveGroupHint(sel *sqlparser.Select, from []sqlparser.TableRef) []string {
	return tx.baseColumns(sel.GroupBy, sel, from)
}

// indexScanIter streams rows in ordered-index order, batch-copied
// under the database latch exactly like the heap scan (the table S
// lock freezes the table and its indexes for the statement, so the
// cursor's positions stay valid across latch releases). Rows read
// count toward the database's ScannedRows — the counter that proves a
// selective range scan reads only its fraction of the table.
type indexScanIter struct {
	db     *DB
	t      *storage.Table
	cur    *storage.OrderedCursor
	ci     int
	batch  [][]value.Value
	bpos   int
	done   bool
	closed bool
}

func newIndexScanIter(db *DB, t *storage.Table, ix *storage.OrderedIndex, lo, hi storage.TupleBound, desc bool) *indexScanIter {
	return &indexScanIter{db: db, t: t, cur: ix.CursorTuple(lo, hi, desc)}
}

func (s *indexScanIter) Next(ctx context.Context) ([]value.Value, error) {
	if err := schema.Canceled(ctx); err != nil {
		return nil, err
	}
	if s.closed {
		return nil, nil
	}
	if s.bpos >= len(s.batch) {
		if s.done {
			return nil, nil
		}
		s.refill()
		if len(s.batch) == 0 {
			s.done = true
			return nil, nil
		}
	}
	r := s.batch[s.bpos]
	s.bpos++
	return r, nil
}

func (s *indexScanIter) refill() {
	s.batch = s.batch[:0]
	s.bpos = 0
	s.db.latch.RLock()
	for len(s.batch) < scanBatchSize {
		id, ok := s.cur.Next()
		if !ok {
			s.done = true
			break
		}
		if r := s.t.Get(id); r != nil {
			s.batch = append(s.batch, r)
		}
	}
	s.db.latch.RUnlock()
	s.db.scanRows.Add(int64(len(s.batch)))
}

func (s *indexScanIter) Close() { s.closed = true; s.batch = nil; s.cur = nil }

// multiPointIter serves an IN list from an ordered index as one point
// walk per value, in sorted value order (reverse for desc) — so its
// output is ordered by the probed column and can satisfy a
// single-column ORDER BY with no sort stage. Rows read count toward
// ScannedRows through the underlying point walks, keeping the "reads
// only its matches" property observable.
type multiPointIter struct {
	db     *DB
	t      *storage.Table
	ix     *storage.OrderedIndex
	vals   []value.Value
	desc   bool
	pos    int
	cur    *indexScanIter
	closed bool
}

func newMultiPointIter(db *DB, t *storage.Table, ix *storage.OrderedIndex, vals []value.Value, desc bool) *multiPointIter {
	if desc {
		rev := make([]value.Value, len(vals))
		for i, v := range vals {
			rev[len(vals)-1-i] = v
		}
		vals = rev
	}
	return &multiPointIter{db: db, t: t, ix: ix, vals: vals, desc: desc}
}

func (m *multiPointIter) Next(ctx context.Context) ([]value.Value, error) {
	if m.closed {
		return nil, nil
	}
	for {
		if m.cur == nil {
			if m.pos >= len(m.vals) {
				return nil, nil
			}
			b := storage.TupleBoundAt([]value.Value{m.vals[m.pos]}, true)
			m.cur = newIndexScanIter(m.db, m.t, m.ix, b, b, m.desc)
			m.pos++
		}
		r, err := m.cur.Next(ctx)
		if err != nil {
			return nil, err
		}
		if r != nil {
			return r, nil
		}
		m.cur.Close()
		m.cur = nil
	}
}

func (m *multiPointIter) Close() {
	m.closed = true
	if m.cur != nil {
		m.cur.Close()
		m.cur = nil
	}
}

// ---------------------------------------------------------------------
// Explain

// ExplainSelect renders the access path the engine would choose for
// each base relation of an already-translated SELECT, without
// executing it or taking locks — the per-site half of the federation's
// \explain. Compound branches are described in sequence.
func (db *DB) ExplainSelect(sel *sqlparser.Select) (string, error) {
	var b strings.Builder
	for branch := sel; branch != nil; {
		core := *branch
		core.Compound = nil
		if err := db.explainSimple(&core, &b); err != nil {
			return "", err
		}
		if branch.Compound == nil {
			break
		}
		branch = branch.Compound.Right
	}
	return strings.TrimRight(b.String(), "\n"), nil
}

func (db *DB) explainSimple(sel *sqlparser.Select, b *strings.Builder) error {
	if len(sel.From) == 0 {
		b.WriteString("no table\n")
		return nil
	}
	tx := db.Begin()
	defer tx.Rollback()
	from := tx.orderJoinBuilds(sel)
	hint := tx.deriveOrderHint(sel, from)
	conjuncts := sqlparser.SplitConjuncts(sel.Where)
	used := make([]bool, len(conjuncts))

	grouped := len(sel.GroupBy) > 0 || selectHasAggregates(sel)
	var groupCols []string
	if grouped {
		hint = nil // the grouped path orders its own output
		groupCols = tx.deriveGroupHint(sel, from)
	}

	describe := func(ref sqlparser.TableRef, h *orderHint, g []string) error {
		db.latch.RLock()
		defer db.latch.RUnlock()
		t, err := db.table(ref.Name)
		if err != nil {
			return err
		}
		qual := ref.EffectiveName()
		var local []sqlparser.Expr
		pkCol := ""
		if len(t.Schema.Key) == 1 {
			pkCol = t.Schema.Key[0]
		}
		point := false
		for i, c := range conjuncts {
			if used[i] || !refersOnlyTo(c, qual, t.Schema) {
				continue
			}
			local = append(local, c)
			used[i] = true
			if pkCol != "" {
				if col, _, ok := equalityLiteral(c); ok && strings.EqualFold(col, pkCol) {
					point = true
				}
			}
		}
		if point {
			fmt.Fprintf(b, "%s\n", (&accessChoice{kind: accessPKPoint}).Describe(qual))
			return nil
		}
		choice := chooseAccess(t, local, h, g)
		fmt.Fprintf(b, "%s\n", choice.Describe(qual))
		return nil
	}

	if err := describe(from[0], hint, groupCols); err != nil {
		return err
	}
	for _, ref := range from[1:] {
		if err := describe(ref, nil, nil); err != nil {
			return err
		}
	}
	for _, j := range sel.Joins {
		if err := describe(j.Table, nil, nil); err != nil {
			return err
		}
	}
	return nil
}
