// Package planner turns a global SQL query over integrated relations
// into an executable plan: per-site remote subqueries (shipped through
// gateways), integration combine steps, and a residual query evaluated
// at the federation.
//
// Two strategies are provided, mirroring the paper's status in 1994:
//
//   - Simple: the implemented strategy — fetch every referenced export
//     relation essentially whole (all mapped columns, no predicate
//     pushdown) and evaluate the entire query at the federation.
//   - CostBased: the "full-fledged query optimization ... currently
//     being developed" — projection pruning, selection pushdown through
//     the integration mappings, statistics-driven join ordering, LIMIT
//     pushdown, and semijoin reduction for cross-site joins.
package planner

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"myriad/internal/catalog"
	"myriad/internal/integration"
	"myriad/internal/schema"
	"myriad/internal/sqlparser"
	"myriad/internal/storage"
	"myriad/internal/value"
)

// Strategy selects the optimizer.
type Strategy uint8

// Optimizer strategies.
const (
	Simple Strategy = iota
	CostBased
)

// String names the strategy.
func (s Strategy) String() string {
	if s == CostBased {
		return "cost-based"
	}
	return "simple"
}

// StatsProvider supplies per-export statistics; implementations may
// cache. ok=false degrades estimates to defaults.
type StatsProvider interface {
	Stats(ctx context.Context, site, export string) (*storage.TableStats, bool)
}

// NoStats is a StatsProvider with no information.
type NoStats struct{}

// Stats always reports no statistics.
func (NoStats) Stats(context.Context, string, string) (*storage.TableStats, bool) {
	return nil, false
}

// RemoteScan is one subquery shipped to one site's gateway.
type RemoteScan struct {
	Site   string
	Select *sqlparser.Select // canonical SQL over the site's export relations
	// SemiProbe, when the owning ScanSet participates as a semijoin
	// probe, is the translated probe expression (in export terms) to
	// which the executor attaches the IN-list.
	SemiProbe sqlparser.Expr
	EstRows   float64
	// Pruned, when non-empty, records why source selection dropped this
	// scan: the catalog/cached statistics prove the fragment cannot
	// contribute rows (empty fragment, or a pushed conjunct disjoint
	// with the column's [min, max]). The executor substitutes an empty
	// fragment instead of contacting the site.
	Pruned string

	// stats is the fragment's statistics for this execution (nil when
	// none), pulled once when the scan is made.
	stats *storage.TableStats
}

// SQL renders the scan's canonical SQL.
func (r *RemoteScan) SQL() string { return sqlparser.FormatStatement(r.Select, nil) }

// ProbeSQL renders the scan's subquery with a bind join's IN-list
// ANDed onto its WHERE as SemiProbe IN (inList...); with no list, or
// when the scan is no probe, it is SQL.
func (r *RemoteScan) ProbeSQL(inList []sqlparser.Expr) string {
	sel := r.Select
	if len(inList) > 0 && r.SemiProbe != nil {
		probe := &sqlparser.InExpr{E: r.SemiProbe, List: inList}
		reduced := *sel
		if reduced.Where == nil {
			reduced.Where = probe
		} else {
			reduced.Where = &sqlparser.BinaryExpr{Op: "AND", L: reduced.Where, R: probe}
		}
		sel = &reduced
	}
	return sqlparser.FormatStatement(sel, nil)
}

// ScanSet materializes one integrated-relation reference of the query.
type ScanSet struct {
	Alias     string // effective name in the query
	TempTable string // relation name the residual reads the scan set by
	Schema    *schema.Schema
	Def       *catalog.IntegratedDef
	Scans     []*RemoteScan
	Spec      *integration.Spec

	// Bind join: when SemiFrom is non-empty the executor drains that scan
	// set first, collects the distinct values of SemiBuildCol, and ships
	// the probe subqueries once per MaxInList-sized batch of them, each
	// batch ANDed onto the scans' SemiProbe expression as an IN-list
	// (the batches partition the keys, so per-batch combining is exact).
	// BindMaxKeys is the break-even key count (see bindCap): a build
	// with more distinct keys falls back to shipping the fragments
	// whole.
	SemiFrom     string
	SemiBuildCol string
	BindMaxKeys  int
	// EstKeys is the planner's distinct-key estimate for the build side
	// (EXPLAIN only; the executor decides on the exact count).
	EstKeys float64

	// ScanOrdering, when non-nil, declares that every source scan
	// streams its fragment already sorted on these keys (indexes into
	// Schema.Columns) — set when the LIMIT/ORDER BY pushdown ships the
	// same translated ORDER BY to every source. The executor may then
	// k-way merge the sources into a globally sorted stream instead of
	// re-sorting at the federation.
	ScanOrdering []schema.SortKey

	EstRows float64
}

// Plan is an executable global query plan.
type Plan struct {
	Strategy Strategy
	ScanSets []*ScanSet
	// Residual is the query remaining after remote scans, phrased over
	// the temp tables (aliases preserved).
	Residual *sqlparser.Select
	// MaxInList bounds one shipped IN-list — the bind join's batch size
	// (0 = default 1000).
	MaxInList int
}

// Describe renders a human-readable plan (myriadctl EXPLAIN).
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy: %s\n", p.Strategy)
	for _, ss := range p.ScanSets {
		fmt.Fprintf(&b, "scan-set %s (%s, est %.0f rows)", ss.Alias, ss.Def.Name, ss.EstRows)
		if ss.SemiFrom != "" {
			fmt.Fprintf(&b, " [bind-join probe of %s on %s if ≤ %d keys, est ~%.0f]",
				ss.SemiFrom, ss.SemiBuildCol, ss.BindMaxKeys, ss.EstKeys)
		}
		b.WriteByte('\n')
		for _, sc := range ss.Scans {
			if sc.Pruned != "" {
				fmt.Fprintf(&b, "  @%s: pruned (%s)\n", sc.Site, sc.Pruned)
				continue
			}
			fmt.Fprintf(&b, "  @%s: %s (est %.0f)\n", sc.Site, sc.SQL(), sc.EstRows)
		}
	}
	fmt.Fprintf(&b, "residual: %s\n", sqlparser.FormatStatement(p.Residual, nil))
	return b.String()
}

// Planner builds plans against one federation catalog.
type Planner struct {
	Catalog *catalog.Catalog
	Stats   StatsProvider
	// BindMaxKeys is the largest distinct-key set a bind join may ship;
	// beyond it the join falls back to whole fragments (default 100000
	// keys).
	BindMaxKeys float64
	// SemiMinRatio is the minimum probe rows per shipped key for a bind
	// join to pay at all (default 4).
	SemiMinRatio float64
}

// New returns a planner over cat using stats (NoStats{} if nil).
func New(cat *catalog.Catalog, stats StatsProvider) *Planner {
	if stats == nil {
		stats = NoStats{}
	}
	return &Planner{Catalog: cat, Stats: stats, BindMaxKeys: 100000, SemiMinRatio: 4}
}

// Template is the part of planning one SELECT that reads no literal
// and no statistic: relation and alias resolution, the columns each
// reference needs, and each scan set's skeleton (schema, integration
// spec, and per source the mapped select items and Filter). It is
// immutable once built, so one Template serves concurrent executions of
// a statement shape (see sqlparser.Shape); Instantiate redoes all the
// rest per execution.
type Template struct {
	sel      *sqlparser.Select // ? slots unbound
	branches []*branchTemplate // one per planned UNION branch, in chain order
}

// branchTemplate is one UNION branch: a scan-set skeleton per FROM,
// then per JOIN reference, in query order.
type branchTemplate struct {
	sets []*setTemplate
}

// setTemplate is one scan set's skeleton.
type setTemplate struct {
	alias, temp string
	def         *catalog.IntegratedDef
	schema      *schema.Schema
	spec        *integration.Spec
	scans       []*sqlparser.Select // per source: mapped items, Filter as WHERE
}

// Plan compiles a parsed global SELECT: Instantiate(Prepare(sel)).
func (p *Planner) Plan(ctx context.Context, sel *sqlparser.Select, strategy Strategy) (*Plan, error) {
	t, err := p.Prepare(sel)
	if err != nil {
		return nil, err
	}
	return p.Instantiate(ctx, t, nil, strategy)
}

// Prepare builds the Template of sel, which may hold ? slots
// (sqlparser.Param). The template keeps the catalog definitions it
// resolved, so a cache of templates must be keyed by the catalog's
// Version.
func (p *Planner) Prepare(sel *sqlparser.Select) (*Template, error) {
	t := &Template{sel: sel}
	for branch, s := 0, sel; s != nil; branch++ {
		bt, err := p.prepareBranch(s, branch)
		if err != nil {
			return nil, err
		}
		t.branches = append(t.branches, bt)
		if len(bt.sets) == 0 || s.Compound == nil {
			break // a table-free branch is evaluated whole by the residual
		}
		s = s.Compound.Right
	}
	return t, nil
}

// Instantiate plans one execution of t: it binds args into the
// template's slots, then derives everything that reads a literal or a
// statistic — estimates and, under CostBased, the pushed selections,
// source pruning, aggregate and LIMIT pushdown, the bind-join choice and
// the join order.
func (p *Planner) Instantiate(ctx context.Context, t *Template, args []value.Value, strategy Strategy) (*Plan, error) {
	bound, err := sqlparser.Bind(t.sel, args)
	if err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}
	sel := bound.(*sqlparser.Select)
	plan := &Plan{Strategy: strategy, MaxInList: 1000}
	residual, err := p.planSelect(ctx, sel, t.branches, strategy, plan, 0, false)
	if err != nil {
		return nil, err
	}
	plan.Residual = residual
	return plan, nil
}

// prepareBranch resolves one UNION branch's references and builds
// their scan-set skeletons.
func (p *Planner) prepareBranch(sel *sqlparser.Select, branch int) (*branchTemplate, error) {
	refs := make([]sqlparser.TableRef, 0, len(sel.From)+len(sel.Joins))
	refs = append(refs, sel.From...)
	for _, j := range sel.Joins {
		refs = append(refs, j.Table)
	}
	bt := &branchTemplate{}
	if len(refs) == 0 {
		return bt, nil
	}
	defs := make([]*catalog.IntegratedDef, len(refs))
	aliasDef := make(map[string]*catalog.IntegratedDef, len(refs))
	for i, r := range refs {
		def, ok := p.Catalog.Integrated(r.Name)
		if !ok {
			return nil, fmt.Errorf("planner: no integrated relation %q in federation %s", r.Name, p.Catalog.Federation())
		}
		alias := strings.ToLower(r.EffectiveName())
		if _, dup := aliasDef[alias]; dup {
			return nil, fmt.Errorf("planner: duplicate relation alias %q", r.EffectiveName())
		}
		defs[i], aliasDef[alias] = def, def
	}
	needed, err := neededColumns(sel, aliasDef)
	if err != nil {
		return nil, err
	}
	for i, r := range refs {
		alias := r.EffectiveName()
		st, err := buildScanSet(defs[i], alias, needed[strings.ToLower(alias)], fmt.Sprintf("t%d_%d_%s", branch, i, strings.ToLower(alias)))
		if err != nil {
			return nil, err
		}
		bt.sets = append(bt.sets, st)
	}
	return bt, nil
}

// planSelect plans one branch (and its UNION continuations) of the
// bound statement against its template branches.
// unionDistinct reports whether any set operation earlier in the chain
// was a deduplicating UNION, in which case the combined result is
// deduped before the union-wide LIMIT applies.
func (p *Planner) planSelect(ctx context.Context, sel *sqlparser.Select, branches []*branchTemplate, strategy Strategy, plan *Plan, branch int, unionDistinct bool) (*sqlparser.Select, error) {
	out := *sel
	// Copy the slices the planner rewrites so the caller's AST survives.
	out.From = append([]sqlparser.TableRef{}, sel.From...)
	out.Joins = append([]sqlparser.Join{}, sel.Joins...)

	bt := branches[branch]
	if len(bt.sets) == 0 {
		// Table-free SELECT: residual evaluates it directly.
		return &out, nil
	}
	sets := make(map[string]*ScanSet, len(bt.sets))
	for _, st := range bt.sets {
		ss := p.instantiateSet(ctx, st)
		plan.ScanSets = append(plan.ScanSets, ss)
		sets[strings.ToLower(st.alias)] = ss
	}

	if strategy == CostBased {
		p.pushSelections(sel, sets)
		// Partial aggregation subsumes the remaining rewrites when it
		// applies: the residual it returns already reads the temp
		// table of per-site partial aggregates.
		if residual, ok := p.pushAggregates(sel, sets); ok {
			return residual, nil
		}
		// Source selection runs only on non-aggregate-pushed plans: a
		// pruned source under partial aggregation would drop its
		// zero-count partial row, which is not the same as contributing
		// nothing (SUM over no partials is NULL, not 0).
		pruneSources(sets)
		if nl := p.pushLimit(sel, sets, branch > 0, unionDistinct); nl != nil {
			out.Limit = nl
		}
		p.chooseSemijoin(sel, sets)
		reorderJoins(&out, sets)
	}

	// Rewrite FROM/JOIN to the temp tables.
	for i := range out.From {
		ss := sets[strings.ToLower(out.From[i].EffectiveName())]
		out.From[i] = sqlparser.TableRef{Name: ss.TempTable, Alias: ss.Alias}
	}
	for i := range out.Joins {
		ss := sets[strings.ToLower(out.Joins[i].Table.EffectiveName())]
		out.Joins[i].Table = sqlparser.TableRef{Name: ss.TempTable, Alias: ss.Alias}
	}

	if sel.Compound != nil {
		right, err := p.planSelect(ctx, sel.Compound.Right, branches, strategy, plan, branch+1, unionDistinct || !sel.Compound.All)
		if err != nil {
			return nil, err
		}
		out.Compound = &sqlparser.CompoundSelect{All: sel.Compound.All, Right: right}
	}
	return &out, nil
}

// neededColumns computes, per alias, which integrated columns the query
// references (plus merge keys). A star pulls in every column.
func neededColumns(sel *sqlparser.Select, aliasDef map[string]*catalog.IntegratedDef) (map[string][]string, error) {
	need := make(map[string]map[string]bool, len(aliasDef))
	for a := range aliasDef {
		need[a] = make(map[string]bool)
	}
	addAll := func(alias string) {
		for _, c := range aliasDef[alias].Columns {
			need[alias][strings.ToLower(c.Name)] = true
		}
	}
	addCol := func(table, col string) error {
		if table != "" {
			a := strings.ToLower(table)
			def, ok := aliasDef[a]
			if !ok {
				return fmt.Errorf("planner: unknown relation %q", table)
			}
			if def.ColIndex(col) < 0 {
				return fmt.Errorf("planner: relation %s has no column %q", table, col)
			}
			need[a][strings.ToLower(col)] = true
			return nil
		}
		owner := ""
		for a, def := range aliasDef {
			if def.ColIndex(col) >= 0 {
				if owner != "" {
					return fmt.Errorf("planner: ambiguous column %q", col)
				}
				owner = a
			}
		}
		if owner == "" {
			return fmt.Errorf("planner: unknown column %q", col)
		}
		need[owner][strings.ToLower(col)] = true
		return nil
	}
	var addExpr func(e sqlparser.Expr) error
	addExpr = func(e sqlparser.Expr) error {
		var werr error
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			if cr, ok := x.(*sqlparser.ColumnRef); ok {
				if err := addCol(cr.Table, cr.Column); err != nil && werr == nil {
					werr = err
				}
			}
			return true
		})
		return werr
	}
	// ORDER BY may reference select-item aliases or, in UNION queries,
	// the union's output columns; those resolve only in the residual, so
	// unknown columns are skipped rather than rejected here.
	addExprLenient := func(e sqlparser.Expr) {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			if cr, ok := x.(*sqlparser.ColumnRef); ok {
				addCol(cr.Table, cr.Column) //nolint:errcheck
			}
			return true
		})
	}

	for _, it := range sel.Items {
		switch {
		case it.Star && it.Table == "":
			for a := range aliasDef {
				addAll(a)
			}
		case it.Star:
			a := strings.ToLower(it.Table)
			if _, ok := aliasDef[a]; !ok {
				return nil, fmt.Errorf("planner: unknown relation %q in star", it.Table)
			}
			addAll(a)
		default:
			if err := addExpr(it.Expr); err != nil {
				return nil, err
			}
		}
	}
	if err := addExpr(sel.Where); err != nil {
		return nil, err
	}
	for _, j := range sel.Joins {
		if err := addExpr(j.On); err != nil {
			return nil, err
		}
	}
	for _, g := range sel.GroupBy {
		if err := addExpr(g); err != nil {
			return nil, err
		}
	}
	if err := addExpr(sel.Having); err != nil {
		return nil, err
	}
	for _, o := range sel.OrderBy {
		addExprLenient(o.Expr)
	}

	out := make(map[string][]string, len(need))
	for a, cols := range need {
		def := aliasDef[a]
		// Merge keys are always needed for correct integration.
		for _, k := range def.Key {
			cols[strings.ToLower(k)] = true
		}
		// Keep integrated-definition order for determinism.
		var ordered []string
		for _, c := range def.Columns {
			if cols[strings.ToLower(c.Name)] {
				ordered = append(ordered, c.Name)
			}
		}
		if len(ordered) == 0 && len(def.Columns) > 0 {
			// e.g. SELECT COUNT(*): any column will do; prefer the key.
			if len(def.Key) > 0 {
				ordered = append(ordered, def.Key...)
			} else {
				ordered = append(ordered, def.Columns[0].Name)
			}
		}
		out[a] = ordered
	}
	return out, nil
}

// buildScanSet constructs the skeleton of one integrated relation
// reference projected to cols: per source, each temp column is either
// the mapped expression (aliased to the integrated name) or a NULL
// literal, so all sources align positionally, under the source Filter.
func buildScanSet(def *catalog.IntegratedDef, alias string, cols []string, temp string) (*setTemplate, error) {
	sc := &schema.Schema{Table: temp}
	for _, c := range cols {
		ci := def.ColIndex(c)
		sc.Columns = append(sc.Columns, schema.Column{Name: def.Columns[ci].Name, Type: def.Columns[ci].Type})
	}
	spec := &integration.Spec{Kind: def.Combine, Columns: make([]string, len(sc.Columns))}
	for i, c := range sc.Columns {
		spec.Columns[i] = c.Name
	}
	for _, k := range def.Key {
		for i, c := range sc.Columns {
			if strings.EqualFold(c.Name, k) {
				spec.KeyCols = append(spec.KeyCols, i)
			}
		}
	}
	if len(def.Resolvers) > 0 {
		spec.Resolvers = make(map[int]integration.Func)
		for col, fname := range def.Resolvers {
			fn, ok := integration.Lookup(fname)
			if !ok {
				return nil, fmt.Errorf("planner: unknown integration function %q", fname)
			}
			for i, c := range sc.Columns {
				if strings.EqualFold(c.Name, col) {
					spec.Resolvers[i] = fn
				}
			}
		}
	}

	st := &setTemplate{alias: alias, temp: temp, def: def, schema: sc, spec: spec}
	for i := range def.Sources {
		src := &def.Sources[i]
		sel := &sqlparser.Select{From: []sqlparser.TableRef{{Name: src.Export}}, Where: src.FilterExpr()}
		for _, c := range sc.Columns {
			e, ok := src.Mapped(c.Name)
			if !ok {
				e = &sqlparser.Literal{Val: value.Null()}
			}
			sel.Items = append(sel.Items, sqlparser.SelectItem{Expr: e, As: c.Name})
		}
		st.scans = append(st.scans, sel)
	}
	return st, nil
}

// instantiateSet makes one execution's scan set from its skeleton,
// estimating each source's rows from its statistics. Each scan gets its
// own copy of the skeleton's Select, which the cost-based rewrites
// extend; the skeleton's items and filter are shared and never
// modified.
func (p *Planner) instantiateSet(ctx context.Context, st *setTemplate) *ScanSet {
	ss := &ScanSet{Alias: st.alias, TempTable: st.temp, Schema: st.schema, Def: st.def, Spec: st.spec,
		Scans: make([]*RemoteScan, 0, len(st.scans))}
	for i := range st.def.Sources {
		src := &st.def.Sources[i]
		sel := *st.scans[i]
		scan := &RemoteScan{Site: src.Site, Select: &sel, EstRows: 1000}
		if ts, ok := p.sourceStats(ctx, src.Site, src.Export); ok {
			scan.stats = ts
			scan.EstRows = float64(ts.Rows)
			if f := src.FilterExpr(); f != nil {
				scan.EstRows *= estimateSelectivity(f, ts)
			}
		}
		ss.Scans = append(ss.Scans, scan)
		ss.EstRows += scan.EstRows
	}
	if st.def.Combine != integration.UnionAll && ss.EstRows > 1 {
		// Dedup/merge reduces cardinality; assume mild overlap.
		ss.EstRows *= 0.75
	}
	return ss
}

// sourceStats resolves statistics for one export fragment: per-site
// fragment stats registered in the catalog win over the (possibly
// staler) StatsProvider cache.
func (p *Planner) sourceStats(ctx context.Context, site, export string) (*storage.TableStats, bool) {
	if p.Catalog != nil {
		if ts, ok := p.Catalog.FragmentStats(site, export); ok {
			return ts, true
		}
	}
	return p.Stats.Stats(ctx, site, export)
}

// ---------------------------------------------------------------------
// Cost-based rewrites

// pushSelections pushes WHERE conjuncts referencing a single alias into
// that alias's source scans when the combine semantics allow it. The
// residual keeps every conjunct (filters are idempotent), so partial
// pushes stay correct.
func (p *Planner) pushSelections(sel *sqlparser.Select, sets map[string]*ScanSet) {
	for _, conj := range sqlparser.SplitConjuncts(sel.Where) {
		alias, ok := singleAlias(conj, sets)
		if !ok {
			continue
		}
		ss := sets[alias]
		if ss.Def.Combine == integration.MergeOuter && !onlyKeyColumns(conj, ss.Def) {
			continue // non-key predicates are resolved post-merge
		}
		for i, src := range ss.Def.Sources {
			translated, ok := translateExpr(conj, &src, ss.Alias)
			if !ok {
				continue // source lacks a mapping: filter in residual
			}
			scan := ss.Scans[i]
			if scan.Select.Where == nil {
				scan.Select.Where = translated
			} else {
				scan.Select.Where = &sqlparser.BinaryExpr{Op: "AND", L: scan.Select.Where, R: translated}
			}
			if scan.stats != nil {
				scan.EstRows *= estimateSelectivity(translated, scan.stats)
			} else {
				scan.EstRows *= 0.25
			}
		}
		ss.EstRows = 0
		for _, scan := range ss.Scans {
			ss.EstRows += scan.EstRows
		}
	}
}

// pruneSources drops source scans the statistics prove empty for this
// query: a fragment with zero rows, or one whose scan-level WHERE (the
// source Filter plus pushed-down selections, already in export terms)
// contains a conjunct disjoint with the column's [min, max] or over an
// all-NULL column. Pruned scans stay in ss.Scans — index-parallel with
// Def.Sources — marked with the reason; the executor substitutes an
// empty fragment instead of contacting the site.
//
// Pruning makes cached statistics correctness-bearing: the stats must
// cover every row a reader may see, or a pruned fragment silently
// drops rows. core wires each finished global transaction's write set
// to invalidate exactly the exports it wrote (a whole site when the
// target is unknown or the transaction was replayed from the log);
// writes the coordinator never saw must call
// Federation.InvalidateStats (see internal/planner/README.md).
func pruneSources(sets map[string]*ScanSet) {
	for _, ss := range sets {
		changed := false
		for _, scan := range ss.Scans {
			if scan.Pruned != "" || scan.stats == nil {
				continue
			}
			if reason := proveEmpty(scan.Select.Where, scan.stats); reason != "" {
				scan.Pruned = reason
				scan.EstRows = 0
				changed = true
			}
		}
		if changed {
			ss.EstRows = 0
			for _, scan := range ss.Scans {
				ss.EstRows += scan.EstRows
			}
		}
	}
}

// proveEmpty returns a non-empty reason when the statistics prove no
// fragment row can satisfy where. Conservative: only plain
// column-vs-literal comparisons (and BETWEEN) over columns with usable
// stats are judged; everything else contributes nothing.
func proveEmpty(where sqlparser.Expr, ts *storage.TableStats) string {
	if ts.Rows == 0 {
		return "empty fragment"
	}
	for _, conj := range sqlparser.SplitConjuncts(where) {
		switch x := conj.(type) {
		case *sqlparser.BinaryExpr:
			op := x.Op
			switch op {
			case "=", "<", "<=", ">", ">=":
			default:
				continue
			}
			col, lit, ok := columnLiteral(x)
			if !ok || lit.IsNull() {
				continue
			}
			// columnLiteral loses sidedness; "lit op col" flips the op.
			if _, litLeft := x.L.(*sqlparser.Literal); litLeft {
				op = flipCompareOp(op)
			}
			cs, found := ts.Col(col)
			if !found {
				continue
			}
			if cs.Nulls == ts.Rows {
				return fmt.Sprintf("%s is all NULL", col)
			}
			if cs.Min.IsNull() || cs.Max.IsNull() {
				continue
			}
			cmpMin, ok1 := value.Compare(lit, cs.Min)
			cmpMax, ok2 := value.Compare(lit, cs.Max)
			if !ok1 || !ok2 {
				continue
			}
			disjoint := false
			switch op {
			case "=":
				disjoint = cmpMin < 0 || cmpMax > 0
			case "<":
				disjoint = cmpMin <= 0
			case "<=":
				disjoint = cmpMin < 0
			case ">":
				disjoint = cmpMax >= 0
			case ">=":
				disjoint = cmpMax > 0
			}
			if disjoint {
				return col + " " + op + " " + lit.Text() + " disjoint with [" + cs.Min.Text() + ", " + cs.Max.Text() + "]"
			}
		case *sqlparser.BetweenExpr:
			if x.Not {
				continue
			}
			cr, isCol := x.E.(*sqlparser.ColumnRef)
			lo, loLit := x.Lo.(*sqlparser.Literal)
			hi, hiLit := x.Hi.(*sqlparser.Literal)
			if !isCol || !loLit || !hiLit || lo.Val.IsNull() || hi.Val.IsNull() {
				continue
			}
			cs, found := ts.Col(cr.Column)
			if !found {
				continue
			}
			if cs.Nulls == ts.Rows {
				return fmt.Sprintf("%s is all NULL", cr.Column)
			}
			if cs.Min.IsNull() || cs.Max.IsNull() {
				continue
			}
			cmpHiMin, ok1 := value.Compare(hi.Val, cs.Min)
			cmpLoMax, ok2 := value.Compare(lo.Val, cs.Max)
			if !ok1 || !ok2 {
				continue
			}
			if cmpHiMin < 0 || cmpLoMax > 0 {
				return fmt.Sprintf("%s BETWEEN %s AND %s disjoint with [%s, %s]",
					cr.Column, lo.Val.Text(), hi.Val.Text(), cs.Min.Text(), cs.Max.Text())
			}
		}
	}
	return ""
}

// flipCompareOp mirrors a comparison across its operands.
func flipCompareOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// pushLimit pushes LIMIT into single-relation, group-free UNION ALL
// queries: each source needs only offset+count rows. With an ORDER BY
// whose keys translate at every source this becomes top-K pushdown —
// each site returns its own top (offset+count) candidates and the
// residual re-sorts the merged candidate set.
//
// A single-site subquery (one source) goes further: the one fragment
// is exactly the pre-residual row set, so the full LIMIT/OFFSET ships
// to the site — the component engine's top-K executor retains only
// offset+count rows and only count rows cross the wire. The returned
// LimitClause, when non-nil, replaces the residual's limit (the offset
// was already consumed at the site).
//
// unionBranch marks a UNION continuation (branch > 0): the final
// branch carries the ORDER BY/LIMIT of the whole union, so the exact
// single-site variant must not consume the offset against one
// fragment; only the widened over-fetch is safe there. And when any
// set operation in the chain deduplicates (unionDistinct), no
// pushdown is safe at all: the residual dedupes the merged rows
// before applying the union-wide LIMIT, so rows cut by a per-source
// over-fetch could have survived dedup.
func (p *Planner) pushLimit(sel *sqlparser.Select, sets map[string]*ScanSet, unionBranch, unionDistinct bool) *sqlparser.LimitClause {
	if sel.Limit == nil || sel.Limit.Count < 0 || len(sets) != 1 {
		return nil
	}
	// An absurd bound whose count+offset overflows buys nothing at a
	// site and would wrap the over-fetch arithmetic below; leave the
	// limit to the residual (mirrors the top-K guard in localdb).
	if sel.Limit.Count > math.MaxInt32-sel.Limit.Offset {
		return nil
	}
	if unionBranch && unionDistinct {
		return nil
	}
	if len(sel.GroupBy) > 0 || sel.Having != nil || sel.Distinct || sel.Compound != nil {
		return nil
	}
	// LIMIT below an aggregate would truncate its input.
	for _, it := range sel.Items {
		if it.Expr != nil && sqlparser.HasAggregate(it.Expr) {
			return nil
		}
	}
	for _, ss := range sets {
		if ss.Def.Combine != integration.UnionAll {
			return nil
		}
		// Only safe when every WHERE conjunct is pushable at every
		// source; a per-source Filter also populates scan WHEREs, so
		// re-verify translation rather than trusting non-nil WHERE.
		for _, conj := range sqlparser.SplitConjuncts(sel.Where) {
			alias, ok := singleAlias(conj, sets)
			if !ok || !strings.EqualFold(alias, strings.ToLower(ss.Alias)) {
				return nil
			}
			for i := range ss.Def.Sources {
				if _, ok := translateExpr(conj, &ss.Def.Sources[i], ss.Alias); !ok {
					return nil
				}
			}
		}
		// Translate ORDER BY keys per source; any failure disables the
		// pushdown entirely (the per-source top-K would be wrong).
		perSource := make([][]sqlparser.OrderItem, len(ss.Scans))
		if len(sel.OrderBy) > 0 {
			for i := range ss.Def.Sources {
				for _, o := range sel.OrderBy {
					te, ok := translateExpr(o.Expr, &ss.Def.Sources[i], ss.Alias)
					if !ok || !p.sortsAlike(o.Expr, ss, i) {
						return nil
					}
					perSource[i] = append(perSource[i], sqlparser.OrderItem{Expr: te, Desc: o.Desc})
				}
			}
		}
		if len(ss.Scans) == 1 && !unionBranch {
			// Single-site: ship the exact LIMIT/OFFSET; the residual
			// keeps the count (re-sorting at most count rows) but must
			// not re-apply the offset.
			scan := ss.Scans[0]
			scan.Select.OrderBy = perSource[0]
			scan.Select.Limit = &sqlparser.LimitClause{Count: sel.Limit.Count, Offset: sel.Limit.Offset}
			if scan.EstRows > float64(sel.Limit.Count) {
				scan.EstRows = float64(sel.Limit.Count)
			}
			ss.EstRows = scan.EstRows
			ss.ScanOrdering = scanOrdering(sel.OrderBy, ss)
			return &sqlparser.LimitClause{Count: sel.Limit.Count}
		}
		n := sel.Limit.Count + sel.Limit.Offset
		for i, scan := range ss.Scans {
			scan.Select.OrderBy = perSource[i]
			scan.Select.Limit = &sqlparser.LimitClause{Count: n}
			if scan.EstRows > float64(n) {
				scan.EstRows = float64(n)
			}
		}
		ss.ScanOrdering = scanOrdering(sel.OrderBy, ss)
	}
	return nil
}

// sortsAlike reports whether source i of ss orders rows by the ORDER BY
// key e exactly as the coordinator would order the integrated rows: it
// maps every column e reads to a plain export column of the integrated
// column's type, so the site evaluates e over the very values the
// coordinator's rows hold once coerced. Anything else can order the
// site's rows differently (TEXT '10' before '9' under INTEGER; FLOAT
// under INTEGER, where the site breaks ties the truncated values do
// not have), and a site that picks its top-K by another order hands
// the coordinator the wrong candidates. A bare literal is an ordinal:
// it names an item of the query's select list, which the scan's select
// list does not share.
func (p *Planner) sortsAlike(e sqlparser.Expr, ss *ScanSet, i int) bool {
	if _, ordinal := e.(*sqlparser.Literal); ordinal || p.Catalog == nil {
		return false
	}
	src := &ss.Def.Sources[i]
	export, ok := p.Catalog.ExportSchema(src.Site, src.Export)
	if !ok {
		return false
	}
	for _, cr := range sqlparser.ColumnsIn(e) {
		ci := ss.Def.ColIndex(cr.Column)
		m, _ := src.Mapped(cr.Column)
		mc, isCol := m.(*sqlparser.ColumnRef)
		if ci < 0 || !isCol {
			return false
		}
		if ei := export.ColIndex(mc.Column); ei < 0 || export.Columns[ei].Type != ss.Def.Columns[ci].Type {
			return false
		}
	}
	return true
}

// scanOrdering maps a pushed-down ORDER BY onto the scan set's schema
// columns. nil when any key is not a plain (optionally alias-qualified)
// column of the set — a merge fan-in can only compare columns it can
// see in the shipped rows.
func scanOrdering(orderBy []sqlparser.OrderItem, ss *ScanSet) []schema.SortKey {
	if len(orderBy) == 0 {
		return nil
	}
	keys := make([]schema.SortKey, 0, len(orderBy))
	for _, o := range orderBy {
		cr, ok := o.Expr.(*sqlparser.ColumnRef)
		if !ok {
			return nil
		}
		if cr.Table != "" && !strings.EqualFold(cr.Table, ss.Alias) {
			return nil
		}
		ci := -1
		for i, c := range ss.Schema.Columns {
			if strings.EqualFold(c.Name, cr.Column) {
				ci = i
				break
			}
		}
		if ci < 0 {
			return nil
		}
		keys = append(keys, schema.SortKey{Col: ci, Desc: o.Desc})
	}
	return keys
}

// chooseSemijoin nominates the first equi-join between two aliases
// that passes the bind join's gates: the smaller (driving) side's
// distinct keys are to be shipped into the bigger (probe) side's
// scans. The cost rule is the probe's break-even key count (bindCap),
// which the executor holds the build side's exact distinct keys to.
func (p *Planner) chooseSemijoin(sel *sqlparser.Select, sets map[string]*ScanSet) {
	conds := sqlparser.SplitConjuncts(sel.Where)
	for _, j := range sel.Joins {
		if j.Kind == sqlparser.JoinInner {
			conds = append(conds, sqlparser.SplitConjuncts(j.On)...)
		}
	}
	for _, c := range conds {
		bx, ok := c.(*sqlparser.BinaryExpr)
		if !ok || bx.Op != "=" {
			continue
		}
		lc, lok := bx.L.(*sqlparser.ColumnRef)
		rc, rok := bx.R.(*sqlparser.ColumnRef)
		if !lok || !rok {
			continue
		}
		la, lcol, ok1 := ownerOf(lc, sets)
		ra, rcol, ok2 := ownerOf(rc, sets)
		if !ok1 || !ok2 || la == ra {
			continue
		}
		small, big := sets[la], sets[ra]
		smallCol, bigCol := lcol, rcol
		if small.EstRows > big.EstRows {
			small, big = big, small
			smallCol, bigCol = bigCol, smallCol
		}
		// Shipped keys must compare on the probe site exactly as the
		// residual join would; mismatched type classes would lean on
		// per-site coercion semantics, so fall back to ship-all.
		if !comparableJoinCols(small.Def, smallCol, big.Def, bigCol) {
			continue
		}
		probes := liveScanCount(big)
		if probes == 0 {
			continue // every probe fragment pruned; nothing to reduce
		}
		limit := p.bindCap(big, bigCol, probes)
		if limit < 1 || small.EstRows > bindBuildSlack*float64(limit) {
			continue
		}
		// Probe-side pushdown must be semantically safe, like selections.
		if big.Def.Combine == integration.MergeOuter && !keyColumn(big.Def, bigCol) {
			continue
		}
		// Every probe source must map the probe column.
		probeExprs := make([]sqlparser.Expr, len(big.Def.Sources))
		allMapped := true
		for i := range big.Def.Sources {
			e, ok := big.Def.Sources[i].Mapped(bigCol)
			if !ok {
				allMapped = false
				break
			}
			probeExprs[i] = e
		}
		if !allMapped {
			continue
		}
		big.SemiFrom = small.Alias
		big.SemiBuildCol = smallCol
		big.BindMaxKeys = limit
		big.EstKeys = estimateKeys(small, smallCol)
		for i := range big.Scans {
			big.Scans[i].SemiProbe = probeExprs[i]
		}
		return // one semijoin per query keeps the executor's DAG simple
	}
}

// bindBuildSlack bounds how far over its probe's cap a build side may
// be estimated and still be nominated. Every nominated build drains
// into a spool before the residual reads a row, so a LIMIT no longer
// stops it early and a small budget sends it to disk; a build
// estimated at more than bindBuildSlack times the cap would need its
// rows overestimated that many times over for its keys to fit. The
// slack covers a two-valued column's one-half selectivity on a value
// a twentieth of the rows hold (about 10x).
const bindBuildSlack = 10

// bindCap is the bind-join cost rule: the largest distinct build-key
// count k for which shipping k keys into probe set ss beats shipping
// its fragments whole. With E the probe's estimated rows, the bind
// join ships k keys to each of the live probe scans and gets back the
// E·k/D rows matching them (D the probe column's estimated distinct
// values); ship-all moves all E. So k must satisfy both
// E ≥ k·SemiMinRatio and E ≥ k·probes + E·k/D, and stay under the
// planner's BindMaxKeys:
//
//	cap = ⌊min(E/SemiMinRatio, E/(probes + E/D), BindMaxKeys)⌋
//
// Both sides of each inequality are monotone in k, so the one number
// carries the whole rule, and the executor applies it to the exact key
// count of the spooled build side.
func (p *Planner) bindCap(ss *ScanSet, col string, probes int) int {
	maxKeys := p.BindMaxKeys
	if maxKeys <= 0 {
		maxKeys = 100000
	}
	e := ss.EstRows
	k := min(maxKeys, e/(float64(probes)+e/estimateKeys(ss, col)))
	if p.SemiMinRatio > 0 {
		k = min(k, e/p.SemiMinRatio)
	}
	return int(math.Floor(k))
}

// liveScanCount counts the scans source selection did not prune.
func liveScanCount(ss *ScanSet) int {
	n := 0
	for _, sc := range ss.Scans {
		if sc.Pruned == "" {
			n++
		}
	}
	return n
}

// comparableJoinCols reports whether two integrated join columns share
// a comparison class (ints and floats interchange; anything else must
// match exactly), i.e. a shipped IN-list of build keys filters the
// probe site exactly as the residual join predicate would.
func comparableJoinCols(a *catalog.IntegratedDef, acol string, b *catalog.IntegratedDef, bcol string) bool {
	ai, bi := a.ColIndex(acol), b.ColIndex(bcol)
	if ai < 0 || bi < 0 {
		return false
	}
	at, bt := a.Columns[ai].Type, b.Columns[bi].Type
	numeric := func(t schema.Type) bool { return t == schema.TInt || t == schema.TFloat }
	if numeric(at) && numeric(bt) {
		return true
	}
	return at == bt
}

// estimateKeys estimates the distinct values of integrated column col
// across ss's live scans: per scan, the column's distinct count capped
// by the scan's post-pushdown row estimate, summed (floored at 1).
func estimateKeys(ss *ScanSet, col string) float64 {
	total := 0.0
	for i := range ss.Def.Sources {
		src := &ss.Def.Sources[i]
		scan := ss.Scans[i]
		if scan.Pruned != "" {
			continue
		}
		d := scan.EstRows
		if e, ok := src.Mapped(col); ok && scan.stats != nil {
			if cr, isCol := e.(*sqlparser.ColumnRef); isCol {
				if cs, has := scan.stats.Col(cr.Column); has && cs.Distinct > 0 && float64(cs.Distinct) < d {
					d = float64(cs.Distinct)
				}
			}
		}
		total += d
	}
	if total < 1 {
		total = 1
	}
	return total
}

// reorderJoins rewrites all-inner join trees into a FROM list ordered by
// ascending estimated cardinality, folding ON conditions into WHERE; the
// local engine then hash-joins left to right.
func reorderJoins(sel *sqlparser.Select, sets map[string]*ScanSet) {
	if len(sel.Joins) == 0 {
		return
	}
	for _, j := range sel.Joins {
		if j.Kind != sqlparser.JoinInner {
			return
		}
	}
	refs := append([]sqlparser.TableRef{}, sel.From...)
	conds := []sqlparser.Expr{}
	for _, j := range sel.Joins {
		refs = append(refs, j.Table)
		conds = append(conds, sqlparser.SplitConjuncts(j.On)...)
	}
	sort.SliceStable(refs, func(a, b int) bool {
		sa, sb := sets[strings.ToLower(refs[a].EffectiveName())], sets[strings.ToLower(refs[b].EffectiveName())]
		if sa == nil || sb == nil {
			return false
		}
		return sa.EstRows < sb.EstRows
	})
	sel.From = refs
	sel.Joins = nil
	conds = append(conds, sqlparser.SplitConjuncts(sel.Where)...)
	sel.Where = sqlparser.JoinConjuncts(conds)
}

// ---------------------------------------------------------------------
// Helpers

// singleAlias reports the one alias an expression references (ok=false
// when zero or several, or when a column is unknown).
func singleAlias(e sqlparser.Expr, sets map[string]*ScanSet) (string, bool) {
	owner := ""
	ok := true
	for _, cr := range sqlparser.ColumnsIn(e) {
		a, _, found := ownerOf(cr, sets)
		if !found {
			ok = false
			break
		}
		if owner == "" {
			owner = a
		} else if owner != a {
			ok = false
			break
		}
	}
	return owner, ok && owner != ""
}

// ownerOf resolves a column reference to (alias, column).
func ownerOf(cr *sqlparser.ColumnRef, sets map[string]*ScanSet) (string, string, bool) {
	if cr.Table != "" {
		a := strings.ToLower(cr.Table)
		ss, ok := sets[a]
		if !ok || ss.Def.ColIndex(cr.Column) < 0 {
			return "", "", false
		}
		return a, cr.Column, true
	}
	owner := ""
	for a, ss := range sets {
		if ss.Def.ColIndex(cr.Column) >= 0 {
			if owner != "" {
				return "", "", false
			}
			owner = a
		}
	}
	if owner == "" {
		return "", "", false
	}
	return owner, cr.Column, true
}

// onlyKeyColumns reports whether e references only the integrated key.
func onlyKeyColumns(e sqlparser.Expr, def *catalog.IntegratedDef) bool {
	for _, cr := range sqlparser.ColumnsIn(e) {
		if !keyColumn(def, cr.Column) {
			return false
		}
	}
	return true
}

func keyColumn(def *catalog.IntegratedDef, col string) bool {
	for _, k := range def.Key {
		if strings.EqualFold(k, col) {
			return true
		}
	}
	return false
}

// translateExpr rewrites a predicate over integrated columns into one
// over the source export's columns via the ColumnMap; ok=false when some
// referenced column is unmapped.
func translateExpr(e sqlparser.Expr, src *catalog.SourceDef, alias string) (sqlparser.Expr, bool) {
	ok := true
	out := sqlparser.RewriteExpr(e, func(x sqlparser.Expr) sqlparser.Expr {
		cr, isCol := x.(*sqlparser.ColumnRef)
		if !isCol {
			return x
		}
		if cr.Table != "" && !strings.EqualFold(cr.Table, alias) {
			ok = false
			return x
		}
		mapped, found := src.Mapped(cr.Column)
		if !found {
			ok = false
			return x
		}
		return mapped
	})
	if !ok {
		return nil, false
	}
	return out, true
}

// estimateSelectivity is the classic System-R style rule set over
// per-column statistics.
func estimateSelectivity(e sqlparser.Expr, ts *storage.TableStats) float64 {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case "AND":
			return estimateSelectivity(x.L, ts) * estimateSelectivity(x.R, ts)
		case "OR":
			l, r := estimateSelectivity(x.L, ts), estimateSelectivity(x.R, ts)
			return l + r - l*r
		case "=":
			if col, ok := columnSide(x); ok {
				if cs, found := ts.Col(col); found && cs.Distinct > 0 {
					return 1 / float64(cs.Distinct)
				}
			}
			return 0.1
		case "<", "<=", ">", ">=":
			if col, lit, ok := columnLiteral(x); ok {
				if s, found := rangeSelectivity(col, lit, x.Op, ts); found {
					return s
				}
			}
			return 1.0 / 3
		case "<>":
			return 0.9
		case "LIKE":
			return 0.25
		}
	case *sqlparser.InExpr:
		if col, ok := x.E.(*sqlparser.ColumnRef); ok {
			if cs, found := ts.Col(col.Column); found && cs.Distinct > 0 {
				s := float64(len(x.List)) / float64(cs.Distinct)
				if s > 1 {
					s = 1
				}
				if x.Not {
					return 1 - s
				}
				return s
			}
		}
		return 0.2
	case *sqlparser.BetweenExpr:
		return 1.0 / 4
	case *sqlparser.IsNullExpr:
		if cr, ok := x.E.(*sqlparser.ColumnRef); ok {
			if cs, found := ts.Col(cr.Column); found && ts.Rows > 0 {
				s := float64(cs.Nulls) / float64(ts.Rows)
				if x.Not {
					return 1 - s
				}
				return s
			}
		}
		return 0.05
	case *sqlparser.UnaryExpr:
		if x.Op == "NOT" {
			return 1 - estimateSelectivity(x.E, ts)
		}
	}
	return 1.0 / 3
}

func columnSide(x *sqlparser.BinaryExpr) (string, bool) {
	if c, ok := x.L.(*sqlparser.ColumnRef); ok {
		return c.Column, true
	}
	if c, ok := x.R.(*sqlparser.ColumnRef); ok {
		return c.Column, true
	}
	return "", false
}

func columnLiteral(x *sqlparser.BinaryExpr) (string, value.Value, bool) {
	if c, ok := x.L.(*sqlparser.ColumnRef); ok {
		if l, ok := x.R.(*sqlparser.Literal); ok {
			return c.Column, l.Val, true
		}
	}
	if c, ok := x.R.(*sqlparser.ColumnRef); ok {
		if l, ok := x.L.(*sqlparser.Literal); ok {
			return c.Column, l.Val, true
		}
	}
	return "", value.Value{}, false
}

// rangeSelectivity interpolates within [min, max] for numeric columns.
func rangeSelectivity(col string, lit value.Value, op string, ts *storage.TableStats) (float64, bool) {
	cs, found := ts.Col(col)
	if !found || cs.Min.IsNull() || cs.Max.IsNull() {
		return 0, false
	}
	lo, ok1 := cs.Min.Float()
	hi, ok2 := cs.Max.Float()
	v, ok3 := lit.Float()
	if !ok1 || !ok2 || !ok3 || hi <= lo {
		return 0, false
	}
	frac := (v - lo) / (hi - lo)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	switch op {
	case "<", "<=":
		return frac, true
	default: // ">", ">="
		return 1 - frac, true
	}
}
