// Package gateway implements MYRIAD's local database gateways: the
// adapters that expose a component DBMS's export relations to the
// federation, translate canonical federation SQL into the component's
// dialect, enforce the per-query timeout the paper uses to resolve
// global deadlocks, and participate in two-phase commit.
//
// A gateway translates each statement shape once. sqlparser.Shape
// splits the SELECT text it receives — from a federation or any other
// client, one path for both — into a shape key (literals replaced by ?
// slots) and the literal values. A bounded cache (1,024 entries) keyed
// by (shape, export version) holds the translated statement and its
// dialect round trip (render, then re-parse), both with slots. Every
// execution binds its literals into its own copy of the round-tripped
// statement; the component engine compiles and plans that copy afresh,
// since its access path depends on the literals. DefineExport bumps the
// export version, so the next execution of every shape is translated
// against the new export. Gateway.ShapeCacheStats counts hits, misses
// and evictions.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"myriad/internal/comm"
	"myriad/internal/dialect"
	"myriad/internal/localdb"
	"myriad/internal/lockmgr"
	"myriad/internal/schema"
	"myriad/internal/sqlparser"
	"myriad/internal/storage"
	"myriad/internal/value"
)

// ErrTimeout is surfaced when a local query exceeds its timeout; the
// global transaction manager treats it as a presumed global deadlock.
var ErrTimeout = errors.New("gateway: local query timeout (presumed global deadlock)")

// ErrWounded is surfaced when a branch's lock wait was preempted as a
// deadlock victim — by the site-local wound-wait fast path or by the
// coordinator's global detector. The global transaction manager aborts
// the victim and reports a retryable error to the client.
var ErrWounded = errors.New("gateway: lock wait wounded (deadlock victim)")

// ExportColumn maps a federation-visible column to a local column.
type ExportColumn struct {
	Export string
	Local  string
}

// Export defines one export relation: a renamed projection (optionally
// row-filtered) of a local table offered to federations.
type Export struct {
	Name       string
	LocalTable string
	Columns    []ExportColumn
	// Predicate, when non-empty, is a canonical SQL expression over the
	// LOCAL column names limiting the exported rows. Exports with a
	// predicate are read-only through the gateway.
	Predicate string
}

// Gateway fronts one component DBMS.
type Gateway struct {
	site    string
	db      *localdb.DB
	dialect *dialect.Dialect

	// DefaultTimeout is attached to each local query that arrives
	// without an explicit timeout (paper §2). Zero disables it.
	DefaultTimeout time.Duration

	mu      sync.RWMutex
	exports map[string]*Export // by lower-cased export name
	// exportVersion counts DefineExport calls; it keys shapes, so a
	// translation never outlives the exports it was made against.
	exportVersion atomic.Uint64
	shapes        *sqlparser.ShapeCache[shapeKey, *selectTemplate]

	// Delay, when positive, is added before each local operation to
	// emulate component-DBMS latency in experiments.
	Delay time.Duration
}

// New creates a gateway for db speaking the given dialect.
func New(site string, db *localdb.DB, d *dialect.Dialect) *Gateway {
	if d == nil {
		d = dialect.Canonical()
	}
	return &Gateway{
		site:    site,
		db:      db,
		dialect: d,
		exports: make(map[string]*Export),
		shapes:  sqlparser.NewShapeCache[shapeKey, *selectTemplate](shapeCacheSize),
	}
}

// Site returns the component site name.
func (g *Gateway) Site() string { return g.site }

// Dialect returns the component dialect name.
func (g *Gateway) Dialect() string { return g.dialect.Name }

// DefineExport registers (or replaces) an export relation. Columns may
// be empty to export every local column under its own name.
func (g *Gateway) DefineExport(e Export) error {
	sc, err := g.db.TableSchema(e.LocalTable)
	if err != nil {
		return fmt.Errorf("gateway %s: export %s: %w", g.site, e.Name, err)
	}
	if e.Name == "" {
		return fmt.Errorf("gateway %s: export needs a name", g.site)
	}
	if len(e.Columns) == 0 {
		for _, c := range sc.Columns {
			e.Columns = append(e.Columns, ExportColumn{Export: c.Name, Local: c.Name})
		}
	}
	for _, c := range e.Columns {
		if sc.ColIndex(c.Local) < 0 {
			return fmt.Errorf("gateway %s: export %s: local column %q missing in %s", g.site, e.Name, c.Local, e.LocalTable)
		}
	}
	if e.Predicate != "" {
		if _, err := sqlparser.ParseExpr(e.Predicate); err != nil {
			return fmt.Errorf("gateway %s: export %s predicate: %w", g.site, e.Name, err)
		}
	}
	g.mu.Lock()
	g.exports[strings.ToLower(e.Name)] = &e
	g.exportVersion.Add(1)
	g.mu.Unlock()
	return nil
}

// export looks up an export definition.
func (g *Gateway) export(name string) (*Export, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.exports[strings.ToLower(name)]
	return e, ok
}

// ExportSchemas returns the federation-visible schema of every export.
func (g *Gateway) ExportSchemas() ([]*schema.Schema, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []*schema.Schema
	for _, e := range g.exports {
		sc, err := g.exportSchema(e)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

func (g *Gateway) exportSchema(e *Export) (*schema.Schema, error) {
	local, err := g.db.TableSchema(e.LocalTable)
	if err != nil {
		return nil, err
	}
	sc := &schema.Schema{Table: e.Name}
	localToExport := make(map[string]string)
	for _, c := range e.Columns {
		ci := local.ColIndex(c.Local)
		col := local.Columns[ci]
		sc.Columns = append(sc.Columns, schema.Column{Name: c.Export, Type: col.Type, NotNull: col.NotNull})
		localToExport[strings.ToLower(col.Name)] = c.Export
	}
	// The export inherits the local key when every key column is
	// exported.
	var key []string
	for _, k := range local.Key {
		ek, ok := localToExport[strings.ToLower(k)]
		if !ok {
			key = nil
			break
		}
		key = append(key, ek)
	}
	sc.Key = key
	return sc, nil
}

// Stats returns optimizer statistics for one export relation, with
// columns renamed to export names.
func (g *Gateway) Stats(name string) (*storage.TableStats, error) {
	e, ok := g.export(name)
	if !ok {
		return nil, fmt.Errorf("gateway %s: no export %q", g.site, name)
	}
	ts, err := g.db.TableStats(e.LocalTable)
	if err != nil {
		return nil, err
	}
	out := &storage.TableStats{Table: e.Name, Rows: ts.Rows}
	for _, c := range e.Columns {
		if cs, ok := ts.Col(c.Local); ok {
			cs.Name = c.Export
			out.Columns = append(out.Columns, cs)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Query / Exec with translation and timeout

func (g *Gateway) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, has := ctx.Deadline(); has || g.DefaultTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, g.DefaultTimeout)
}

func (g *Gateway) simulateLatency() {
	if g.Delay > 0 {
		time.Sleep(g.Delay)
	}
}

func mapErr(err error) error {
	if errors.Is(err, lockmgr.ErrWounded) {
		return fmt.Errorf("%w: %v", ErrWounded, err)
	}
	if errors.Is(err, lockmgr.ErrTimeout) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	return err
}

// shapeCacheSize bounds the gateway's translation cache, in statement
// shapes.
const shapeCacheSize = 1024

// shapeKey names one cached translation: the statement's shape (see
// sqlparser.Shape) and the export version it was translated against.
type shapeKey struct {
	shape   string
	version uint64
}

// selectTemplate is one shape's translation, ? slots unbound: the
// translated AST (for restoring federation-visible column names) and the
// dialect-round-tripped AST to bind and execute.
type selectTemplate struct {
	translated *sqlparser.Select
	native     *sqlparser.Select
}

// prepareSelect runs the gateway's query front half: parse the
// canonical SELECT, translate exports to local tables, and round-trip
// through the component dialect — render native SQL and re-parse,
// exactly what the 1994 gateways did over embedded SQL. That work reads
// no literal, so it runs once per statement shape: the result is cached
// with ? slots, and each execution binds its own literals into a fresh
// copy. It returns the translated AST (for restoring federation-visible
// column names; shared, read-only) and the bound AST to execute.
func (g *Gateway) prepareSelect(sql string) (translated, relSel *sqlparser.Select, err error) {
	shape, args, err := sqlparser.Shape(sql)
	if err != nil {
		return nil, nil, fmt.Errorf("gateway %s: %w", g.site, err)
	}
	t, err := g.shapes.Get(shapeKey{shape, g.exportVersion.Load()}, func() (*selectTemplate, error) {
		return g.translateShape(shape, sql)
	})
	if err != nil {
		return nil, nil, err
	}
	bound, err := sqlparser.Bind(t.native, args)
	if err != nil {
		return nil, nil, fmt.Errorf("gateway %s: %w", g.site, err)
	}
	return t.translated, bound.(*sqlparser.Select), nil
}

// translateShape parses, translates and dialect-round-trips one shape.
// The dialect text carries the slots as ?, in the order translation
// keeps them, so the re-parse numbers them as the shape does.
func (g *Gateway) translateShape(shape, sql string) (*selectTemplate, error) {
	stmt, err := sqlparser.ParseShape(shape, sql)
	if err != nil {
		return nil, fmt.Errorf("gateway %s: %w", g.site, err)
	}
	sel, ok := stmt.(*sqlparser.Select)
	if !ok {
		return nil, fmt.Errorf("gateway %s: Query requires SELECT", g.site)
	}
	translated, err := g.translateSelect(sel)
	if err != nil {
		return nil, err
	}
	reparsed, err := g.dialect.Parse(g.dialect.Render(translated))
	if err != nil {
		return nil, fmt.Errorf("gateway %s: dialect round-trip: %w", g.site, err)
	}
	native, ok := reparsed.(*sqlparser.Select)
	if !ok {
		return nil, fmt.Errorf("gateway %s: dialect round-trip changed statement kind", g.site)
	}
	return &selectTemplate{translated: translated, native: native}, nil
}

// ShapeCacheStats exposes the translation cache's live counters.
func (g *Gateway) ShapeCacheStats() *sqlparser.CacheStats { return g.shapes.Stats() }

// Explain renders the access path the component engine would choose
// for a canonical SELECT — per base relation: heap scan, hash-index
// probe, ordered-index range (with bounds and whether it serves the
// ORDER BY), or primary-key point read, each with its selectivity
// estimate. It plans only; no locks are taken and nothing executes.
func (g *Gateway) Explain(ctx context.Context, sql string) (string, error) {
	_, relSel, err := g.prepareSelect(sql)
	if err != nil {
		return "", err
	}
	out, err := g.db.ExplainSelect(relSel)
	if err != nil {
		return "", fmt.Errorf("gateway %s: %w", g.site, err)
	}
	return out, nil
}

// QueryStream executes a canonical SELECT over export relations — the
// gateway's only query entry point. Autocommit (txn 0) streams straight
// off the component engine's iterator pipeline: nothing materializes,
// so a LIMIT 10 over a 100k-row export ships 10 rows and the scan
// terminates when the stream closes. A statement inside a transaction
// branch (txn != 0) runs to completion under the branch — taking its
// locks before QueryStream returns — and streams the snapshot, because
// the branch interleaves with other requests and cannot stay pinned to
// an open cursor between them.
func (g *Gateway) QueryStream(ctx context.Context, txn uint64, sql string) (schema.RowStream, error) {
	sctx, cancel := g.withTimeout(ctx)
	g.simulateLatency()

	translated, relSel, err := g.prepareSelect(sql)
	if err != nil {
		cancel()
		return nil, err
	}

	if txn != 0 {
		defer cancel()
		branch, ok := g.db.Resume(lockmgr.TxnID(txn))
		if !ok {
			return nil, fmt.Errorf("gateway %s: unknown transaction %d", g.site, txn)
		}
		rs, err := branch.QueryStmt(sctx, relSel)
		if err != nil {
			return nil, mapErr(err)
		}
		restoreColumnNames(rs, translated)
		return schema.StreamOf(rs), nil
	}

	rows, err := g.db.QueryStreamStmt(sctx, relSel)
	if err != nil {
		cancel()
		return nil, mapErr(err)
	}
	// The dialect round trip may have re-cased identifiers; restore the
	// federation-requested output names from the translated AST.
	hdr := &schema.ResultSet{Columns: append([]string(nil), rows.Columns()...)}
	restoreColumnNames(hdr, translated)
	return &gatewayStream{rows: rows, cols: hdr.Columns, ctx: sctx, cancel: cancel}, nil
}

// gatewayStream wraps a localdb stream with the gateway's renamed
// headers, timeout context, and error mapping.
type gatewayStream struct {
	rows   *localdb.Rows
	cols   []string
	ctx    context.Context
	cancel context.CancelFunc
}

func (s *gatewayStream) Columns() []string { return s.cols }

// Next pulls through the stream's own context — derived from the
// creation context (so caller cancellation propagates) and carrying the
// gateway's per-query timeout, the paper's deadlock-resolution knob —
// but also honors the per-call ctx between rows, so a consumer-side
// abort (e.g. integration cancelling siblings after one source fails)
// stops an in-process scan exactly like it stops a remote one.
func (s *gatewayStream) Next(ctx context.Context) (schema.Row, error) {
	if err := schema.Canceled(ctx); err != nil {
		return nil, err
	}
	r, err := s.rows.Next(s.ctx)
	if err != nil {
		return nil, mapErr(err)
	}
	return r, nil
}

// appendRows encodes up to max rows straight into dst (see
// localdb.Rows.AppendRows), polling the per-call ctx once per call
// rather than once per row.
func (s *gatewayStream) appendRows(ctx context.Context, dst []byte, max int) ([]byte, int, error) {
	if err := schema.Canceled(ctx); err != nil {
		return dst, 0, err
	}
	dst, n, err := s.rows.AppendRows(s.ctx, dst, max)
	if err != nil {
		err = mapErr(err)
	}
	return dst, n, err
}

func (s *gatewayStream) Close() error {
	err := s.rows.Close()
	s.cancel()
	return err
}

// Ordering forwards the engine stream's sort guarantee. The gateway's
// header renaming keeps column positions, so the positional keys stay
// valid under the restored names.
func (s *gatewayStream) Ordering() []schema.SortKey { return s.rows.Ordering() }

// restoreColumnNames renames result headers to the aliases of the
// (pre-dialect) translated select when arities line up.
func restoreColumnNames(rs *schema.ResultSet, sel *sqlparser.Select) {
	if rs == nil || len(sel.Items) != len(rs.Columns) {
		return
	}
	for i, it := range sel.Items {
		switch {
		case it.As != "":
			rs.Columns[i] = it.As
		default:
			if cr, ok := it.Expr.(*sqlparser.ColumnRef); ok {
				rs.Columns[i] = cr.Column
			}
		}
	}
}

// Exec executes canonical DML against export relations inside the given
// branch (or autocommit when txn is 0).
func (g *Gateway) Exec(ctx context.Context, txn uint64, sql string) (int, error) {
	ctx, cancel := g.withTimeout(ctx)
	defer cancel()
	g.simulateLatency()

	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return 0, fmt.Errorf("gateway %s: %w", g.site, err)
	}
	translated, err := g.translateDML(stmt)
	if err != nil {
		return 0, err
	}
	native := g.dialect.Render(translated)
	reparsed, err := g.dialect.Parse(native)
	if err != nil {
		return 0, fmt.Errorf("gateway %s: dialect round-trip: %w", g.site, err)
	}

	if txn == 0 {
		res, err := g.db.Exec(ctx, sqlparser.FormatStatement(reparsed, nil))
		if err != nil {
			return 0, mapErr(err)
		}
		return res.RowsAffected, nil
	}
	branch, ok := g.db.Resume(lockmgr.TxnID(txn))
	if !ok {
		return 0, fmt.Errorf("gateway %s: unknown transaction %d", g.site, txn)
	}
	res, err := branch.ExecStmt(ctx, reparsed)
	if err != nil {
		return 0, mapErr(err)
	}
	return res.RowsAffected, nil
}

// Begin opens a local transaction branch for global transaction gid
// (0 = purely local) and returns its id.
func (g *Gateway) Begin(ctx context.Context, gid uint64) (uint64, error) {
	tx := g.db.BeginGlobal(gid)
	return tx.ID(), nil
}

// WaitGraph snapshots the site's live lock waits-for edges in the wire
// representation. Wait durations are reported as elapsed milliseconds
// so the coordinator needs no clock agreement with the site.
func (g *Gateway) WaitGraph() []comm.WaitEdge {
	edges := g.db.WaitGraph()
	out := make([]comm.WaitEdge, 0, len(edges))
	for _, e := range edges {
		we := comm.WaitEdge{
			Waiter:    uint64(e.Waiter),
			WaiterGID: e.WaiterGID,
			Resource:  e.Resource,
			WaitMs:    time.Since(e.Since).Milliseconds(),
		}
		for _, h := range e.Holders {
			we.Holders = append(we.Holders, uint64(h))
		}
		we.HolderGIDs = append(we.HolderGIDs, e.HolderGIDs...)
		out = append(out, we)
	}
	return out
}

// Prepare is 2PC phase one for the branch.
func (g *Gateway) Prepare(ctx context.Context, txn uint64) error {
	branch, ok := g.db.Resume(lockmgr.TxnID(txn))
	if !ok {
		return fmt.Errorf("gateway %s: unknown transaction %d", g.site, txn)
	}
	return branch.Prepare()
}

// Commit is 2PC phase two (or a one-phase commit). An unknown branch
// commits successfully: a yes vote is durable before it is cast, so a
// recovered site always still knows its prepared branches — a commit
// arriving for an unknown one means the branch already finished and
// only the acknowledgement was lost, and re-drives must be idempotent.
func (g *Gateway) Commit(ctx context.Context, txn uint64) error {
	branch, ok := g.db.Resume(lockmgr.TxnID(txn))
	if !ok {
		return nil
	}
	return branch.Commit()
}

// PreparedBranches lists the in-doubt (prepared) branch ids the site's
// engine recovered, in ascending order.
func (g *Gateway) PreparedBranches() []uint64 {
	return g.db.PreparedTxns()
}

// ResolvePrepared resolves every recovered prepared branch through
// status — the pull path of in-doubt resolution, for a site that comes
// back while the coordinator is reachable: StatusCommit commits the
// branch, StatusAbort rolls it back (releasing its locks), and
// StatusPending leaves it holding them. The first error stops the walk;
// already-resolved branches are skipped.
func (g *Gateway) ResolvePrepared(ctx context.Context, status func(ctx context.Context, branch uint64) (string, error)) error {
	for _, id := range g.db.PreparedTxns() {
		branch, ok := g.db.Resume(lockmgr.TxnID(id))
		if !ok {
			continue
		}
		st, err := status(ctx, id)
		if err != nil {
			return fmt.Errorf("gateway %s: resolving branch %d: %w", g.site, id, err)
		}
		switch st {
		case "commit":
			if err := branch.Commit(); err != nil {
				return fmt.Errorf("gateway %s: committing resolved branch %d: %w", g.site, id, err)
			}
		case "abort":
			branch.Rollback()
		default: // pending — the coordinator has not decided; keep waiting
		}
	}
	return nil
}

// Abort rolls the branch back; it is idempotent and succeeds for
// unknown branches (they may have aborted already). The branch is
// wounded first: if a statement is parked in the lock manager it holds
// the branch's mutex, so rollback would block behind it forever —
// wounding fails the parked wait immediately and lets the statement
// unwind before the rollback takes the mutex.
func (g *Gateway) Abort(ctx context.Context, txn uint64) error {
	g.db.Wound(lockmgr.TxnID(txn))
	branch, ok := g.db.Resume(lockmgr.TxnID(txn))
	if !ok {
		return nil
	}
	branch.Rollback()
	return nil
}

// ---------------------------------------------------------------------
// Translation: canonical/export SQL -> local-table SQL

// exportBinding tracks one FROM entry during translation.
type exportBinding struct {
	alias  string // effective name visible in the query
	export *Export
	sc     *schema.Schema // export-visible schema
}

func (g *Gateway) bindingFor(ref sqlparser.TableRef) (*exportBinding, error) {
	e, ok := g.export(ref.Name)
	if !ok {
		return nil, fmt.Errorf("gateway %s: no export relation %q", g.site, ref.Name)
	}
	sc, err := g.exportSchema(e)
	if err != nil {
		return nil, err
	}
	return &exportBinding{alias: ref.EffectiveName(), export: e, sc: sc}, nil
}

// translateSelect rewrites a canonical SELECT over exports into one over
// local tables: table names are replaced (keeping the visible alias),
// stars are expanded to aliased export columns, column references are
// renamed, and export predicates are ANDed into WHERE.
func (g *Gateway) translateSelect(sel *sqlparser.Select) (*sqlparser.Select, error) {
	out := *sel
	var binds []*exportBinding

	out.From = nil
	for _, ref := range sel.From {
		b, err := g.bindingFor(ref)
		if err != nil {
			return nil, err
		}
		binds = append(binds, b)
		out.From = append(out.From, sqlparser.TableRef{Name: b.export.LocalTable, Alias: b.alias})
	}
	out.Joins = nil
	for _, j := range sel.Joins {
		b, err := g.bindingFor(j.Table)
		if err != nil {
			return nil, err
		}
		binds = append(binds, b)
		nj := j
		nj.Table = sqlparser.TableRef{Name: b.export.LocalTable, Alias: b.alias}
		nj.On = nil // rewritten below once all bindings are known
		out.Joins = append(out.Joins, nj)
	}

	rewrite := func(e sqlparser.Expr) (sqlparser.Expr, error) {
		return rewriteColumns(e, binds)
	}

	// Expand stars into aliased items so output headers keep export
	// column names even after renaming.
	var items []sqlparser.SelectItem
	for _, it := range sel.Items {
		switch {
		case it.Star && it.Table == "":
			for _, b := range binds {
				for _, c := range b.sc.Columns {
					items = append(items, starItem(b, c.Name))
				}
			}
		case it.Star:
			found := false
			for _, b := range binds {
				if strings.EqualFold(b.alias, it.Table) {
					for _, c := range b.sc.Columns {
						items = append(items, starItem(b, c.Name))
					}
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("gateway %s: unknown relation %q in star", g.site, it.Table)
			}
		default:
			e, err := rewrite(it.Expr)
			if err != nil {
				return nil, err
			}
			alias := it.As
			if alias == "" {
				if cr, ok := it.Expr.(*sqlparser.ColumnRef); ok {
					alias = cr.Column
				}
			}
			items = append(items, sqlparser.SelectItem{Expr: e, As: alias})
		}
	}
	out.Items = items

	var err error
	if out.Where, err = rewrite(sel.Where); err != nil {
		return nil, err
	}
	for i, j := range sel.Joins {
		if out.Joins[i].On, err = rewrite(j.On); err != nil {
			return nil, err
		}
	}
	out.GroupBy = nil
	for _, e := range sel.GroupBy {
		re, err := rewrite(e)
		if err != nil {
			return nil, err
		}
		out.GroupBy = append(out.GroupBy, re)
	}
	if out.Having, err = rewrite(sel.Having); err != nil {
		return nil, err
	}
	out.OrderBy = nil
	for _, o := range sel.OrderBy {
		re, err := rewrite(o.Expr)
		if err != nil {
			return nil, err
		}
		out.OrderBy = append(out.OrderBy, sqlparser.OrderItem{Expr: re, Desc: o.Desc})
	}

	// Export predicates: qualify with the binding alias and AND in.
	for _, b := range binds {
		if b.export.Predicate == "" {
			continue
		}
		pred, err := sqlparser.ParseExpr(b.export.Predicate)
		if err != nil {
			return nil, err
		}
		qualified := sqlparser.RewriteExpr(pred, func(e sqlparser.Expr) sqlparser.Expr {
			if cr, ok := e.(*sqlparser.ColumnRef); ok && cr.Table == "" {
				return &sqlparser.ColumnRef{Table: b.alias, Column: cr.Column}
			}
			return e
		})
		if out.Where == nil {
			out.Where = qualified
		} else {
			out.Where = &sqlparser.BinaryExpr{Op: "AND", L: out.Where, R: qualified}
		}
	}

	if sel.Compound != nil {
		right, err := g.translateSelect(sel.Compound.Right)
		if err != nil {
			return nil, err
		}
		out.Compound = &sqlparser.CompoundSelect{All: sel.Compound.All, Right: right}
	}
	return &out, nil
}

func starItem(b *exportBinding, exportCol string) sqlparser.SelectItem {
	local := exportCol
	for _, c := range b.export.Columns {
		if strings.EqualFold(c.Export, exportCol) {
			local = c.Local
			break
		}
	}
	return sqlparser.SelectItem{
		Expr: &sqlparser.ColumnRef{Table: b.alias, Column: local},
		As:   exportCol,
	}
}

// rewriteColumns renames export column references to local names using
// the bindings.
func rewriteColumns(e sqlparser.Expr, binds []*exportBinding) (sqlparser.Expr, error) {
	if e == nil {
		return nil, nil
	}
	var rerr error
	out := sqlparser.RewriteExpr(e, func(x sqlparser.Expr) sqlparser.Expr {
		cr, ok := x.(*sqlparser.ColumnRef)
		if !ok {
			return x
		}
		if cr.Table != "" {
			for _, b := range binds {
				if !strings.EqualFold(b.alias, cr.Table) {
					continue
				}
				local, ok := localName(b, cr.Column)
				if !ok {
					rerr = fmt.Errorf("gateway: export %s has no column %q", b.export.Name, cr.Column)
					return x
				}
				return &sqlparser.ColumnRef{Table: cr.Table, Column: local}
			}
			rerr = fmt.Errorf("gateway: unknown relation %q", cr.Table)
			return x
		}
		// Unqualified: find the unique export owning the column.
		var owner *exportBinding
		for _, b := range binds {
			if b.sc.ColIndex(cr.Column) >= 0 {
				if owner != nil {
					rerr = fmt.Errorf("gateway: ambiguous column %q", cr.Column)
					return x
				}
				owner = b
			}
		}
		if owner == nil {
			rerr = fmt.Errorf("gateway: unknown column %q", cr.Column)
			return x
		}
		local, _ := localName(owner, cr.Column)
		return &sqlparser.ColumnRef{Table: owner.alias, Column: local}
	})
	return out, rerr
}

func localName(b *exportBinding, exportCol string) (string, bool) {
	for _, c := range b.export.Columns {
		if strings.EqualFold(c.Export, exportCol) {
			return c.Local, true
		}
	}
	return "", false
}

// translateDML rewrites INSERT/UPDATE/DELETE over an export relation.
// Predicated exports are read-only.
func (g *Gateway) translateDML(stmt sqlparser.Statement) (sqlparser.Statement, error) {
	switch s := stmt.(type) {
	case *sqlparser.Insert:
		e, ok := g.export(s.Table)
		if !ok {
			return nil, fmt.Errorf("gateway %s: no export relation %q", g.site, s.Table)
		}
		if e.Predicate != "" {
			return nil, fmt.Errorf("gateway %s: export %s is read-only (predicated)", g.site, e.Name)
		}
		out := *s
		out.Table = e.LocalTable
		cols := s.Columns
		if len(cols) == 0 {
			sc, err := g.exportSchema(e)
			if err != nil {
				return nil, err
			}
			for _, c := range sc.Columns {
				cols = append(cols, c.Name)
			}
		}
		out.Columns = nil
		for _, c := range cols {
			local, ok := localName(&exportBinding{export: e}, c)
			if !ok {
				return nil, fmt.Errorf("gateway %s: export %s has no column %q", g.site, e.Name, c)
			}
			out.Columns = append(out.Columns, local)
		}
		return &out, nil

	case *sqlparser.Update:
		e, ok := g.export(s.Table)
		if !ok {
			return nil, fmt.Errorf("gateway %s: no export relation %q", g.site, s.Table)
		}
		if e.Predicate != "" {
			return nil, fmt.Errorf("gateway %s: export %s is read-only (predicated)", g.site, e.Name)
		}
		sc, err := g.exportSchema(e)
		if err != nil {
			return nil, err
		}
		b := &exportBinding{alias: e.LocalTable, export: e, sc: sc}
		out := *s
		out.Table = e.LocalTable
		out.Set = nil
		for _, a := range s.Set {
			local, ok := localName(b, a.Column)
			if !ok {
				return nil, fmt.Errorf("gateway %s: export %s has no column %q", g.site, e.Name, a.Column)
			}
			re, err := rewriteUnqualified(a.Expr, b)
			if err != nil {
				return nil, err
			}
			out.Set = append(out.Set, sqlparser.Assignment{Column: local, Expr: re})
		}
		if out.Where, err = rewriteUnqualified(s.Where, b); err != nil {
			return nil, err
		}
		return &out, nil

	case *sqlparser.Delete:
		e, ok := g.export(s.Table)
		if !ok {
			return nil, fmt.Errorf("gateway %s: no export relation %q", g.site, s.Table)
		}
		if e.Predicate != "" {
			return nil, fmt.Errorf("gateway %s: export %s is read-only (predicated)", g.site, e.Name)
		}
		sc, err := g.exportSchema(e)
		if err != nil {
			return nil, err
		}
		b := &exportBinding{alias: e.LocalTable, export: e, sc: sc}
		out := *s
		out.Table = e.LocalTable
		if out.Where, err = rewriteUnqualified(s.Where, b); err != nil {
			return nil, err
		}
		return &out, nil

	default:
		return nil, fmt.Errorf("gateway %s: unsupported statement %T through gateway", g.site, stmt)
	}
}

// rewriteUnqualified renames unqualified export columns to local names
// (DML statements reference a single relation, so qualification is
// unnecessary).
func rewriteUnqualified(e sqlparser.Expr, b *exportBinding) (sqlparser.Expr, error) {
	if e == nil {
		return nil, nil
	}
	var rerr error
	out := sqlparser.RewriteExpr(e, func(x sqlparser.Expr) sqlparser.Expr {
		cr, ok := x.(*sqlparser.ColumnRef)
		if !ok {
			return x
		}
		local, ok := localName(b, cr.Column)
		if !ok {
			rerr = fmt.Errorf("gateway: export %s has no column %q", b.export.Name, cr.Column)
			return x
		}
		return &sqlparser.ColumnRef{Column: local}
	})
	return out, rerr
}

// ---------------------------------------------------------------------
// comm.Handler: serve the gateway protocol

// HandleStream implements comm.StreamHandler and is the only way OpQuery
// is served: results are framed straight off QueryStream — header, row
// batches, trailer. Each batch frame is filled in one call: a plain
// scan encodes its rows from the heap into the frame, anything else
// (and a transactional read's materialized result) row by row. Sink
// errors mean the client is gone; the deferred Close tears the scan
// down and releases its locks. Every other op is a Handle request.
func (g *Gateway) HandleStream(ctx context.Context, req *comm.Request, sink comm.RowSink) error {
	if req.Op != comm.OpQuery {
		return fmt.Errorf("gateway %s: op %q does not stream", g.site, req.Op)
	}
	rows, err := g.QueryStream(ctx, req.TxnID, req.SQL)
	if err != nil {
		return streamErr(err)
	}
	defer rows.Close()
	if err := sink.Header(rows.Columns()); err != nil {
		return err
	}
	appendRows := func(ctx context.Context, dst []byte, room int) ([]byte, int, error) {
		return schema.AppendRows(ctx, rows.Next, dst, room)
	}
	if gs, ok := rows.(*gatewayStream); ok {
		appendRows = gs.appendRows
	}
	fill := func(dst []byte, room int) ([]byte, int, error) {
		dst, n, err := appendRows(ctx, dst, room)
		if err != nil {
			err = streamErr(err)
		}
		return dst, n, err
	}
	for {
		n, err := sink.Fill(fill)
		if err != nil || n == 0 {
			return err
		}
	}
}

// errKind maps a gateway error to the wire error kind that both a
// Response and a streaming trailer carry.
func errKind(err error) comm.ErrKind {
	switch {
	case errors.Is(err, ErrWounded) || errors.Is(err, lockmgr.ErrWounded):
		return comm.ErrWounded
	case errors.Is(err, ErrTimeout) || errors.Is(err, lockmgr.ErrTimeout) || errors.Is(err, context.DeadlineExceeded):
		return comm.ErrTimeout
	}
	return comm.ErrGeneric
}

// streamErr tags a gateway error with its wire kind for the trailer.
func streamErr(err error) error { return &comm.KindError{Kind: errKind(err), Err: err} }

// Handle implements comm.Handler so a Gateway can be served over TCP by
// comm.Server (see cmd/gatewayd).
func (g *Gateway) Handle(ctx context.Context, req *comm.Request) *comm.Response {
	fail := func(err error) *comm.Response {
		return &comm.Response{Err: err.Error(), Kind: errKind(err)}
	}
	switch req.Op {
	case comm.OpPing:
		return &comm.Response{}
	case comm.OpSchema:
		scs, err := g.ExportSchemas()
		if err != nil {
			return fail(err)
		}
		return &comm.Response{Schemas: scs}
	case comm.OpStats:
		ts, err := g.Stats(req.Table)
		if err != nil {
			return fail(err)
		}
		return &comm.Response{Stats: ts}
	case comm.OpExplain:
		out, err := g.Explain(ctx, req.SQL)
		if err != nil {
			return fail(err)
		}
		rs := &schema.ResultSet{Columns: []string{"access"}}
		for _, line := range strings.Split(out, "\n") {
			rs.Rows = append(rs.Rows, schema.Row{value.NewText(line)})
		}
		return &comm.Response{Rows: rs}
	case comm.OpExec:
		n, err := g.Exec(ctx, req.TxnID, req.SQL)
		if err != nil {
			return fail(err)
		}
		return &comm.Response{Affected: n}
	case comm.OpBegin:
		id, err := g.Begin(ctx, req.GID)
		if err != nil {
			return fail(err)
		}
		return &comm.Response{TxnID: id}
	case comm.OpWaitGraph:
		return &comm.Response{Waits: g.WaitGraph()}
	case comm.OpPrepare:
		if err := g.Prepare(ctx, req.TxnID); err != nil {
			return fail(err)
		}
		return &comm.Response{}
	case comm.OpCommit:
		if err := g.Commit(ctx, req.TxnID); err != nil {
			return fail(err)
		}
		return &comm.Response{}
	case comm.OpAbort:
		if err := g.Abort(ctx, req.TxnID); err != nil {
			return fail(err)
		}
		return &comm.Response{}
	default:
		return fail(fmt.Errorf("gateway %s: unknown op %q", g.site, req.Op))
	}
}
