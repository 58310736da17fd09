package localdb

import (
	"context"
	"fmt"
	"strings"

	"myriad/internal/schema"
	"myriad/internal/sqlparser"
)

// Rows is a streaming SELECT result: the volcano pipeline exposed to
// callers row by row instead of drained into a ResultSet. The gateway
// drives it directly into outgoing wire batches so a remote LIMIT 10
// over a 100k-row table never materializes the table.
//
// A Rows owns an autocommit transaction: its table S locks are held
// until Close, which freezes the scanned tables exactly as the
// materializing path did for its (shorter) execution window. Close is
// idempotent, safe mid-stream (the early-termination path), and must be
// called to release locks. Not safe for concurrent use.
type Rows struct {
	cols     []string
	ordering []schema.SortKey
	it       rowIter
	tx       *Txn
	err      error
	closed   bool
}

var (
	_ schema.RowStream     = (*Rows)(nil)
	_ schema.OrderedStream = (*Rows)(nil)
)

// QueryStream executes a SELECT in autocommit mode, returning the
// result as a stream. The caller must Close it.
func (db *DB) QueryStream(ctx context.Context, sql string) (*Rows, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparser.Select)
	if !ok {
		return nil, fmt.Errorf("localdb: QueryStream requires SELECT, got %T", stmt)
	}
	return db.QueryStreamStmt(ctx, sel)
}

// QueryStreamStmt executes an already-parsed SELECT in autocommit mode,
// returning the result as a stream. The caller must Close it.
func (db *DB) QueryStreamStmt(ctx context.Context, sel *sqlparser.Select) (*Rows, error) {
	tx := db.Begin()
	it, cols, err := tx.streamStmt(ctx, sel)
	if err != nil {
		tx.Rollback()
		return nil, err
	}
	return &Rows{cols: cols, ordering: streamOrdering(sel, cols), it: it, tx: tx}, nil
}

// streamOrdering maps the statement's ORDER BY onto the output columns
// so the stream can declare the sort order it guarantees (the ordered
// stream contract federated merge fan-in builds on). A key maps when it
// is an ordinal (the sort evaluates the output item itself) or an
// unqualified name whose output column provably carries the same-named
// input column — a star expansion or a `c`/`c AS c` item. Anything
// else (expressions, renamings, shadowed aliases, duplicate names)
// leaves the stream conservatively unordered: the engine still sorts,
// but a consumer cannot merge on what it cannot trust.
func streamOrdering(sel *sqlparser.Select, cols []string) []schema.SortKey {
	if len(sel.OrderBy) == 0 {
		return nil
	}
	// backing[name]: 1 = an item that is the plain column `name`,
	// -1 = an item that merely produces an output named `name`
	// (renaming alias, expression) — tainted for name mapping.
	backing := make(map[string]int)
	hasStar := false
	for _, it := range sel.Items {
		if it.Star {
			hasStar = true
			continue
		}
		name := it.As
		cr, isCol := it.Expr.(*sqlparser.ColumnRef)
		if name == "" {
			if isCol {
				name = cr.Column
			} else {
				name = sqlparser.FormatExpr(it.Expr, nil)
			}
		}
		lname := strings.ToLower(name)
		if isCol && strings.EqualFold(cr.Column, name) && backing[lname] == 0 {
			backing[lname] = 1
		} else {
			backing[lname] = -1
		}
	}
	colIndex := func(name string) int {
		at := -1
		for i, c := range cols {
			if strings.EqualFold(c, name) {
				if at >= 0 {
					return -1 // duplicate output name
				}
				at = i
			}
		}
		return at
	}
	keys := make([]schema.SortKey, 0, len(sel.OrderBy))
	for _, o := range sel.OrderBy {
		ci := -1
		switch e := o.Expr.(type) {
		case *sqlparser.Literal:
			if n, isInt := e.Val.Int(); isInt && n >= 1 && int(n) <= len(cols) {
				ci = int(n) - 1
			}
		case *sqlparser.ColumnRef:
			if e.Table == "" {
				b := backing[strings.ToLower(e.Column)]
				if b == 1 || (b == 0 && hasStar) {
					ci = colIndex(e.Column)
				}
			}
		}
		if ci < 0 {
			return nil
		}
		keys = append(keys, schema.SortKey{Col: ci, Desc: o.Desc})
	}
	return keys
}

// Ordering reports the sort order the stream's rows arrive in (nil when
// no guarantee can be made).
func (r *Rows) Ordering() []schema.SortKey { return r.ordering }

// streamStmt assembles the iterator pipeline for sel under the txn
// mutex; the returned iterator is pulled outside it (the stream's
// owning transaction is private to the stream). Compound selects
// materialize via the union path and stream the combined result.
func (tx *Txn) streamStmt(ctx context.Context, sel *sqlparser.Select) (rowIter, []string, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if err := tx.checkActive(); err != nil {
		return nil, nil, err
	}
	if sel.Compound != nil {
		return tx.unionIter(ctx, sel)
	}
	return tx.selectIter(ctx, sel)
}

// Columns returns the output column names.
func (r *Rows) Columns() []string { return r.cols }

// Next returns the next row, or (nil, nil) at end of stream. After an
// error every subsequent call returns the same error.
func (r *Rows) Next(ctx context.Context) (schema.Row, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.closed {
		return nil, nil
	}
	row, err := r.it.Next(ctx)
	if err != nil {
		r.err = err
		return nil, err
	}
	return row, nil
}

// AppendRows appends up to max result rows to dst in the row codec —
// the bytes value.AppendRow gives each row — and reports how many; zero
// rows and a nil error end the stream. A plain scan (a heap scan or a
// hash-index probe, an optional WHERE, bare columns) encodes its
// qualifying rows straight from the heap a batch at a time and builds
// no row; a full sort (ORDER BY without LIMIT) hands over its sorted
// records, minus their sort keys, as the bytes of its spilled runs;
// any other statement encodes the rows Next would return. It
// stops once max rows are out and resumes there, so a caller can fill
// fixed-size frames.
// After an error every subsequent call returns the same error.
func (r *Rows) AppendRows(ctx context.Context, dst []byte, max int) ([]byte, int, error) {
	if r.err != nil {
		return dst, 0, r.err
	}
	if r.closed {
		return dst, 0, nil
	}
	var n int
	var err error
	if p, ok := r.it.(*projIter); ok && p.src != nil {
		dst, n, err = p.appendRows(ctx, dst, max)
	} else if s, ok := r.it.(*sortIter); ok {
		dst, n, err = s.appendRows(ctx, dst, max)
	} else {
		dst, n, err = schema.AppendRows(ctx, r.it.Next, dst, max)
	}
	r.err = err
	return dst, n, err
}

// Close tears down the pipeline — terminating any in-progress scan —
// and finishes the owning transaction, releasing its locks.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.it.Close()
	if r.err != nil {
		r.tx.Rollback()
		return nil
	}
	return r.tx.Commit()
}
