package localdb

import (
	"context"
	"fmt"
	"strings"

	"myriad/internal/lockmgr"
	"myriad/internal/schema"
	"myriad/internal/sqlparser"
	"myriad/internal/storage"
	"myriad/internal/value"
	"myriad/internal/wal"
)

// execInsert evaluates the VALUES rows (constant expressions) and inserts
// them under IX table + X key locks so concurrent point operations on
// other keys proceed while scans are excluded.
func (tx *Txn) execInsert(ctx context.Context, s *sqlparser.Insert) (*ExecResult, error) {
	tx.db.latch.RLock()
	t, err := tx.db.table(s.Table)
	tx.db.latch.RUnlock()
	if err != nil {
		return nil, err
	}
	sc := t.Schema

	// Map the column list (or schema order) to positions.
	var colIdx []int
	if len(s.Columns) == 0 {
		colIdx = make([]int, len(sc.Columns))
		for i := range colIdx {
			colIdx[i] = i
		}
	} else {
		for _, c := range s.Columns {
			ci := sc.ColIndex(c)
			if ci < 0 {
				return nil, fmt.Errorf("localdb %s: no column %q in %s", tx.db.name, c, s.Table)
			}
			colIdx = append(colIdx, ci)
		}
	}

	// Evaluate all rows up front (INSERT values are constants).
	noCols := &rowBinder{}
	rows := make([]schema.Row, 0, len(s.Rows))
	for _, exprs := range s.Rows {
		if len(exprs) != len(colIdx) {
			return nil, fmt.Errorf("localdb %s: INSERT row has %d values, want %d", tx.db.name, len(exprs), len(colIdx))
		}
		row := make(schema.Row, len(sc.Columns))
		for i, e := range exprs {
			fn, err := compileExpr(e, noCols)
			if err != nil {
				return nil, err
			}
			v, err := fn(nil)
			if err != nil {
				return nil, err
			}
			row[colIdx[i]] = v
		}
		coerced, err := schema.CoerceRow(sc, row)
		if err != nil {
			return nil, err
		}
		rows = append(rows, coerced)
	}

	if err := tx.lockTable(ctx, s.Table, lockmgr.IX); err != nil {
		return nil, err
	}
	if t.HasPK() {
		for _, row := range rows {
			key, err := t.KeyString(row)
			if err != nil {
				return nil, err
			}
			if err := tx.lockKey(ctx, s.Table, key, lockmgr.X); err != nil {
				return nil, err
			}
		}
	}

	tx.db.latch.Lock()
	defer tx.db.latch.Unlock()
	inserted := 0
	for _, row := range rows {
		id, err := t.Insert(row)
		if err != nil {
			// Roll back the rows inserted by this statement so the
			// statement is atomic; the transaction remains usable.
			for j := 0; j < inserted; j++ {
				u := tx.undo[len(tx.undo)-1]
				tx.undo = tx.undo[:len(tx.undo)-1]
				if len(tx.redo) > 0 {
					tx.redo = tx.redo[:len(tx.redo)-1]
				}
				t.Delete(u.id) //nolint:errcheck
			}
			return nil, err
		}
		lc := strings.ToLower(s.Table)
		tx.record(undoRec{kind: undoInsert, table: lc, id: id},
			wal.Op{Kind: wal.OpInsert, Table: lc, Row: int64(id), Vals: row})
		inserted++
	}
	return &ExecResult{RowsAffected: inserted}, nil
}

// targetRows finds the row ids an UPDATE/DELETE affects, with the same
// point-vs-scan locking policy as SELECT but in exclusive modes.
func (tx *Txn) targetRows(ctx context.Context, tableName string, where sqlparser.Expr) (*storage.Table, []storage.RowID, *rowBinder, error) {
	tx.db.latch.RLock()
	t, err := tx.db.table(tableName)
	tx.db.latch.RUnlock()
	if err != nil {
		return nil, nil, nil, err
	}
	sc := t.Schema
	b := &rowBinder{}
	b.add(sc.Table, sc)

	var pred Predicate
	if where != nil {
		if pred, err = compilePred(where, b); err != nil {
			return nil, nil, nil, err
		}
	}

	// Point path: single-column PK equality.
	if where != nil && len(sc.Key) == 1 {
		for _, c := range sqlparser.SplitConjuncts(where) {
			col, lit, ok := equalityLiteral(c)
			if !ok || !strings.EqualFold(col, sc.Key[0]) {
				continue
			}
			if err := tx.lockTable(ctx, tableName, lockmgr.IX); err != nil {
				return nil, nil, nil, err
			}
			probe := schema.Row{lit}
			tx.db.latch.RLock()
			_, row, found := t.GetByKey(probe)
			var keyEnc string
			if found {
				keyEnc, err = t.KeyString(row)
			} else {
				tmp := make(schema.Row, len(sc.Columns))
				tmp[sc.KeyIndexes()[0]] = lit
				keyEnc, err = t.KeyString(tmp)
			}
			tx.db.latch.RUnlock()
			if err != nil {
				return nil, nil, nil, err
			}
			if err := tx.lockKey(ctx, tableName, keyEnc, lockmgr.X); err != nil {
				return nil, nil, nil, err
			}
			tx.db.latch.RLock()
			id, row, found := t.GetByKey(probe)
			var ids []storage.RowID
			if found {
				t, err := pred(row)
				if err != nil {
					tx.db.latch.RUnlock()
					return nil, nil, nil, err
				}
				if t == True {
					ids = append(ids, id)
				}
			}
			tx.db.latch.RUnlock()
			return t, ids, b, nil
		}
	}

	// Scan path: exclusive table lock.
	if err := tx.lockTable(ctx, tableName, lockmgr.X); err != nil {
		return nil, nil, nil, err
	}
	var ids []storage.RowID
	var scanErr error
	tx.db.latch.RLock()
	t.Scan(func(id storage.RowID, r schema.Row) bool {
		if pred != nil {
			t, err := pred(r)
			if err != nil {
				scanErr = err
				return false
			}
			if t != True {
				return true
			}
		}
		ids = append(ids, id)
		return true
	})
	tx.db.latch.RUnlock()
	if scanErr != nil {
		return nil, nil, nil, scanErr
	}
	return t, ids, b, nil
}

func (tx *Txn) execUpdate(ctx context.Context, s *sqlparser.Update) (*ExecResult, error) {
	// Updates that rewrite primary-key columns escalate to a table X
	// lock: the set of key resources they touch is not known up front.
	tx.db.latch.RLock()
	t0, err := tx.db.table(s.Table)
	tx.db.latch.RUnlock()
	if err != nil {
		return nil, err
	}
	for _, a := range s.Set {
		for _, k := range t0.Schema.Key {
			if strings.EqualFold(a.Column, k) {
				if err := tx.lockTable(ctx, s.Table, lockmgr.X); err != nil {
					return nil, err
				}
			}
		}
	}

	t, ids, b, err := tx.targetRows(ctx, s.Table, s.Where)
	if err != nil {
		return nil, err
	}
	sc := t.Schema

	type setFn struct {
		col int
		fn  evalFn
	}
	sets := make([]setFn, 0, len(s.Set))
	for _, a := range s.Set {
		ci := sc.ColIndex(a.Column)
		if ci < 0 {
			return nil, fmt.Errorf("localdb %s: no column %q in %s", tx.db.name, a.Column, s.Table)
		}
		fn, err := compileExpr(a.Expr, b)
		if err != nil {
			return nil, err
		}
		sets = append(sets, setFn{col: ci, fn: fn})
	}

	tx.db.latch.Lock()
	defer tx.db.latch.Unlock()
	updated := 0
	for _, id := range ids {
		old := t.Get(id)
		if old == nil {
			continue
		}
		next := old.Clone()
		for _, sf := range sets {
			v, err := sf.fn(old)
			if err != nil {
				return nil, err
			}
			next[sf.col] = v
		}
		prev, err := t.Update(id, next)
		if err != nil {
			return nil, err
		}
		lc := strings.ToLower(s.Table)
		tx.record(undoRec{kind: undoUpdate, table: lc, id: id, old: prev},
			wal.Op{Kind: wal.OpUpdate, Table: lc, Row: int64(id), Vals: t.Get(id)})
		updated++
	}
	return &ExecResult{RowsAffected: updated}, nil
}

func (tx *Txn) execDelete(ctx context.Context, s *sqlparser.Delete) (*ExecResult, error) {
	t, ids, _, err := tx.targetRows(ctx, s.Table, s.Where)
	if err != nil {
		return nil, err
	}
	tx.db.latch.Lock()
	defer tx.db.latch.Unlock()
	deleted := 0
	for _, id := range ids {
		old, err := t.Delete(id)
		if err != nil {
			continue
		}
		lc := strings.ToLower(s.Table)
		tx.record(undoRec{kind: undoDelete, table: lc, id: id, old: old},
			wal.Op{Kind: wal.OpDelete, Table: lc, Row: int64(id)})
		deleted++
	}
	return &ExecResult{RowsAffected: deleted}, nil
}

// rowToValues is a tiny helper for tests and debugging.
func rowToValues(r schema.Row) []value.Value { return r }
