package localdb

import (
	"fmt"
	"strings"

	"myriad/internal/schema"
	"myriad/internal/storage"
	"myriad/internal/wal"
)

// CreateTableDirect installs a table bypassing SQL and locking; the
// oracle and fixtures use it. On a durable database the DDL is logged.
func (db *DB) CreateTableDirect(sc *schema.Schema) error {
	t, err := storage.NewTable(sc)
	if err != nil {
		return err
	}
	db.latch.Lock()
	defer db.latch.Unlock()
	lc := strings.ToLower(sc.Table)
	if _, exists := db.tables[lc]; exists {
		return fmt.Errorf("localdb %s: table %s already exists", db.name, sc.Table)
	}
	if err := db.logDDL(&wal.Record{Kind: wal.RecCreateTable, Table: sc.Table, Schema: encodeSchema(sc)}); err != nil {
		return err
	}
	db.tables[lc] = t
	return nil
}

// Load bulk-inserts rows (coerced to the schema) without locking or undo
// logging; oracle and fixture use. On a durable database the
// batch is logged as one commit record, so loaded rows survive restart.
func (db *DB) Load(table string, rows []schema.Row) error {
	db.latch.Lock()
	defer db.latch.Unlock()
	t, err := db.table(table)
	if err != nil {
		return err
	}
	var ops []wal.Op
	lc := strings.ToLower(table)
	for _, r := range rows {
		id, err := t.Insert(r)
		if err != nil {
			return err
		}
		if db.wal != nil {
			ops = append(ops, wal.Op{Kind: wal.OpInsert, Table: lc, Row: int64(id), Vals: t.Get(id)})
		}
	}
	if len(ops) > 0 {
		if _, err := db.wal.Append(&wal.Record{Kind: wal.RecCommit, Ops: ops}); err != nil {
			return fmt.Errorf("localdb %s: load log append: %w", db.name, err)
		}
		db.maybeCheckpoint()
	}
	return nil
}
