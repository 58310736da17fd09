package localdb

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"myriad/internal/schema"
	"myriad/internal/storage"
	"myriad/internal/value"
)

// snapshot is the gob-encoded on-disk form of a database; since version
// 3 its rows inside are in the row codec. Only committed state is
// captured; the snapshot is taken under the database latch so it is
// transactionally consistent with respect to applied statements.
type snapshot struct {
	Version int
	Name    string
	// LSN is the WAL position the snapshot covers: recovery replays only
	// log records with a higher LSN. Zero on snapshots of in-memory
	// databases (every record replays).
	LSN    uint64
	Tables []tableSnapshot
}

type tableSnapshot struct {
	Schema *schema.Schema
	// RowData holds the rows (version 3) as consecutive value.AppendRow
	// encodings, the format of the WAL and the wire.
	RowData []byte
	// Rows holds the rows of version 1 and 2 snapshots, which gob
	// encoded them value by value; version 3 leaves it empty.
	Rows [][]legacyValue
	// Slots carries each row's heap slot (parallel to the rows). Restore
	// places rows at their original RowIDs so WAL records logged after
	// the snapshot still resolve, and so the recovered heap order —
	// including RowID tie-breaks in ordered-index walks — is identical
	// to the snapshotted state. Nil in pre-durability snapshots; rows
	// then restore compactly.
	Slots   []int64
	Indexes []string // secondary hash-index column names
	Ordered []string // single-column ordered-index column names
	// OrderedMulti lists composite ordered indexes as column lists. A
	// separate field (rather than widening Ordered) keeps pre-composite
	// snapshots loadable: gob zeroes the missing field.
	OrderedMulti [][]string
}

// snapshotVersion 2 adds LSN and Slots, and version 3 moves the rows
// to RowData; version 1 and 2 snapshots still load.
const snapshotVersion = 3

// legacyValue mirrors, field for field, the value.Value that version 1
// and 2 snapshots gob-encoded by field name. gob matches fields by name,
// so decoding those rows straight into today's value.Value would keep
// K and S and silently zero every INTEGER, FLOAT and BOOLEAN.
type legacyValue struct {
	K value.Kind
	I int64
	F float64
	S string
	B bool
}

// decodeLegacyRow converts one version 1 or 2 row into dst.
func decodeLegacyRow(dst schema.Row, r []legacyValue) (schema.Row, error) {
	for _, v := range r {
		switch v.K {
		case value.KindNull:
			dst = append(dst, value.Null())
		case value.KindInt:
			dst = append(dst, value.NewInt(v.I))
		case value.KindFloat:
			dst = append(dst, value.NewFloat(v.F))
		case value.KindText:
			dst = append(dst, value.NewText(v.S))
		case value.KindBool:
			dst = append(dst, value.NewBool(v.B))
		default:
			return dst, fmt.Errorf("unknown value kind %d", v.K)
		}
	}
	return dst, nil
}

// SaveSnapshot writes the database's committed state to w. Concurrent
// readers are blocked for the duration (the 1994 prototype had no online
// backup either).
func (db *DB) SaveSnapshot(w io.Writer) error {
	db.latch.RLock()
	defer db.latch.RUnlock()
	var lsn uint64
	if db.wal != nil {
		lsn = db.wal.LastLSN()
	}
	return db.encodeSnapshotLocked(w, lsn)
}

// encodeSnapshotLocked writes the snapshot to w; callers hold the
// database latch (any mode). Tables are emitted in sorted-name order so
// equal states produce equal bytes.
func (db *DB) encodeSnapshotLocked(w io.Writer, lsn uint64) error {
	snap := snapshot{Version: snapshotVersion, Name: db.name, LSN: lsn}
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := db.tables[n]
		ts := tableSnapshot{Schema: t.Schema.Clone()}
		t.Scan(func(id storage.RowID, r schema.Row) bool {
			ts.RowData = value.AppendRow(ts.RowData, r)
			ts.Slots = append(ts.Slots, int64(id))
			return true
		})
		for _, col := range t.Schema.Columns {
			if _, ok := t.Index(col.Name); ok {
				ts.Indexes = append(ts.Indexes, col.Name)
			}
		}
		for _, info := range t.OrderedIndexes() {
			if len(info.Columns) == 1 {
				ts.Ordered = append(ts.Ordered, info.Columns[0])
			} else {
				ts.OrderedMulti = append(ts.OrderedMulti, info.Columns)
			}
		}
		snap.Tables = append(snap.Tables, ts)
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// SaveSnapshotFile writes the snapshot to path atomically: the bytes go
// to a temp file in the same directory, are fsynced, and the temp file
// is renamed over path (with a directory sync). A crash mid-write can
// leave a stray temp file but never a corrupt or partial snapshot where
// a loader will look.
func (db *DB) SaveSnapshotFile(path string) error {
	db.latch.RLock()
	defer db.latch.RUnlock()
	var lsn uint64
	if db.wal != nil {
		lsn = db.wal.LastLSN()
	}
	return db.writeSnapshotFileLocked(path, lsn)
}

// writeSnapshotFileLocked performs the atomic temp+fsync+rename write;
// callers hold the database latch (any mode).
func (db *DB) writeSnapshotFileLocked(path string, lsn uint64) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := db.encodeSnapshotLocked(f, lsn); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	// A crashed database must stop publishing state: the snapshot must
	// not become visible after the kill point (see DB.Crash).
	if db.crashed.Load() {
		return fmt.Errorf("localdb %s: crashed before snapshot rename", db.name)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadSnapshot replaces the database's contents with the snapshot read
// from r. It must be called before the database serves transactions.
func (db *DB) LoadSnapshot(r io.Reader) error {
	_, err := db.loadSnapshot(r)
	return err
}

// loadSnapshot is LoadSnapshot reporting the snapshot's WAL watermark.
func (db *DB) loadSnapshot(r io.Reader) (uint64, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return 0, fmt.Errorf("localdb: reading snapshot: %w", err)
	}
	if snap.Version < 1 || snap.Version > snapshotVersion {
		return 0, fmt.Errorf("localdb: snapshot version %d not supported", snap.Version)
	}

	tables := make(map[string]*storage.Table, len(snap.Tables))
	for _, ts := range snap.Tables {
		t, err := storage.NewTable(ts.Schema)
		if err != nil {
			return 0, fmt.Errorf("localdb: snapshot table %s: %w", ts.Schema.Table, err)
		}
		if err := restoreRows(t, &ts); err != nil {
			return 0, fmt.Errorf("localdb: snapshot table %s: %w", ts.Schema.Table, err)
		}
		for _, col := range ts.Indexes {
			if err := t.CreateIndex(col); err != nil {
				return 0, fmt.Errorf("localdb: snapshot index on %s.%s: %w", ts.Schema.Table, col, err)
			}
		}
		for _, col := range ts.Ordered {
			if err := t.CreateOrderedIndex(col); err != nil {
				return 0, fmt.Errorf("localdb: snapshot ordered index on %s.%s: %w", ts.Schema.Table, col, err)
			}
		}
		for _, cols := range ts.OrderedMulti {
			if err := t.CreateOrderedIndex(cols...); err != nil {
				return 0, fmt.Errorf("localdb: snapshot ordered index on %s (%s): %w", ts.Schema.Table, strings.Join(cols, ", "), err)
			}
		}
		tables[strings.ToLower(ts.Schema.Table)] = t
	}

	db.latch.Lock()
	db.tables = tables
	db.latch.Unlock()
	return snap.LSN, nil
}

// restoreRows inserts a table snapshot's rows into t, each at its slot
// when the snapshot has slots. Rows decode into one reused buffer: the
// heap insert copies each row as it coerces it.
func restoreRows(t *storage.Table, ts *tableSnapshot) error {
	n := 0
	put := func(row schema.Row) error {
		var err error
		switch {
		case ts.Slots == nil:
			_, err = t.Insert(row)
		case n < len(ts.Slots):
			err = t.ApplyInsert(storage.RowID(ts.Slots[n]), row)
		default:
			err = fmt.Errorf("more rows than its %d slots", len(ts.Slots))
		}
		if err != nil {
			return fmt.Errorf("row %d: %w", n, err)
		}
		n++
		return nil
	}
	var row schema.Row
	for off := 0; off < len(ts.RowData); {
		var used int
		var err error
		if row, used, err = value.DecodeRow(row[:0], ts.RowData[off:]); err != nil {
			return fmt.Errorf("row %d: %w", n, err)
		}
		off += used
		if err := put(row); err != nil {
			return err
		}
	}
	for _, lr := range ts.Rows {
		var err error
		if row, err = decodeLegacyRow(row[:0], lr); err != nil {
			return fmt.Errorf("row %d: %w", n, err)
		}
		if err := put(row); err != nil {
			return err
		}
	}
	if ts.Slots != nil && n != len(ts.Slots) {
		return fmt.Errorf("%d slots for %d rows", len(ts.Slots), n)
	}
	return nil
}
