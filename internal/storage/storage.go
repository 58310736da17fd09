// Package storage implements the heap-table storage engine used by the
// component DBMSs: append-only row slots with tombstones, a primary-key
// hash index, optional secondary indexes (hash for equality, ordered
// B+trees for range scans and sort-order delivery), and per-column
// statistics — computed on demand and cached with bounded staleness —
// used by the access-path planners. See README.md for the access-method
// catalog and the ordering contract.
//
// The engine is deliberately not thread-safe: concurrency control is the
// job of the lock manager (internal/lockmgr) driven by the DBMS
// transaction layer, matching the paper's strict-2PL component DBMSs.
// (The statistics cache carries its own internal synchronization so
// concurrent readers under the database latch can share it.)
package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"myriad/internal/schema"
	"myriad/internal/value"
)

// RowID identifies a row slot within a table for the lifetime of the
// table. Slots are never reused so undo records stay valid.
type RowID int64

// Table is one heap relation plus its indexes.
type Table struct {
	Schema *schema.Schema

	rows    []schema.Row // nil entry = tombstone
	live    int
	pk      map[string]RowID       // primary-key index (composite keys joined)
	indexes map[string]*HashIndex  // secondary hash, by lower-cased column name
	ordered map[string]*orderedDef // secondary ordered, by lower-cased comma-joined column list

	// Statistics cache (see CachedStats). muts counts mutations since
	// creation and is atomic so readers under the shared database latch
	// can check staleness against writers; the cache itself is guarded
	// by statsMu because concurrent readers may race to refill it.
	muts    atomic.Int64
	statsMu sync.Mutex
	stats   *TableStats
	statsAt int64
}

// NewTable creates an empty table for the schema (which is validated).
func NewTable(sc *schema.Schema) (*Table, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		Schema:  sc.Clone(),
		indexes: make(map[string]*HashIndex),
		ordered: make(map[string]*orderedDef),
	}
	if len(sc.Key) > 0 {
		t.pk = make(map[string]RowID)
	}
	return t, nil
}

// keyString encodes the primary-key columns of a row for index lookup.
func (t *Table) keyString(r schema.Row) (string, error) {
	idx := t.Schema.KeyIndexes()
	var b strings.Builder
	for i, ki := range idx {
		v := r[ki]
		if v.IsNull() {
			return "", fmt.Errorf("storage %s: NULL in primary key column %s", t.Schema.Table, t.Schema.Key[i])
		}
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteByte(byte(v.K))
		b.WriteString(v.Text())
	}
	return b.String(), nil
}

// KeyString exposes the PK encoding of a row (used by the lock manager's
// row-resource naming).
func (t *Table) KeyString(r schema.Row) (string, error) { return t.keyString(r) }

// Insert adds a row (already coerced to the schema) and returns its
// RowID. Violating the primary key is an error.
func (t *Table) Insert(r schema.Row) (RowID, error) {
	coerced, err := schema.CoerceRow(t.Schema, r)
	if err != nil {
		return 0, err
	}
	var key string
	if t.pk != nil {
		key, err = t.keyString(coerced)
		if err != nil {
			return 0, err
		}
		if _, dup := t.pk[key]; dup {
			return 0, fmt.Errorf("storage %s: duplicate primary key %v", t.Schema.Table, key)
		}
	}
	id := RowID(len(t.rows))
	t.rows = append(t.rows, coerced)
	t.live++
	if t.pk != nil {
		t.pk[key] = id
	}
	for col, ix := range t.indexes {
		ci := t.Schema.ColIndex(col)
		ix.add(coerced[ci], id)
	}
	for _, d := range t.ordered {
		d.ix.add(d.keyOf(coerced), id)
	}
	t.muts.Add(1)
	return id, nil
}

// InsertAt re-inserts a row at a specific slot (undo of delete). The slot
// must be a tombstone.
func (t *Table) InsertAt(id RowID, r schema.Row) error {
	if int(id) >= len(t.rows) || t.rows[id] != nil {
		return fmt.Errorf("storage %s: slot %d not free", t.Schema.Table, id)
	}
	if t.pk != nil {
		key, err := t.keyString(r)
		if err != nil {
			return err
		}
		if _, dup := t.pk[key]; dup {
			return fmt.Errorf("storage %s: duplicate primary key on undo", t.Schema.Table)
		}
		t.pk[key] = id
	}
	t.rows[id] = r
	t.live++
	for col, ix := range t.indexes {
		ci := t.Schema.ColIndex(col)
		ix.add(r[ci], id)
	}
	for _, d := range t.ordered {
		d.ix.add(d.keyOf(r), id)
	}
	t.muts.Add(1)
	return nil
}

// ApplyInsert places a row at an exact slot, growing the heap with
// tombstones as needed. WAL replay and slot-preserving snapshot restore
// use it: committed rows must land on their original RowIDs (slots
// consumed by uncommitted or aborted transactions stay tombstones) so
// the recovered heap order — and every RowID-tie-broken ordered-index
// walk — is identical to the pre-crash committed state. The target slot
// must not hold a live row.
func (t *Table) ApplyInsert(id RowID, r schema.Row) error {
	if id < 0 {
		return fmt.Errorf("storage %s: negative slot %d", t.Schema.Table, id)
	}
	coerced, err := schema.CoerceRow(t.Schema, r)
	if err != nil {
		return err
	}
	if int(id) < len(t.rows) {
		if t.rows[id] != nil {
			return fmt.Errorf("storage %s: slot %d already occupied", t.Schema.Table, id)
		}
	} else {
		for int64(len(t.rows)) <= int64(id) {
			t.rows = append(t.rows, nil)
		}
	}
	var key string
	if t.pk != nil {
		if key, err = t.keyString(coerced); err != nil {
			return err
		}
		if _, dup := t.pk[key]; dup {
			return fmt.Errorf("storage %s: duplicate primary key %v on replay", t.Schema.Table, key)
		}
		t.pk[key] = id
	}
	t.rows[id] = coerced
	t.live++
	for col, ix := range t.indexes {
		ci := t.Schema.ColIndex(col)
		ix.add(coerced[ci], id)
	}
	for _, d := range t.ordered {
		d.ix.add(d.keyOf(coerced), id)
	}
	t.muts.Add(1)
	return nil
}

// ReserveSlots grows the heap with tombstones so a plain Insert never
// allocates a slot at or below id. Recovery of a prepared (in-doubt)
// two-phase-commit branch uses it: the branch's redo ops target
// explicit slots that must stay free until the branch commits or
// aborts, so post-recovery inserts by other transactions must allocate
// past them.
func (t *Table) ReserveSlots(id RowID) {
	for int64(len(t.rows)) <= int64(id) {
		t.rows = append(t.rows, nil)
	}
}

// Get returns the row at id, or nil when deleted/out of range.
func (t *Table) Get(id RowID) schema.Row {
	if id < 0 || int(id) >= len(t.rows) {
		return nil
	}
	return t.rows[id]
}

// GetByKey looks up a row by primary key values (in key order).
func (t *Table) GetByKey(keyVals []value.Value) (RowID, schema.Row, bool) {
	if t.pk == nil || len(keyVals) != len(t.Schema.Key) {
		return 0, nil, false
	}
	probe := make(schema.Row, len(t.Schema.Columns))
	for i, ki := range t.Schema.KeyIndexes() {
		probe[ki] = keyVals[i]
	}
	key, err := t.keyString(probe)
	if err != nil {
		return 0, nil, false
	}
	id, ok := t.pk[key]
	if !ok {
		return 0, nil, false
	}
	return id, t.rows[id], true
}

// Delete removes the row at id and returns the old row for undo logging.
func (t *Table) Delete(id RowID) (schema.Row, error) {
	old := t.Get(id)
	if old == nil {
		return nil, fmt.Errorf("storage %s: delete of missing row %d", t.Schema.Table, id)
	}
	if t.pk != nil {
		key, err := t.keyString(old)
		if err == nil {
			delete(t.pk, key)
		}
	}
	for col, ix := range t.indexes {
		ci := t.Schema.ColIndex(col)
		ix.remove(old[ci], id)
	}
	for _, d := range t.ordered {
		d.ix.remove(d.keyOf(old), id)
	}
	t.rows[id] = nil
	t.live--
	t.muts.Add(1)
	return old, nil
}

// Update replaces the row at id and returns the old row for undo
// logging. Primary-key changes are re-indexed (and may conflict).
func (t *Table) Update(id RowID, r schema.Row) (schema.Row, error) {
	old := t.Get(id)
	if old == nil {
		return nil, fmt.Errorf("storage %s: update of missing row %d", t.Schema.Table, id)
	}
	coerced, err := schema.CoerceRow(t.Schema, r)
	if err != nil {
		return nil, err
	}
	if t.pk != nil {
		oldKey, err1 := t.keyString(old)
		newKey, err2 := t.keyString(coerced)
		if err2 != nil {
			return nil, err2
		}
		if err1 == nil && oldKey != newKey {
			if _, dup := t.pk[newKey]; dup {
				return nil, fmt.Errorf("storage %s: duplicate primary key on update", t.Schema.Table)
			}
			delete(t.pk, oldKey)
			t.pk[newKey] = id
		}
	}
	for col, ix := range t.indexes {
		ci := t.Schema.ColIndex(col)
		if !value.Identical(old[ci], coerced[ci]) {
			ix.remove(old[ci], id)
			ix.add(coerced[ci], id)
		}
	}
	for _, d := range t.ordered {
		changed := false
		for _, ci := range d.cis {
			if !value.Identical(old[ci], coerced[ci]) {
				changed = true
				break
			}
		}
		if changed {
			d.ix.remove(d.keyOf(old), id)
			d.ix.add(d.keyOf(coerced), id)
		}
	}
	t.rows[id] = coerced
	t.muts.Add(1)
	return old, nil
}

// Scan visits every live row; the visitor returns false to stop.
func (t *Table) Scan(visit func(RowID, schema.Row) bool) {
	t.ScanFrom(0, visit)
}

// ScanFrom visits live rows starting at slot start (inclusive); the
// visitor returns false to stop. A caller may resume a scan from the
// slot after the last visited row and observe each live row exactly
// once — provided the table is not mutated between segments. That is
// the caller's responsibility (the DBMS layer holds a table S lock for
// the scan's lifetime): tombstoned slots can be re-filled by a
// rollback's delete-undo (InsertAt), so the engine itself does not
// guarantee slot stability.
func (t *Table) ScanFrom(start RowID, visit func(RowID, schema.Row) bool) {
	if start < 0 {
		start = 0
	}
	for i := int(start); i < len(t.rows); i++ {
		r := t.rows[i]
		if r == nil {
			continue
		}
		if !visit(RowID(i), r) {
			return
		}
	}
}

// Segment returns up to n slots from start (inclusive) as the table
// holds them — a tombstone is a nil row — and the slot after the last.
// The slice aliases the table's slot array, so it reads true only while
// the table is not mutated; as with ScanFrom, that is the caller's
// responsibility (the DBMS layer holds a table S lock for the scan's
// lifetime). Its capacity ends at its length: appending to it cannot
// write into the table.
func (t *Table) Segment(start RowID, n int) ([]schema.Row, RowID) {
	start = max(start, 0)
	end := min(int(start)+n, len(t.rows))
	if int(start) >= end {
		return nil, start
	}
	return t.rows[start:end:end], RowID(end)
}

// Len returns the number of live rows.
func (t *Table) Len() int { return t.live }

// CreateIndex builds a secondary hash index on the column.
func (t *Table) CreateIndex(column string) error {
	ci := t.Schema.ColIndex(column)
	if ci < 0 {
		return fmt.Errorf("storage %s: no column %q", t.Schema.Table, column)
	}
	lc := strings.ToLower(t.Schema.Columns[ci].Name)
	if _, exists := t.indexes[lc]; exists {
		return fmt.Errorf("storage %s: index on %q already exists", t.Schema.Table, column)
	}
	ix := NewHashIndex()
	t.Scan(func(id RowID, r schema.Row) bool {
		ix.add(r[ci], id)
		return true
	})
	t.indexes[lc] = ix
	return nil
}

// Index returns the secondary hash index on column, if any.
func (t *Table) Index(column string) (*HashIndex, bool) {
	ix, ok := t.indexes[strings.ToLower(column)]
	return ix, ok
}

// orderedDef binds an ordered index to its key columns.
type orderedDef struct {
	cols []string // schema-cased column names, in index key order
	cis  []int    // column positions in the schema, parallel to cols
	ix   *OrderedIndex
}

// keyOf extracts the index key tuple from a row.
func (d *orderedDef) keyOf(r schema.Row) []value.Value {
	vs := make([]value.Value, len(d.cis))
	for i, ci := range d.cis {
		vs[i] = r[ci]
	}
	return vs
}

// orderedKey names an ordered index by its column list (lower-cased,
// comma-joined) — the same columns in a different order are a different
// index.
func orderedKey(columns []string) string {
	return strings.ToLower(strings.Join(columns, ","))
}

// CreateOrderedIndex builds an ordered secondary index over the columns
// (one for a single-column index, several for a composite index ordered
// by the first column, then the second, and so on).
func (t *Table) CreateOrderedIndex(columns ...string) error {
	if len(columns) == 0 {
		return fmt.Errorf("storage %s: ordered index needs at least one column", t.Schema.Table)
	}
	d := &orderedDef{ix: NewOrderedIndex(len(columns))}
	seen := make(map[int]bool, len(columns))
	for _, col := range columns {
		ci := t.Schema.ColIndex(col)
		if ci < 0 {
			return fmt.Errorf("storage %s: no column %q", t.Schema.Table, col)
		}
		if seen[ci] {
			return fmt.Errorf("storage %s: duplicate column %q in ordered index", t.Schema.Table, col)
		}
		seen[ci] = true
		d.cols = append(d.cols, t.Schema.Columns[ci].Name)
		d.cis = append(d.cis, ci)
	}
	key := orderedKey(d.cols)
	if _, exists := t.ordered[key]; exists {
		return fmt.Errorf("storage %s: ordered index on %q already exists", t.Schema.Table, strings.Join(d.cols, ", "))
	}
	t.Scan(func(id RowID, r schema.Row) bool {
		d.ix.add(d.keyOf(r), id)
		return true
	})
	t.ordered[key] = d
	return nil
}

// OrderedIndex returns the single-column ordered secondary index on
// column, if any.
func (t *Table) OrderedIndex(column string) (*OrderedIndex, bool) {
	d, ok := t.ordered[orderedKey([]string{column})]
	if !ok {
		return nil, false
	}
	return d.ix, true
}

// OrderedIndexInfo describes one ordered index for planners, explain
// output, and snapshots.
type OrderedIndexInfo struct {
	Columns []string // schema-cased, in index key order
	Index   *OrderedIndex
}

// OrderedIndexes lists every ordered index (single-column and
// composite) in a deterministic order: by width, then by the position
// of the leading column in the schema, then by the full column list.
func (t *Table) OrderedIndexes() []OrderedIndexInfo {
	infos := make([]OrderedIndexInfo, 0, len(t.ordered))
	pos := make(map[string]int)
	for _, d := range t.ordered {
		infos = append(infos, OrderedIndexInfo{Columns: d.cols, Index: d.ix})
		pos[orderedKey(d.cols)] = d.cis[0]
	}
	sort.Slice(infos, func(a, b int) bool {
		ca, cb := infos[a].Columns, infos[b].Columns
		if len(ca) != len(cb) {
			return len(ca) < len(cb)
		}
		if pa, pb := pos[orderedKey(ca)], pos[orderedKey(cb)]; pa != pb {
			return pa < pb
		}
		return orderedKey(ca) < orderedKey(cb)
	})
	return infos
}

// OrderedIndexColumns lists the single-column ordered-indexed columns
// in schema order. Composite indexes are not included — enumerate them
// with OrderedIndexes.
func (t *Table) OrderedIndexColumns() []string {
	var cols []string
	for _, c := range t.Schema.Columns {
		if _, ok := t.ordered[orderedKey([]string{c.Name})]; ok {
			cols = append(cols, c.Name)
		}
	}
	return cols
}

// HasPK reports whether the table has a primary-key index.
func (t *Table) HasPK() bool { return t.pk != nil }

// HashIndex is an equality index from value to row ids.
type HashIndex struct {
	m map[uint64][]entry
}

type entry struct {
	v  value.Value
	id RowID
}

// NewHashIndex returns an empty index.
func NewHashIndex() *HashIndex { return &HashIndex{m: make(map[uint64][]entry)} }

func (ix *HashIndex) add(v value.Value, id RowID) {
	h := v.Hash()
	ix.m[h] = append(ix.m[h], entry{v: v, id: id})
}

func (ix *HashIndex) remove(v value.Value, id RowID) {
	h := v.Hash()
	es := ix.m[h]
	for i, e := range es {
		if e.id == id {
			ix.m[h] = append(es[:i], es[i+1:]...)
			return
		}
	}
}

// AppendIDs appends to dst the ids of the rows whose indexed value is
// Identical to v, in bucket order, and returns the extended slice. A
// probe over many keys passes the same buffer back in, so once it has
// grown a lookup allocates nothing.
func (ix *HashIndex) AppendIDs(dst []RowID, v value.Value) []RowID {
	for _, e := range ix.m[v.Hash()] {
		if value.Identical(e.v, v) {
			dst = append(dst, e.id)
		}
	}
	return dst
}
