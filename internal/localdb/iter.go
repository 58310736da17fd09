package localdb

import (
	"context"
	"sort"
	"unsafe"

	"myriad/internal/schema"
	"myriad/internal/spill"
	"myriad/internal/storage"
	"myriad/internal/value"
)

// rowIter is the volcano-style pull iterator every SELECT operator
// implements. Next returns the next row, or (nil, nil) when the stream
// is exhausted. Close releases operator state and propagates to
// children; it is idempotent and safe mid-stream, which is how LIMIT
// terminates a scan early. Cancellation is owned by the source
// operators (heap scan, slice): every pull chain bottoms out in one, so
// wrapping operators observe ctx errors without checking per row.
type rowIter interface {
	Next(ctx context.Context) ([]value.Value, error)
	Close()
}

// scanBatchSize bounds how many rows a heap scan copies out per latch
// acquisition: large enough to amortize the lock, small enough that
// writers to other tables are not starved and LIMIT 10 does not drag in
// the whole heap.
const scanBatchSize = 256

// ---------------------------------------------------------------------
// Source operators

// sliceIter streams a materialized row set (point reads, from-less
// selects, operator tests).
type sliceIter struct {
	rows   [][]value.Value
	pos    int
	closed bool
}

func newSliceIter(rows [][]value.Value) *sliceIter { return &sliceIter{rows: rows} }

// newRowSliceIter streams a materialized []schema.Row (the named row
// type is not assignable to [][]value.Value; the headers are shared).
func newRowSliceIter(rows []schema.Row) *sliceIter {
	out := make([][]value.Value, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return newSliceIter(out)
}

func (s *sliceIter) Next(ctx context.Context) ([]value.Value, error) {
	if err := schema.Canceled(ctx); err != nil {
		return nil, err
	}
	if s.closed || s.pos >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

func (s *sliceIter) Close() { s.closed = true }

// segmentIter is a base-table source that hands out rows a segment of
// at most scanBatchSize at a time: it takes the database latch only to
// look the next segment up (fill), and reads the segment after
// releasing it. The caller must already hold a table S lock, which
// freezes the table's slots and indexes for the statement's lifetime:
// any writer — including a rollback's delete-undo, which can re-fill
// tombstoned slots — needs a conflicting IX/X table lock. That lock,
// not the latch, is what makes reading a segment and resuming at the
// next observe the same snapshot the old materialize-everything scan
// did. Row slices are shared, not copied: the storage engine never
// mutates a row slice in place (updates swap in a freshly coerced
// slice), so sharing is safe for readers.
type segmentIter struct {
	db *DB
	// fill returns the next segment, read under the latch, and whether
	// it is the last; a tombstone in it is nil. The segment stays valid
	// until the next fill.
	fill   func() ([]schema.Row, bool)
	batch  []schema.Row
	bpos   int
	done   bool
	closed bool
}

// newHeapScanIter walks a heap table in slot order: each segment
// aliases the table's slot array.
func newHeapScanIter(db *DB, t *storage.Table) *segmentIter {
	var pos storage.RowID
	return &segmentIter{db: db, fill: func() ([]schema.Row, bool) {
		seg, next := t.Segment(pos, scanBatchSize)
		pos = next
		return seg, len(seg) < scanBatchSize
	}}
}

// newHashProbeIter walks a hash index's matches for a list of keys:
// keys in list order, each key's rows in bucket order. It looks the
// keys up lazily, filling one reused segment with row references and
// resuming mid-key at the next.
func newHashProbeIter(db *DB, t *storage.Table, ix *storage.HashIndex, keys []value.Value) *segmentIter {
	var seg []schema.Row
	var ids []storage.RowID // the current key's matches; reused across keys
	next := 0
	return &segmentIter{db: db, fill: func() ([]schema.Row, bool) {
		seg = seg[:0]
		for len(seg) < scanBatchSize {
			if next == len(ids) {
				if len(keys) == 0 {
					return seg, true
				}
				ids, next = ix.AppendIDs(ids[:0], keys[0]), 0
				keys = keys[1:]
				continue
			}
			seg = append(seg, t.Get(ids[next]))
			next++
		}
		return seg, false
	}}
}

// more makes sure a slot is in hand, moving to the next segment once
// the current one is spent; false at the end of the scan. It polls ctx
// once per segment, not per row: a cancelled scan stops within one
// batch.
func (s *segmentIter) more(ctx context.Context) (bool, error) {
	if s.closed {
		return false, nil
	}
	if s.bpos < len(s.batch) {
		return true, nil
	}
	if err := schema.Canceled(ctx); err != nil {
		return false, err
	}
	if s.done {
		return false, nil
	}
	s.refill()
	return len(s.batch) > 0, nil
}

func (s *segmentIter) Next(ctx context.Context) ([]value.Value, error) {
	for {
		if ok, err := s.more(ctx); !ok {
			return nil, err
		}
		r := s.batch[s.bpos]
		s.bpos++
		if r != nil {
			return r, nil
		}
	}
}

// nextBatch hands out the rest of the segment in hand, or the next one:
// every live row qualifies.
func (s *segmentIter) nextBatch(ctx context.Context, sel []int32) ([]schema.Row, []int32, error) {
	sel = sel[:0]
	if ok, err := s.more(ctx); !ok {
		return nil, sel, err
	}
	for i := s.bpos; i < len(s.batch); i++ {
		if s.batch[i] != nil {
			sel = append(sel, int32(i))
		}
	}
	s.bpos = len(s.batch)
	return s.batch, sel, nil
}

func (s *segmentIter) refill() {
	s.db.latch.RLock()
	s.batch, s.done = s.fill()
	s.db.latch.RUnlock()
	s.bpos = 0
	live := 0
	for _, r := range s.batch {
		if r != nil {
			live++
		}
	}
	s.db.scanRows.Add(int64(live))
}

func (s *segmentIter) Close() { s.closed = true; s.batch, s.fill = nil, nil }

// batchSource is the input of the plain-scan path: a heap scan or a
// hash-index probe, optionally under filters that evaluate its rows in
// place. nextBatch returns the next scan batch and, appended to
// sel[:0], the positions of its rows that qualify; an empty batch ends
// the scan, while a batch with no qualifying rows does not. On a
// per-row error it returns the positions that qualified before the
// failing row with the error, so a consumer emits those first, as the
// row-at-a-time pipeline does. The batch is valid until the next call.
// A source is read by Next or by nextBatch, never both.
type batchSource interface {
	rowIter
	nextBatch(ctx context.Context, sel []int32) ([]schema.Row, []int32, error)
}

// batchSourceOf returns it as a batchSource when it is a heap scan or a
// hash-index probe, or filters over one whose predicates read the
// scan's rows at binding offset 0; otherwise nil.
func batchSourceOf(it rowIter) batchSource {
	switch x := it.(type) {
	case *segmentIter:
		return x
	case *filterIter:
		if x.off == 0 && batchSourceOf(x.child) != nil {
			return x
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Filter

// filterIter keeps rows satisfying pred. The predicate was compiled
// against a binder whose slots for this input start at offset off; when
// off > 0 the row is evaluated through a reused scratch padded to
// off+len(row), while the raw row is what flows downstream (join
// operators re-pad when combining).
type filterIter struct {
	child   rowIter
	pred    Predicate
	off     int
	scratch []value.Value
	closed  bool
}

func newFilterIter(child rowIter, pred Predicate, off int) *filterIter {
	return &filterIter{child: child, pred: pred, off: off}
}

func (f *filterIter) Next(ctx context.Context) ([]value.Value, error) {
	if f.closed {
		return nil, nil
	}
	for {
		r, err := f.child.Next(ctx)
		if err != nil || r == nil {
			return nil, err
		}
		probe := r
		if f.off > 0 {
			if len(f.scratch) < f.off+len(r) {
				f.scratch = make([]value.Value, f.off+len(r))
			}
			copy(f.scratch[f.off:], r)
			probe = f.scratch[:f.off+len(r)]
		}
		t, err := f.pred(probe)
		if err != nil {
			return nil, err
		}
		if t == True {
			return r, nil
		}
	}
}

// nextBatch applies pred to the qualifying rows of the child's next
// batch, keeping the positions of those it holds True for. Only a
// filter batchSourceOf accepts is asked: its rows are evaluated as they
// lie in the heap batch.
func (f *filterIter) nextBatch(ctx context.Context, sel []int32) ([]schema.Row, []int32, error) {
	if f.closed {
		return nil, sel[:0], nil
	}
	rows, sel, err := f.child.(batchSource).nextBatch(ctx, sel)
	kept := sel[:0]
	for _, i := range sel {
		t, perr := f.pred(rows[i])
		if perr != nil {
			return rows, kept, perr
		}
		if t == True {
			kept = append(kept, i)
		}
	}
	return rows, kept, err
}

func (f *filterIter) Close() {
	if !f.closed {
		f.closed = true
		f.child.Close()
	}
}

// ---------------------------------------------------------------------
// Joins

// hashJoinIter streams the left input, probing a hash table built from
// the right input on first pull. Output order matches the old
// materialized join exactly: left order outer, right arrival order
// within a key. LEFT JOIN pads unmatched left rows with NULLs. With no
// key functions every row lands under the empty key, which degenerates
// to exactly the nested-loop join (all pairs, residual-filtered), so one
// operator serves both join strategies.
//
// The build side is one chained table rather than a slice per key:
// chains maps a join key to its chain, rows holds the build rows in
// arrival order, and next[i] is the row after row i with the same key
// (-1 ends the chain). Combined output rows are carved from a
// recordSlab bounded by the budget's limit.
type hashJoinIter struct {
	left       rowIter
	right      rowIter
	leftKeys   []evalFn
	rightKeys  []evalFn
	residual   Predicate
	kind       joinKind
	leftWidth  int
	rightWidth int
	out        recordSlab // combined rows; its limit is the database budget's

	built  bool
	chains map[string]int32
	heads  []int32 // per chain: its first row
	tails  []int32 // per chain: its last row
	rows   [][]value.Value
	next   []int32
	key    []byte // reused join-key buffer

	// The probe in hand: the left row, the next build row to try (-1:
	// the chain is spent), and whether the left row still owes a LEFT
	// JOIN's NULL pad.
	l      []value.Value
	cur    int32
	pad    bool
	free   []value.Value // a carved row the residual rejected, reused next
	closed bool
}

// joinKind mirrors sqlparser.JoinKind without importing it here.
type joinKind uint8

const (
	joinInner joinKind = iota
	joinLeft
)

func (j *hashJoinIter) buildSide(ctx context.Context) error {
	j.chains = make(map[string]int32)
	j.cur = -1
	scratch := make([]value.Value, j.leftWidth+j.rightWidth)
	for {
		r, err := j.right.Next(ctx)
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		// Right key fns were compiled against the combined row; evaluate
		// through a scratch with the right columns in place (the left
		// region stays zero — the right key fns never read it).
		copy(scratch[j.leftWidth:], r)
		key, null, err := hashKeyOf(j.key[:0], j.rightKeys, scratch)
		j.key = key
		if err != nil {
			return err
		}
		if null {
			continue
		}
		i := int32(len(j.rows))
		j.rows = append(j.rows, r)
		j.next = append(j.next, -1)
		if c, ok := j.chains[string(key)]; ok {
			j.next[j.tails[c]] = i
			j.tails[c] = i
		} else {
			j.chains[string(key)] = int32(len(j.heads))
			j.heads = append(j.heads, i)
			j.tails = append(j.tails, i)
		}
	}
	j.right.Close()
	j.built = true
	return nil
}

// combine returns l followed by r in a carved row; a nil r leaves the
// right region zero, which is the NULL pad.
func (j *hashJoinIter) combine(l, r []value.Value) []value.Value {
	out := j.free
	if out == nil {
		out = j.out.next(j.leftWidth + j.rightWidth)
	}
	j.free = nil
	copy(out, l)
	clear(out[j.leftWidth+copy(out[j.leftWidth:], r):])
	return out
}

func (j *hashJoinIter) Next(ctx context.Context) ([]value.Value, error) {
	if j.closed {
		return nil, nil
	}
	if !j.built {
		if err := j.buildSide(ctx); err != nil {
			return nil, err
		}
	}
	for {
		for j.cur >= 0 {
			combined := j.combine(j.l, j.rows[j.cur])
			j.cur = j.next[j.cur]
			if j.residual != nil {
				t, err := j.residual(combined)
				if err != nil {
					return nil, err
				}
				if t != True {
					j.free = combined
					continue
				}
			}
			j.pad = false
			return combined, nil
		}
		if j.pad {
			j.pad = false
			return j.combine(j.l, nil), nil
		}
		l, err := j.left.Next(ctx)
		if err != nil || l == nil {
			return nil, err
		}
		key, null, err := hashKeyOf(j.key[:0], j.leftKeys, l)
		j.key = key
		if err != nil {
			return nil, err
		}
		j.l, j.pad = l, j.kind == joinLeft
		if c, ok := j.chains[string(key)]; ok && !null {
			j.cur = j.heads[c]
		}
	}
}

func (j *hashJoinIter) Close() {
	if !j.closed {
		j.closed = true
		j.left.Close()
		j.right.Close()
		j.chains, j.heads, j.tails, j.rows, j.next = nil, nil, nil, nil, nil
		j.l, j.free = nil, nil
	}
}

// ---------------------------------------------------------------------
// Projection, ordering, distinct, limit

// projIter applies the select-item projection per row. When every item
// is a bare column over a batchSource — a heap scan or a hash-index
// probe, and its WHERE — it is the plain-scan path instead: it filters a scan batch at a time,
// Next copies each qualifying row's chosen slots out, and appendRows
// encodes them straight into the caller's buffer, building no row.
type projIter struct {
	child   rowIter
	itemFns []evalFn
	closed  bool

	// The plain-scan path: slots holds each item's input slot, src is
	// the child as a batchSource (nil: the row path), and rows/sel/spos
	// is the scan batch in hand with its qualifying positions. err is a
	// per-row error held back until the positions before it are out.
	slots []int
	src   batchSource
	rows  []schema.Row
	sel   []int32
	spos  int
	err   error
	done  bool
}

// newProjIter projects child's rows through itemFns. slots, when
// non-nil, gives each item's input slot because every item is a bare
// column; over a batchSource that makes it the plain-scan path.
func newProjIter(child rowIter, itemFns []evalFn, slots []int) *projIter {
	p := &projIter{child: child, itemFns: itemFns}
	if slots != nil {
		if p.src = batchSourceOf(child); p.src != nil {
			p.slots = slots
		}
	}
	return p
}

func (p *projIter) Next(ctx context.Context) ([]value.Value, error) {
	if p.closed {
		return nil, nil
	}
	if p.src != nil {
		return p.nextSelected(ctx)
	}
	r, err := p.child.Next(ctx)
	if err != nil || r == nil {
		return nil, err
	}
	out := make([]value.Value, len(p.itemFns))
	for i, fn := range p.itemFns {
		if out[i], err = fn(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// nextSelected is Next on the plain-scan path: the next qualifying scan
// row's chosen slots, copied into a new row.
func (p *projIter) nextSelected(ctx context.Context) ([]value.Value, error) {
	if !p.more(ctx) {
		return nil, p.err
	}
	r := p.rows[p.sel[p.spos]]
	p.spos++
	out := make([]value.Value, len(p.slots))
	for i, s := range p.slots {
		out[i] = r[s]
	}
	return out, nil
}

// more makes sure a qualifying position is in hand, pulling scan
// batches until one qualifies; false at the end of the stream or once
// the positions before a held error are spent.
func (p *projIter) more(ctx context.Context) bool {
	for p.spos == len(p.sel) {
		if p.err != nil || p.done || p.closed {
			return false
		}
		p.rows, p.sel, p.err = p.src.nextBatch(ctx, p.sel)
		p.spos = 0
		p.done = len(p.rows) == 0
	}
	return true
}

// appendRows appends up to max result rows to dst in the row codec and
// reports how many it appended; zero rows and a nil error end the
// stream. It stops mid-batch once max rows are out and resumes there.
// A per-row error is returned once the rows that qualified before it
// are out, by a call that appends fewer than max rows. Only valid when
// src is set.
func (p *projIter) appendRows(ctx context.Context, dst []byte, max int) ([]byte, int, error) {
	n := 0
	for n < max {
		if !p.more(ctx) {
			return dst, n, p.err
		}
		end := min(len(p.sel), p.spos+max-n)
		for _, i := range p.sel[p.spos:end] {
			dst = value.AppendRowCols(dst, p.rows[i], p.slots)
		}
		n += end - p.spos
		p.spos = end
	}
	return dst, n, nil
}

func (p *projIter) Close() {
	if !p.closed {
		p.closed = true
		p.child.Close()
		p.rows = nil
	}
}

// sortIter implements ORDER BY without LIMIT as an external merge
// sort. Each input row is projected once and stored as one record with
// the evaluated sort keys prepended (columns 0..nk-1), so spilled and
// resident records sort under the same schema.CompareSort comparator
// the rest of the federation uses. A spill.Sorter keeps records in
// memory up to the database's byte budget and spills stable-sorted
// runs past it; emission streams the k-way run merge, whose
// run-index/FIFO tie-break reproduces exactly the old in-memory stable
// full sort. With no budget nothing ever spills and the operator is
// the old full-sort path unchanged.
type sortIter struct {
	child   rowIter
	itemFns []evalFn
	sortFns []evalFn
	descs   []bool
	budget  *spill.Budget

	out    *spill.Iterator
	filled bool
	closed bool
}

func newSortIter(child rowIter, itemFns, sortFns []evalFn, descs []bool, budget *spill.Budget) *sortIter {
	return &sortIter{child: child, itemFns: itemFns, sortFns: sortFns, descs: descs, budget: budget}
}

// recordSlab carves fixed-width records out of shared backing arrays of
// up to slabRecords records each, so a sort, a grouping or a join
// allocates once per slab rather than once per row. Each record's
// capacity is its width, so an append to one cannot spill into its
// neighbour. The sorter reserves budget per record as it is added, so
// the current slab's uncarved tail, and its records a spilled run no
// longer needs, are held beyond that account; under a budget a slab is
// therefore at most 1/slabShare of the limit, which bounds the excess.
type recordSlab struct {
	free  []value.Value
	limit int64 // the budget's limit (0 = unlimited)
}

const (
	slabRecords = 256
	slabShare   = 8
)

func (s *recordSlab) next(w int) schema.Row {
	if len(s.free) < w {
		n := int64(slabRecords)
		if s.limit > 0 {
			n = max(1, min(n, s.limit/slabShare/(int64(w)*int64(unsafe.Sizeof(value.Value{})))))
		}
		s.free = make([]value.Value, int64(w)*n)
	}
	r := s.free[:w:w]
	s.free = s.free[w:]
	return r
}

func (s *sortIter) fill(ctx context.Context) error {
	nk := len(s.sortFns)
	keys := make([]schema.SortKey, nk)
	for i := range keys {
		keys[i] = schema.SortKey{Col: i, Desc: s.descs[i]}
	}
	sorter := spill.NewSorter(s.budget, keys)
	slab := recordSlab{limit: s.budget.Limit()}
	for {
		r, err := s.child.Next(ctx)
		if err != nil {
			sorter.Close()
			return err
		}
		if r == nil {
			break
		}
		rec := slab.next(nk + len(s.itemFns))
		for i, fn := range s.sortFns {
			if rec[i], err = fn(r); err != nil {
				sorter.Close()
				return err
			}
		}
		for i, fn := range s.itemFns {
			if rec[nk+i], err = fn(r); err != nil {
				sorter.Close()
				return err
			}
		}
		if err := sorter.Add(rec); err != nil {
			sorter.Close()
			return err
		}
	}
	s.child.Close()
	it, err := sorter.Finish()
	if err != nil {
		sorter.Close()
		return err
	}
	s.out = it
	s.filled = true
	return nil
}

func (s *sortIter) Next(ctx context.Context) ([]value.Value, error) {
	if s.closed {
		return nil, nil
	}
	if !s.filled {
		if err := s.fill(ctx); err != nil {
			return nil, err
		}
	}
	rec, err := s.out.Next(ctx)
	if err != nil || rec == nil {
		return nil, err
	}
	return rec[len(s.sortFns):], nil
}

// appendRows appends up to max sorted rows to dst in the row codec,
// each record without its sort keys: a spilled sort's rows leave as
// the bytes of its runs, an in-memory sort's are encoded.
func (s *sortIter) appendRows(ctx context.Context, dst []byte, max int) ([]byte, int, error) {
	if s.closed {
		return dst, 0, nil
	}
	if !s.filled {
		if err := s.fill(ctx); err != nil {
			return dst, 0, err
		}
	}
	return s.out.AppendRows(ctx, dst, len(s.sortFns), max)
}

func (s *sortIter) Close() {
	if !s.closed {
		s.closed = true
		s.child.Close()
		if s.out != nil {
			s.out.Close()
			s.out = nil
		}
	}
}

// topKIter fuses ORDER BY + LIMIT: it retains only the top
// offset+count input rows in a bounded max-heap while draining its
// child, then projects and emits them in order. Ties are broken by
// arrival sequence so the result is exactly the first offset+count
// rows of the stable full sort. Projection is deferred to the
// surviving rows, so a 100k-row sort for LIMIT 10 evaluates 10
// projections and allocates key slices only for rows that enter the
// heap.
type topKIter struct {
	child   rowIter
	itemFns []evalFn
	sortFns []evalFn
	descs   []bool
	count   int // LIMIT count (>= 0)
	offset  int

	heap    []topEntry
	scratch []value.Value
	out     []schema.Row
	pos     int
	filled  bool
	closed  bool
}

type topEntry struct {
	row  []value.Value
	keys []value.Value
	seq  int
}

func newTopKIter(child rowIter, itemFns, sortFns []evalFn, descs []bool, count, offset int) *topKIter {
	return &topKIter{child: child, itemFns: itemFns, sortFns: sortFns, descs: descs, count: count, offset: offset}
}

// sortsAfter reports whether a belongs after b in the output order
// (keys with per-key direction, then arrival sequence). It is a total
// order because sequences are unique.
func (t *topKIter) sortsAfter(aKeys []value.Value, aSeq int, bKeys []value.Value, bSeq int) bool {
	if c := compareKeys(aKeys, bKeys, t.descs); c != 0 {
		return c > 0
	}
	return aSeq > bSeq
}

// heap invariant: t.heap[0] is the entry that sorts last (max-heap
// under sortsAfter), i.e. the first to be evicted.
func (t *topKIter) heapLess(parent, child int) bool {
	// parent must sort after child.
	return t.sortsAfter(t.heap[parent].keys, t.heap[parent].seq, t.heap[child].keys, t.heap[child].seq)
}

func (t *topKIter) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if t.heapLess(p, i) {
			return
		}
		t.heap[p], t.heap[i] = t.heap[i], t.heap[p]
		i = p
	}
}

func (t *topKIter) siftDown(i int) {
	n := len(t.heap)
	for {
		largest := i
		if l := 2*i + 1; l < n && !t.heapLess(largest, l) {
			largest = l
		}
		if r := 2*i + 2; r < n && !t.heapLess(largest, r) {
			largest = r
		}
		if largest == i {
			return
		}
		t.heap[i], t.heap[largest] = t.heap[largest], t.heap[i]
		i = largest
	}
}

func (t *topKIter) fill(ctx context.Context) error {
	k := t.count + t.offset
	if len(t.scratch) < len(t.sortFns) {
		t.scratch = make([]value.Value, len(t.sortFns))
	}
	seq := 0
	for k > 0 {
		r, err := t.child.Next(ctx)
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		for i, fn := range t.sortFns {
			if t.scratch[i], err = fn(r); err != nil {
				return err
			}
		}
		switch {
		case len(t.heap) < k:
			keys := make([]value.Value, len(t.sortFns))
			copy(keys, t.scratch)
			t.heap = append(t.heap, topEntry{row: r, keys: keys, seq: seq})
			t.siftUp(len(t.heap) - 1)
		case t.sortsAfter(t.heap[0].keys, t.heap[0].seq, t.scratch, seq):
			// Candidate beats the current worst: replace the root.
			keys := make([]value.Value, len(t.sortFns))
			copy(keys, t.scratch)
			t.heap[0] = topEntry{row: r, keys: keys, seq: seq}
			t.siftDown(0)
		}
		seq++
	}
	t.child.Close()
	sort.Slice(t.heap, func(a, b int) bool {
		return t.sortsAfter(t.heap[b].keys, t.heap[b].seq, t.heap[a].keys, t.heap[a].seq)
	})
	start := t.offset
	if start > len(t.heap) {
		start = len(t.heap)
	}
	for _, e := range t.heap[start:] {
		proj := make(schema.Row, len(t.itemFns))
		var err error
		for i, fn := range t.itemFns {
			if proj[i], err = fn(e.row); err != nil {
				return err
			}
		}
		t.out = append(t.out, proj)
	}
	t.heap = nil
	t.filled = true
	return nil
}

func (t *topKIter) Next(ctx context.Context) ([]value.Value, error) {
	if t.closed {
		return nil, nil
	}
	if !t.filled {
		if err := t.fill(ctx); err != nil {
			return nil, err
		}
	}
	if t.pos >= len(t.out) {
		return nil, nil
	}
	r := t.out[t.pos]
	t.pos++
	return r, nil
}

func (t *topKIter) Close() {
	if !t.closed {
		t.closed = true
		t.child.Close()
		t.heap = nil
		t.out = nil
	}
}

// distinctIter drops rows whose encoded key was already seen,
// preserving first-occurrence order (streaming DISTINCT). The dedup
// state is a spill.Deduper: while the key set fits the database's
// memory budget rows stream through exactly as the old map-based
// operator emitted them; past the budget the deduper switches to
// sort-based dedup, and the deferred first occurrences drain from its
// budget-bounded tail — still in arrival order — once the child is
// exhausted.
type distinctIter struct {
	child  rowIter
	seen   *spill.Deduper
	tail   *spill.Iterator
	key    []byte // the row key, rebuilt per row
	closed bool
}

func newDistinctIter(child rowIter, budget *spill.Budget) *distinctIter {
	return &distinctIter{child: child, seen: spill.NewDeduper(budget)}
}

func (d *distinctIter) Next(ctx context.Context) ([]value.Value, error) {
	if d.closed {
		return nil, nil
	}
	for d.tail == nil {
		r, err := d.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if r == nil {
			if !d.seen.Spilled() {
				return nil, nil
			}
			if d.tail, err = d.seen.Tail(ctx); err != nil {
				return nil, err
			}
			break
		}
		d.key = value.AppendRowKey(d.key[:0], r)
		emit, err := d.seen.Admit(string(d.key), r)
		if err != nil {
			return nil, err
		}
		if emit {
			return r, nil
		}
	}
	rec, err := d.tail.Next(ctx)
	if err != nil || rec == nil {
		return nil, err
	}
	return spill.TailRow(rec), nil
}

func (d *distinctIter) Close() {
	if !d.closed {
		d.closed = true
		d.child.Close()
		d.seen.Close()
		if d.tail != nil {
			d.tail.Close()
			d.tail = nil
		}
	}
}

// concatIter streams its children one after another (the UNION ALL
// shape). Exhausted children are closed eagerly so their scan state is
// released while later branches run.
type concatIter struct {
	its    []rowIter
	pos    int
	closed bool
}

func newConcatIter(its []rowIter) *concatIter { return &concatIter{its: its} }

func (c *concatIter) Next(ctx context.Context) ([]value.Value, error) {
	if c.closed {
		return nil, nil
	}
	for c.pos < len(c.its) {
		r, err := c.its[c.pos].Next(ctx)
		if err != nil || r != nil {
			return r, err
		}
		c.its[c.pos].Close()
		c.pos++
	}
	return nil, nil
}

func (c *concatIter) Close() {
	if !c.closed {
		c.closed = true
		for _, it := range c.its {
			it.Close()
		}
	}
}

// limitIter implements OFFSET/LIMIT with early termination: once count
// rows have been emitted it closes its child, so nothing upstream pulls
// another row from storage. count < 0 means no count bound (OFFSET
// only).
type limitIter struct {
	child   rowIter
	offset  int64
	count   int64
	skipped int64
	emitted int64
	closed  bool
}

func newLimitIter(child rowIter, count, offset int64) *limitIter {
	return &limitIter{child: child, count: count, offset: offset}
}

func (l *limitIter) Next(ctx context.Context) ([]value.Value, error) {
	if l.closed {
		return nil, nil
	}
	if l.count >= 0 && l.emitted >= l.count {
		l.Close()
		return nil, nil
	}
	for l.skipped < l.offset {
		r, err := l.child.Next(ctx)
		if err != nil || r == nil {
			return nil, err
		}
		l.skipped++
	}
	r, err := l.child.Next(ctx)
	if err != nil || r == nil {
		return nil, err
	}
	l.emitted++
	if l.count >= 0 && l.emitted >= l.count {
		// The bound is reached; release upstream state eagerly but keep
		// emitting this row.
		l.child.Close()
	}
	return r, nil
}

func (l *limitIter) Close() {
	if !l.closed {
		l.closed = true
		l.child.Close()
	}
}

// drainInto pulls the iterator dry, appending every row to rs.
func drainInto(ctx context.Context, it rowIter, rs *schema.ResultSet) error {
	for {
		r, err := it.Next(ctx)
		if err != nil {
			return err
		}
		if r == nil {
			return nil
		}
		rs.Rows = append(rs.Rows, r)
	}
}
