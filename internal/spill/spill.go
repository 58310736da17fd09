// Package spill is the federation's memory-bounded execution layer: a
// byte-accounted Budget shared by the blocking operators of one query,
// and an external merge sorter that accumulates rows in memory up to
// the budget, spills sorted runs to disk, and streams them back as a
// stable k-way merge. The component engine's full-sort path, the
// integration layer's OUTERJOIN-MERGE combiner, and the executor's
// residual pipeline all spill through this package, so a federated ORDER
// BY without LIMIT over more rows than memory completes instead of
// ballooning the mediator.
//
// Run format: a run is one temp file ("myriad-spill-*.run" under the
// budget's directory) holding batches of up to runBatchRows rows in
// sorted order. A batch is uvarint row count, uvarint byte length, then
// that many bytes of rows in the shared row codec (value.AppendRow) —
// the encoding WAL records and comm batch frames use. Stability
// is preserved end to end: rows are assigned to runs in arrival order,
// sorted stably within a run, and every merge — run compaction and the
// final read-back — breaks key ties toward the lower run index, so the
// merged stream reproduces exactly the stable in-memory sort of the
// full input. Temp files are removed when the sorter or its iterator
// closes, including mid-stream on error or query cancellation.
package spill

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"sync"

	"myriad/internal/schema"
	"myriad/internal/value"
)

const (
	// runBatchRows is the batching granularity inside a run file.
	runBatchRows = 128
	// maxMergeFanIn bounds how many runs a single merge reads at once;
	// past it runs are compacted level-wise into larger runs first, so
	// file descriptors and merge heads stay bounded however tiny the
	// budget is relative to the input.
	maxMergeFanIn = 64
)

// EnvBudgetVar, when set to a byte count, gives every component
// database and executor query a budget of that many bytes by default —
// the test hook CI uses to force the whole suite through the spill
// paths.
const EnvBudgetVar = "MYRIAD_TEST_MEM_BUDGET"

// Budget is a shared byte account for one query's (or one component
// database's) blocking operators. Consumers Reserve bytes as they
// buffer rows and Release them when they spill or finish; a failed
// Reserve is the signal to spill. A nil *Budget is valid everywhere
// and means "unlimited, never spill".
type Budget struct {
	mu    sync.Mutex
	limit int64 // 0 = unlimited (still counts usage and carries the dir)
	used  int64
	dir   string

	spilledBytes int64
	spillRuns    int64
}

// NewBudget creates a budget of limit bytes (0 = unlimited) spilling
// into dir ("" = the OS temp directory).
func NewBudget(limit int64, dir string) *Budget {
	return &Budget{limit: limit, dir: dir}
}

// EnvBudget returns a fresh budget configured from MYRIAD_TEST_MEM_BUDGET,
// or nil when the variable is unset or unparsable.
func EnvBudget() *Budget {
	s := os.Getenv(EnvBudgetVar)
	if s == "" {
		return nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return nil
	}
	return NewBudget(n, "")
}

// Limit reports the configured byte limit (0 = unlimited).
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// Dir is the directory spill files are created in.
func (b *Budget) Dir() string {
	if b == nil || b.dir == "" {
		return os.TempDir()
	}
	return b.dir
}

// Reserve tries to account n more buffered bytes. It reports false —
// without reserving — when that would exceed the limit; the caller
// should spill and retry (or Force).
func (b *Budget) Reserve(n int64) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.limit > 0 && b.used+n > b.limit {
		return false
	}
	b.used += n
	return true
}

// Force reserves n bytes unconditionally — used when a single row
// exceeds the whole budget and holding it is the only way forward.
func (b *Budget) Force(n int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.used += n
	b.mu.Unlock()
}

// Release returns n previously reserved bytes.
func (b *Budget) Release(n int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.used -= n
	if b.used < 0 {
		b.used = 0
	}
	b.mu.Unlock()
}

// Used reports the bytes currently reserved.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// noteRun records one spilled run of the given size.
func (b *Budget) noteRun(bytes int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.spilledBytes += bytes
	b.spillRuns++
	b.mu.Unlock()
}

// Stats reports the total bytes written to spill files and the number
// of runs written since the budget was created (monotonic; compaction
// passes count too).
func (b *Budget) Stats() (spilledBytes, spillRuns int64) {
	if b == nil {
		return 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spilledBytes, b.spillRuns
}

// ---------------------------------------------------------------------
// External merge sorter

// Sorter accumulates rows, keeping them in memory while the budget
// allows and spilling stable-sorted runs to disk past it. Finish
// returns the merged stream; Close abandons the sort, removing any
// runs. Not safe for concurrent use (give each producer its own Sorter
// over a shared Budget).
type Sorter struct {
	budget   *Budget
	keys     []schema.SortKey // nil under NewSorterFunc
	need     []bool           // the columns cmp reads; nil = any of them
	cmp      func(a, b schema.Row) int
	rows     []schema.Row
	reserved int64
	runs     []*runFile
	finished bool

	// One run's sort scratch, reused by every run.
	sorted        []schema.Row
	perm, perm2   []int32
	radix, radix2 []uint64
}

// NewSorter creates a sorter ordering rows by keys (via
// schema.CompareRowsBy) under budget (nil = unlimited, never spills).
// A single INT or FLOAT key with no NULL or NaN in a batch of buffered
// rows sorts by radix (radixKeys) instead. A spilled merge decodes only
// the key columns of its runs' rows.
func NewSorter(budget *Budget, keys []schema.SortKey) *Sorter {
	need := []bool{}
	for _, k := range keys {
		if k.Col >= len(need) {
			need = append(need, make([]bool, k.Col+1-len(need))...)
		}
		need[k.Col] = true
	}
	return &Sorter{budget: budget, keys: keys, need: need, cmp: func(a, b schema.Row) int {
		return schema.CompareRowsBy(a, b, keys)
	}}
}

// NewSorterFunc is NewSorter with an explicit comparator. The merge
// machinery assumes cmp is a total, transitive order: rows comparing
// equal must form one contiguous range in any sorted sequence, or a
// consumer grouping the merged stream (the OUTERJOIN-MERGE combiner)
// would see one group split. cmp may read any column, so a spilled
// merge decodes whole rows.
func NewSorterFunc(budget *Budget, cmp func(a, b schema.Row) int) *Sorter {
	return &Sorter{budget: budget, cmp: cmp}
}

// Add appends one row in arrival order, spilling the buffered rows as
// a sorted run when the budget is exhausted. Without a limit the
// per-row sizing is skipped entirely — the unbudgeted path costs what
// the old in-memory append did.
func (s *Sorter) Add(row schema.Row) error {
	if s.budget.Limit() <= 0 {
		s.rows = append(s.rows, row)
		return nil
	}
	n := schema.RowBytes(row)
	if !s.budget.Reserve(n) {
		if len(s.rows) > 0 {
			if err := s.flushRun(); err != nil {
				return err
			}
		}
		if !s.budget.Reserve(n) {
			// A single row larger than the remaining budget: hold it
			// anyway, there is no smaller unit to spill.
			s.budget.Force(n)
		}
	}
	s.reserved += n
	s.rows = append(s.rows, row)
	return nil
}

// resize returns s with length n, reallocated only when its capacity
// falls short.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// sortRows stable-sorts the buffered rows: an unstable typed sort over
// an index permutation whose comparator breaks key ties by arrival
// index is exactly the stable order, and the rows then move once
// instead of being swapped through reflection on every exchange. A
// key radixKeys can map sorts by radix, which gives the same order.
// The permutation, radix keys and sorted rows live in buffers the next
// run reuses; the sorted rows and the buffer they came from trade
// places.
func (s *Sorter) sortRows() {
	rows := s.rows
	if len(rows) < 2 {
		return
	}
	s.perm = resize(s.perm, len(rows))
	perm := s.perm
	for i := range perm {
		perm[i] = int32(i)
	}
	if u := radixKeys(s.radix, rows, s.keys); u != nil {
		s.radix = u
		s.perm2, s.radix2 = resize(s.perm2, len(rows)), resize(s.radix2, len(rows))
		radixSort(perm, u, s.perm2, s.radix2)
	} else {
		slices.SortFunc(perm, func(a, b int32) int {
			if c := s.cmp(rows[a], rows[b]); c != 0 {
				return c
			}
			return int(a) - int(b)
		})
	}
	sorted := resize(s.sorted, len(rows))
	for i, p := range perm {
		sorted[i] = rows[p]
	}
	s.rows, s.sorted = sorted, rows
}

// flushRun writes the buffered rows, stable-sorted, as one run file
// and releases their reservation. The row buffers are cleared, so the
// written rows can be collected, and kept for the next run.
func (s *Sorter) flushRun() error {
	s.sortRows()
	rf, err := writeRun(s.budget, s.rows)
	if err != nil {
		return err
	}
	s.runs = append(s.runs, rf)
	clear(s.rows)
	clear(s.sorted)
	s.rows = s.rows[:0]
	s.budget.Release(s.reserved)
	s.reserved = 0
	return nil
}

// Finish seals the sorter and returns the sorted stream. With no runs
// it is the stable in-memory sort; otherwise the remainder spills as a
// final run and the runs merge back (compacted level-wise first when
// they outnumber the merge fan-in). The iterator takes ownership of
// the runs and the reservation; Close it to release both.
func (s *Sorter) Finish() (*Iterator, error) {
	s.finished = true
	if len(s.runs) == 0 {
		s.sortRows()
		it := &Iterator{mem: s.rows, budget: s.budget, reserved: s.reserved}
		s.rows, s.sorted, s.reserved = nil, nil, 0
		return it, nil
	}
	if len(s.rows) > 0 {
		if err := s.flushRun(); err != nil {
			// Release the remainder's reservation too: on a long-lived
			// (per-database) budget a leak here would pin `used` near
			// the limit forever.
			closeRuns(s.runs)
			s.runs = nil
			s.rows, s.sorted = nil, nil
			s.budget.Release(s.reserved)
			s.reserved = 0
			return nil, err
		}
	}
	s.rows, s.sorted = nil, nil
	runs := s.runs
	s.runs = nil
	// Level-wise compaction over contiguous groups keeps group order,
	// so the lower-index-wins tie-break still reproduces arrival order.
	for len(runs) > maxMergeFanIn {
		next := make([]*runFile, 0, (len(runs)+maxMergeFanIn-1)/maxMergeFanIn)
		for i := 0; i < len(runs); i += maxMergeFanIn {
			j := i + maxMergeFanIn
			if j > len(runs) {
				j = len(runs)
			}
			if j-i == 1 {
				next = append(next, runs[i])
				continue
			}
			merged, err := compactRuns(s.budget, s.cmp, s.need, runs[i:j])
			if err != nil {
				closeRuns(next)
				closeRuns(runs[i:])
				return nil, err
			}
			next = append(next, merged)
		}
		runs = next
	}
	m, err := newRunMerge(s.cmp, runs)
	if err != nil {
		closeRuns(runs)
		return nil, err
	}
	return &Iterator{merge: m, need: s.need, budget: s.budget}, nil
}

// Close abandons an unfinished sort: buffered rows are dropped, runs
// removed, the reservation released. After Finish it is a no-op (the
// iterator owns the state). Idempotent.
func (s *Sorter) Close() {
	if s.finished {
		return
	}
	s.finished = true
	closeRuns(s.runs)
	s.runs = nil
	s.rows, s.sorted = nil, nil
	s.budget.Release(s.reserved)
	s.reserved = 0
}

// Iterator streams the sorted rows. Next and AppendRows honor ctx —
// disk-backed iteration stays cancellable — and Close removes the
// backing temp files; both in-memory and spilled sorts behave
// identically to the caller. A stream is read by Next or by
// AppendRows, never both: a spilled sort's merge starts on the first
// call, and under Next its cursors decode whole rows, under AppendRows
// only the columns need marks.
type Iterator struct {
	budget   *Budget
	mem      []schema.Row
	pos      int
	reserved int64
	merge    *runMerge
	need     []bool // the sorter's key columns; nil under NewSorterFunc
	err      error  // the merge's first error, returned from then on
	closed   bool
}

// Spilled reports whether the sort went to disk.
func (it *Iterator) Spilled() bool { return it.merge != nil }

// Next returns the next row in sort order, or nil at the end. A
// spilled row shares one value array with the rows around it and
// stays valid after later calls.
func (it *Iterator) Next(ctx context.Context) (schema.Row, error) {
	if err := schema.Canceled(ctx); err != nil {
		return nil, err
	}
	if it.closed {
		return nil, nil
	}
	if it.merge == nil {
		if it.pos >= len(it.mem) {
			return nil, nil
		}
		r := it.mem[it.pos]
		it.pos++
		return r, nil
	}
	c, err := it.mergeNext(nil)
	if err != nil || c == nil {
		return nil, err
	}
	if c.keys {
		// A merge AppendRows started, against the contract: still
		// give the row.
		row, _, err := value.DecodeRow(nil, c.buf[c.start:c.end])
		return row, err
	}
	return c.row, nil
}

// AppendRows appends up to max next rows to dst in the row codec, each
// without its first skip values — the bytes value.AppendRow gives
// row[skip:] for each row Next would return — and reports how many;
// zero rows and a nil error end the stream. A spilled NewSorter sort
// copies each row's bytes out of its run's batch, decoding nothing
// beyond the merge keys; any other sort encodes its rows. ctx is polled
// once per call.
func (it *Iterator) AppendRows(ctx context.Context, dst []byte, skip, max int) ([]byte, int, error) {
	if err := schema.Canceled(ctx); err != nil {
		return dst, 0, err
	}
	if it.closed {
		return dst, 0, nil
	}
	if it.merge == nil {
		end := min(len(it.mem), it.pos+max)
		for _, r := range it.mem[it.pos:end] {
			dst = value.AppendRow(dst, r[skip:])
		}
		n := end - it.pos
		it.pos = end
		return dst, n, nil
	}
	for n := 0; n < max; n++ {
		c, err := it.mergeNext(it.need)
		if err == nil && c != nil {
			if dst, err = c.appendRow(dst, skip); err != nil {
				it.err = err
			}
		}
		if err != nil || c == nil {
			return dst, n, err
		}
	}
	return dst, max, nil
}

// mergeNext steps the merge, starting it with need when this is the
// first call, and keeps its first error for every later call: a cursor
// that failed has left the merge, so carrying on would silently drop
// its rows.
func (it *Iterator) mergeNext(need []bool) (*runCursor, error) {
	if it.err != nil {
		return nil, it.err
	}
	if !it.merge.started {
		if it.err = it.merge.start(need); it.err != nil {
			return nil, it.err
		}
	}
	c, err := it.merge.next()
	it.err = err
	return c, err
}

// Close releases memory, removes run files, and returns the budget
// reservation. Idempotent, safe mid-stream.
func (it *Iterator) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.mem = nil
	it.budget.Release(it.reserved)
	it.reserved = 0
	if it.merge != nil {
		it.merge.close()
	}
}

// ---------------------------------------------------------------------
// Run files

// runFile is one sorted run on disk. The descriptor is closed as soon
// as the run is written and reopened for the merge, so the number of
// live runs is bounded by disk space, not the process fd limit — a
// tiny budget over a large input can produce thousands of runs. The
// file itself stays on disk until close so leak checks can observe
// cleanup.
type runFile struct {
	name string
}

func closeRuns(runs []*runFile) {
	for _, r := range runs {
		if r != nil {
			r.close()
		}
	}
}

func (r *runFile) close() {
	if r.name != "" {
		os.Remove(r.name)
		r.name = ""
	}
}

// runWriter appends sorted rows to a new run file in length-prefixed
// codec batches.
type runWriter struct {
	budget  *Budget
	f       *os.File
	rf      *runFile
	bw      *bufio.Writer
	batch   []byte // pending rows, encoded
	pending int
	written int64
}

func newRunWriter(budget *Budget) (*runWriter, error) {
	f, err := os.CreateTemp(budget.Dir(), "myriad-spill-*.run")
	if err != nil {
		return nil, fmt.Errorf("spill: creating run: %w", err)
	}
	return &runWriter{budget: budget, f: f, rf: &runFile{name: f.Name()}, bw: bufio.NewWriter(f)}, nil
}

func (w *runWriter) add(row schema.Row) error {
	w.batch = value.AppendRow(w.batch, row)
	return w.added()
}

func (w *runWriter) added() error {
	w.pending++
	if w.pending == runBatchRows {
		return w.flush()
	}
	return nil
}

func (w *runWriter) flush() error {
	if w.pending == 0 {
		return nil
	}
	var hdr [2 * binary.MaxVarintLen64]byte
	h := binary.AppendUvarint(hdr[:0], uint64(w.pending))
	h = binary.AppendUvarint(h, uint64(len(w.batch)))
	_, err := w.bw.Write(h)
	if err == nil {
		_, err = w.bw.Write(w.batch)
	}
	if err != nil {
		return fmt.Errorf("spill: writing run: %w", err)
	}
	w.written += int64(len(h) + len(w.batch))
	w.batch, w.pending = w.batch[:0], 0
	return nil
}

// finish flushes and closes the run, handing it back for the merge to
// reopen; on any failure the file is removed.
func (w *runWriter) finish() (*runFile, error) {
	err := w.flush()
	if err == nil {
		err = w.bw.Flush()
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			err = fmt.Errorf("spill: writing run: %w", err)
		}
	}
	if err != nil {
		w.abandon()
		return nil, err
	}
	w.budget.noteRun(w.written)
	return w.rf, nil
}

// abandon closes and removes a run that will not be finished.
func (w *runWriter) abandon() {
	w.f.Close()
	w.rf.close()
}

// writeRun writes already-sorted rows as one run file and closes the
// descriptor; the merge reopens it.
func writeRun(budget *Budget, rows []schema.Row) (*runFile, error) {
	w, err := newRunWriter(budget)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := w.add(row); err != nil {
			w.abandon()
			return nil, err
		}
	}
	return w.finish()
}

// runCursor reads one run back in order, one codec batch at a time.
// Given need (keys), the batch stays encoded where it was read: a
// value.RowScanner walks it, the head is the current row's bytes,
// buf[start:end], and row holds only the columns need marks, decoded by
// the scanner and overwritten by the next step. Without need the batch
// decodes whole, into fresh values that outlive it, and row is the
// whole head row.
type runCursor struct {
	r          *bufio.Reader
	buf        []byte // the batch being read, reused
	keys       bool
	sc         value.RowScanner
	rows       []schema.Row // !keys: the batch, decoded
	i          int          // !keys: the index of the next row in rows
	row        schema.Row
	start, end int
	ok         bool // the cursor is on a row; false once the run ends
	done       bool
}

func newRunCursor(r io.Reader, need []bool) *runCursor {
	c := &runCursor{r: bufio.NewReader(r), keys: need != nil}
	c.sc.Need = need
	return c
}

// appendRow appends the head row, without its first skip values, to
// dst in the row codec: its bytes as they lie, or its values encoded.
func (c *runCursor) appendRow(dst []byte, skip int) ([]byte, error) {
	if !c.keys {
		return value.AppendRow(dst, c.row[skip:]), nil
	}
	dst, err := value.AppendRowTail(dst, c.buf[c.start:c.end], skip)
	if err != nil {
		return dst, fmt.Errorf("spill: reading run: %w", err)
	}
	return dst, nil
}

// step moves the cursor to its run's next row, reporting false at the
// end of the run.
func (c *runCursor) step() (bool, error) {
	c.ok = false
	for {
		if c.keys {
			start, end, ok, err := c.sc.Next()
			if err != nil {
				return false, fmt.Errorf("spill: reading run: %w", err)
			}
			if ok {
				c.start, c.end, c.row, c.ok = start, end, c.sc.Row, true
				return true, nil
			}
		} else if c.i < len(c.rows) {
			c.row, c.ok = c.rows[c.i], true
			c.i++
			return true, nil
		}
		if c.done {
			return false, nil
		}
		if err := c.readBatch(); err != nil {
			if err == io.EOF {
				c.done = true
				return false, nil
			}
			return false, fmt.Errorf("spill: reading run: %w", err)
		}
	}
}

// readBatch loads the next batch; io.EOF means the run ended cleanly
// on a batch boundary.
func (c *runCursor) readBatch() error {
	n, err := binary.ReadUvarint(c.r)
	if err != nil {
		return err // io.EOF only when no byte of a header was read
	}
	size, err := binary.ReadUvarint(c.r)
	if err != nil {
		return noEOF(err)
	}
	if uint64(cap(c.buf)) < size {
		c.buf = make([]byte, size)
	}
	c.buf = c.buf[:size]
	if _, err := io.ReadFull(c.r, c.buf); err != nil {
		return noEOF(err)
	}
	if c.keys {
		return c.sc.Reset(c.buf, int(n))
	}
	// Rows decode into fresh values (texts are copied out of buf), so
	// only the row headers' slice is reused.
	c.rows, err = value.DecodeRows(c.rows[:0], int(n), c.buf)
	c.i = 0
	return err
}

// noEOF turns an EOF inside a batch into the truncation it is.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// runMerge is a stable k-way merge over sorted runs: minimum key wins,
// ties break toward the lower run index (earlier arrival). It reads
// nothing until start.
type runMerge struct {
	cmp     func(a, b schema.Row) int
	runs    []*runFile
	files   []*os.File
	curs    []*runCursor
	last    *runCursor // the cursor next returned last, stepped on the next call
	started bool
}

func newRunMerge(cmp func(a, b schema.Row) int, runs []*runFile) (*runMerge, error) {
	m := &runMerge{cmp: cmp, runs: runs}
	m.files = make([]*os.File, len(runs))
	for i, r := range runs {
		f, err := os.Open(r.name)
		if err != nil {
			m.close()
			return nil, fmt.Errorf("spill: reopening run: %w", err)
		}
		m.files[i] = f
	}
	return m, nil
}

// start puts a cursor on each run's first row. Its cursors decode the
// columns need marks and keep the rows encoded, or, given nil, decode
// whole rows.
func (m *runMerge) start(need []bool) error {
	m.started = true
	m.curs = make([]*runCursor, len(m.files))
	for i, f := range m.files {
		m.curs[i] = newRunCursor(f, need)
		if _, err := m.curs[i].step(); err != nil {
			return err
		}
	}
	return nil
}

// next returns the cursor whose head is the merge's next row, or nil at
// the end. The head stays put until the following call, which first
// steps that cursor: its bytes are the caller's to copy until then.
func (m *runMerge) next() (*runCursor, error) {
	if c := m.last; c != nil {
		m.last = nil
		if _, err := c.step(); err != nil {
			return nil, err
		}
	}
	var best *runCursor
	for _, c := range m.curs {
		// Strict < keeps the earliest run on ties (stability).
		if c.ok && (best == nil || m.cmp(c.row, best.row) < 0) {
			best = c
		}
	}
	m.last = best
	return best, nil
}

func (m *runMerge) close() {
	for _, f := range m.files {
		if f != nil {
			f.Close()
		}
	}
	m.files = nil
	closeRuns(m.runs)
	m.runs = nil
	m.curs = nil
	m.last = nil
}

// compactRuns merges a contiguous group of runs into one larger run,
// removing the inputs. Given need (the comparator's columns), each row's
// bytes are copied across as they lie; otherwise rows are decoded and
// re-encoded.
func compactRuns(budget *Budget, cmp func(a, b schema.Row) int, need []bool, group []*runFile) (*runFile, error) {
	m, err := newRunMerge(cmp, group)
	if err != nil {
		closeRuns(group)
		return nil, err
	}
	defer m.close() // removes the inputs
	w, err := newRunWriter(budget)
	if err != nil {
		return nil, err
	}
	err = m.start(need)
	for err == nil {
		var c *runCursor
		if c, err = m.next(); err != nil {
			break
		}
		if c == nil {
			return w.finish()
		}
		if w.batch, err = c.appendRow(w.batch, 0); err == nil {
			err = w.added()
		}
	}
	w.abandon()
	return nil, err
}
