package spill

import (
	"cmp"
	"context"
	"strings"

	"myriad/internal/schema"
	"myriad/internal/value"
)

// Deduper is the budget-true first-occurrence-wins filter backing
// DISTINCT, UNION-distinct, and the integration fan-ins. It is a
// hybrid: while the in-memory key set fits the budget it behaves like
// the old streaming dedup map — Admit reports first occurrences
// immediately, preserving whatever order the input arrives in. When
// the set outgrows the budget it switches to sort-based dedup on the
// external merge sorter: the keys already emitted are dumped into the
// sorter as "already seen" markers, every further input row is buffered
// (key, arrival sequence, row) instead of emitted, and Tail streams the
// surviving first occurrences — in their original arrival order — once
// the input is exhausted.
//
// Memory is budget + one group either way: the in-memory phase reserves
// per-key bytes and stops growing the instant a reservation fails; the
// spilled phase holds only the sorter's budgeted buffer, and Tail's
// fold holds one key group at a time. Order is preserved end to end:
// the streamed prefix is arrival order by construction, and the tail is
// re-sorted by arrival sequence before emission, so the concatenation
// is exactly the sequence the unbounded map would have produced. That
// makes the operator safe both after a sort (sorted input stays sorted)
// and in first-occurrence positions (DISTINCT, UNION dedup).
type Deduper struct {
	budget *Budget

	// In-memory phase.
	seen     map[string]struct{}
	reserved int64

	// Spilled phase. Records are [key, seq, row...]; seq -1 marks a key
	// that was already emitted by the in-memory phase.
	sorter  *Sorter
	seq     int64
	spilled bool
	closed  bool
}

// dedupKeyBytes approximates the map-entry overhead per distinct key
// (hash bucket slot, string header) on top of the key bytes.
const dedupKeyBytes = 48

// dedupCmp orders dedup records by key then arrival sequence, so equal
// keys are contiguous and the group's first record carries its earliest
// arrival (or the already-emitted marker, which uses sequence -1).
func dedupCmp(a, b schema.Row) int {
	if c := strings.Compare(a[0].S, b[0].S); c != 0 {
		return c
	}
	return cmp.Compare(a[1].RawInt(), b[1].RawInt())
}

// seqCmp orders surviving records back into arrival order.
func seqCmp(a, b schema.Row) int {
	return cmp.Compare(a[1].RawInt(), b[1].RawInt())
}

// NewDeduper creates a deduper accounted against budget.
func NewDeduper(budget *Budget) *Deduper {
	return &Deduper{budget: budget, seen: make(map[string]struct{})}
}

// Admit offers one row under its dedup key. emit=true means the row is
// a first occurrence the caller should emit now; emit=false means it is
// either a duplicate or deferred to the Tail. The row is retained (and
// possibly written to disk) only in the spilled phase.
func (d *Deduper) Admit(key string, row schema.Row) (emit bool, err error) {
	if !d.spilled {
		if _, dup := d.seen[key]; dup {
			return false, nil
		}
		if d.hold(int64(len(key)) + dedupKeyBytes) {
			d.seen[key] = struct{}{}
			return true, nil
		}
		if err := d.spill(); err != nil {
			return false, err
		}
	}
	rec := make(schema.Row, 2+len(row))
	rec[0] = value.NewText(key)
	rec[1] = value.NewInt(d.seq)
	copy(rec[2:], row)
	d.seq++
	return false, d.sorter.Add(rec)
}

// hold accounts one more key of n bytes, reporting false when the
// budget refuses it. Without a limit nothing is reserved. An empty set
// has nothing to spill, so its first key is held even past the limit,
// as a Sorter holds a row larger than the budget: a dedup scope with
// one distinct key never goes to disk.
func (d *Deduper) hold(n int64) bool {
	switch {
	case d.budget.Limit() <= 0:
		return true
	case len(d.seen) == 0:
		d.budget.Force(n)
	case !d.budget.Reserve(n):
		return false
	}
	d.reserved += n
	return true
}

// spill transitions to the sorted phase: every key the in-memory set
// already emitted becomes a marker record so the tail fold can skip its
// group, then the map's reservation is returned to the budget.
func (d *Deduper) spill() error {
	d.sorter = NewSorterFunc(d.budget, dedupCmp)
	for k := range d.seen {
		if err := d.sorter.Add(schema.Row{value.NewText(k), value.NewInt(-1)}); err != nil {
			return err
		}
	}
	d.seen = nil
	d.budget.Release(d.reserved)
	d.reserved = 0
	d.spilled = true
	return nil
}

// Spilled reports whether the deduper overflowed to disk (the caller
// must then drain Tail after its input is exhausted).
func (d *Deduper) Spilled() bool { return d.spilled }

// Tail returns the deferred first occurrences in arrival order, or nil
// when nothing spilled. It folds the key-sorted records group-at-a-time
// — dropping groups whose earliest record is an already-emitted marker
// and keeping each surviving group's earliest arrival — then re-sorts
// the survivors by arrival sequence through a second budgeted sort, so
// tail memory stays budget-bounded however many keys survived.
func (d *Deduper) Tail(ctx context.Context) (*Iterator, error) {
	if !d.spilled {
		return nil, nil
	}
	it, err := d.sorter.Finish()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	d.sorter = nil
	resort := NewSorterFunc(d.budget, seqCmp)
	curKey := ""
	haveCur := false
	for {
		rec, err := it.Next(ctx)
		if err != nil {
			resort.Close()
			return nil, err
		}
		if rec == nil {
			break
		}
		if haveCur && rec[0].S == curKey {
			continue // later duplicate within the group
		}
		curKey, haveCur = rec[0].S, true
		if rec[1].RawInt() < 0 {
			continue // already emitted by the in-memory phase
		}
		if err := resort.Add(rec); err != nil {
			resort.Close()
			return nil, err
		}
	}
	out, err := resort.Finish()
	if err != nil {
		resort.Close()
		return nil, err
	}
	return out, nil
}

// Close releases the reservation and removes any spill state. Safe to
// call whether or not Tail ran; the Tail iterator is closed separately.
func (d *Deduper) Close() {
	if d.closed {
		return
	}
	d.closed = true
	d.seen = nil
	d.budget.Release(d.reserved)
	d.reserved = 0
	if d.sorter != nil {
		d.sorter.Close()
		d.sorter = nil
	}
}

// TailRow strips a tail record back to the caller's row (the payload
// after the key and sequence columns).
func TailRow(rec schema.Row) schema.Row { return rec[2:] }
