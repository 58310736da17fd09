package schema

import (
	"cmp"
	"strings"

	"myriad/internal/value"
)

// SortKey names one ordering column of a row stream: an index into the
// stream's Columns plus a direction. A stream "ordered by" a key list
// yields rows sorted by the first key, ties broken by the second, and
// so on — the contract the federation's k-way merge fan-in relies on to
// combine pre-sorted site streams without re-sorting.
type SortKey struct {
	Col  int
	Desc bool
}

// OrderedStream is a RowStream that declares a sort order its rows are
// guaranteed to arrive in. Ordering may return nil when the stream
// happens to carry no guarantee (e.g. the statement had no ORDER BY, or
// the order keys are not output columns).
type OrderedStream interface {
	RowStream
	Ordering() []SortKey
}

// StreamOrdering reports the ordering a stream guarantees, or nil when
// the stream makes no promise. Wrappers that do not reorder rows but
// also do not forward the OrderedStream interface erase the guarantee,
// which is always safe (nil just means "treat as unordered").
func StreamOrdering(s RowStream) []SortKey {
	if os, ok := s.(OrderedStream); ok {
		return os.Ordering()
	}
	return nil
}

// CompareRowsBy orders two rows by the given keys. The semantics are
// CompareSort's — the one comparator the component engine's sorts also
// use — because a merged stream of engine-sorted sources must
// interleave on the same order the engines produced, or the merge
// silently reorders. It compares the rows' values in place, without
// copying them.
func CompareRowsBy(a, b Row, keys []SortKey) int {
	for _, k := range keys {
		c := compareSort(&a[k.Col], &b[k.Col])
		if c == 0 {
			continue
		}
		if k.Desc {
			return -c
		}
		return c
	}
	return 0
}

// CompareSort is the federation-wide sort comparator: NULLs first
// ascending (so last under DESC), incomparable values compare equal.
// The component engine's full-sort/top-K paths and the fan-in merge
// both delegate here so their orderings cannot drift apart.
func CompareSort(a, b value.Value) int { return compareSort(&a, &b) }

// compareSort is CompareSort by pointer. Two values of one kind (INT,
// FLOAT or TEXT) compare inline, exactly as value.Compare would; NULLs,
// booleans and kind mixes go through value.Compare.
func compareSort(a, b *value.Value) int {
	if a.K == b.K {
		switch a.K {
		case value.KindInt:
			return cmp.Compare(a.RawInt(), b.RawInt())
		case value.KindFloat:
			return value.CompareFloat(a.RawFloat(), b.RawFloat())
		case value.KindText:
			return strings.Compare(a.S, b.S)
		}
	}
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	c, ok := value.Compare(*a, *b)
	if !ok {
		return 0
	}
	return c
}
