package spill

import (
	"math"

	"myriad/internal/schema"
	"myriad/internal/value"
)

// radixKeys maps a single sort key whose values are all non-NULL INTs,
// or all non-NULL FLOATs without NaN, to unsigned integers in
// schema.CompareRowsBy's order: the sign bit flipped for ints; for
// floats, -0.0 folded into 0.0 (they tie) and the IEEE bits made
// monotone. DESC inverts every bit. Such a key is totally ordered, so
// its stable sort is unique and radixSort finds it without a
// comparator. The keys go into dst, reallocated only when it is too
// short. nil for any other key list, which sorts through CompareRowsBy.
func radixKeys(dst []uint64, rows []schema.Row, keys []schema.SortKey) []uint64 {
	if len(keys) != 1 || len(rows) == 0 {
		return nil
	}
	col := keys[0].Col
	kind := rows[0][col].K
	if kind != value.KindInt && kind != value.KindFloat {
		return nil
	}
	u := resize(dst, len(rows))
	for i, r := range rows {
		v := &r[col]
		if v.K != kind {
			return nil
		}
		if kind == value.KindInt {
			u[i] = v.N ^ 1<<63
			continue
		}
		f := v.RawFloat()
		if math.IsNaN(f) {
			return nil
		}
		if f == 0 {
			f = 0
		}
		b := math.Float64bits(f)
		if b>>63 == 1 {
			b = ^b
		} else {
			b |= 1 << 63
		}
		u[i] = b
	}
	if keys[0].Desc {
		for i := range u {
			u[i] = ^u[i]
		}
	}
	return u
}

// radixSort stably sorts perm, the identity permutation of key's
// indexes, by key: least significant byte first, one counting pass per
// byte, skipping a byte every key shares. Stability keeps ties in
// arrival order, as the comparator sort's index tie-break does. key is
// reordered along with perm; perm2 and key2, as long as perm, are the
// passes' scratch.
func radixSort(perm []int32, key []uint64, perm2 []int32, key2 []uint64) {
	n := len(perm)
	k2, p2 := key2[:n], perm2[:n]
	p := perm
	for shift := 0; shift < 64; shift += 8 {
		var start [256]int
		for _, x := range key {
			start[byte(x>>shift)]++
		}
		if start[byte(key[0]>>shift)] == n {
			continue
		}
		at := 0
		for b, c := range start {
			start[b] = at
			at += c
		}
		for i, x := range key {
			j := &start[byte(x>>shift)]
			k2[*j], p2[*j] = x, p[i]
			*j++
		}
		key, k2 = k2, key
		p, p2 = p2, p
	}
	copy(perm, p)
}
