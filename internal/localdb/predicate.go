package localdb

import (
	"fmt"
	"math"
	"strings"

	"myriad/internal/schema"
	"myriad/internal/sqlparser"
	"myriad/internal/value"
)

// Truth is a SQL three-valued truth value.
type Truth uint8

// The three truth values. A row qualifies for a WHERE, ON or HAVING
// clause only when its predicate is True.
const (
	False Truth = iota
	True
	Unknown
)

// Predicate is a compiled condition evaluated against a runtime row. It
// reports the condition's truth without building a value.Value for it,
// and allocates nothing per row.
type Predicate func(row []value.Value) (Truth, error)

// isPredicate reports whether e is a boolean operator: AND, OR, NOT, a
// comparison, IS [NOT] NULL, IN, BETWEEN or LIKE. compilePred compiles
// these; compileExpr wraps them to yield a BOOLEAN or NULL value.
func isPredicate(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		_, cmp := cmpMasks[x.Op]
		return cmp || x.Op == "AND" || x.Op == "OR" || x.Op == "LIKE"
	case *sqlparser.UnaryExpr:
		return x.Op == "NOT"
	case *sqlparser.IsNullExpr, *sqlparser.InExpr, *sqlparser.BetweenExpr:
		return true
	}
	return false
}

// compilePred compiles e as a condition. Boolean operators compile to
// predicate nodes; comparisons, BETWEEN and IN between a column and
// constants get typed leaves (see constant). Any other expression is
// evaluated as a value and read through truthOf, so a TEXT operand of
// AND, OR or NOT, or a TEXT WHERE clause, is an error.
func compilePred(e sqlparser.Expr, r resolver) (Predicate, error) {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		if m, ok := cmpMasks[x.Op]; ok {
			return compileCompare(x, m, r)
		}
		switch x.Op {
		case "AND", "OR":
			l, err := compilePred(x.L, r)
			if err != nil {
				return nil, err
			}
			rt, err := compilePred(x.R, r)
			if err != nil {
				return nil, err
			}
			if x.Op == "AND" {
				return andPred(l, rt), nil
			}
			return orPred(l, rt), nil
		case "LIKE":
			l, err := compileExpr(x.L, r)
			if err != nil {
				return nil, err
			}
			rt, err := compileExpr(x.R, r)
			if err != nil {
				return nil, err
			}
			return func(row []value.Value) (Truth, error) {
				lv, err := l(row)
				if err != nil {
					return Unknown, err
				}
				rv, err := rt(row)
				if err != nil {
					return Unknown, err
				}
				return truthOf(value.Like(lv, rv))
			}, nil
		}

	case *sqlparser.UnaryExpr:
		if x.Op == "NOT" {
			sub, err := compilePred(x.E, r)
			if err != nil {
				return nil, err
			}
			return func(row []value.Value) (Truth, error) {
				t, err := sub(row)
				if t == Unknown || err != nil {
					return Unknown, err
				}
				return t ^ True, nil
			}, nil
		}

	case *sqlparser.IsNullExpr:
		sub, err := compileExpr(x.E, r)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(row []value.Value) (Truth, error) {
			v, err := sub(row)
			if err != nil {
				return Unknown, err
			}
			return boolTruth(v.IsNull() != not), nil
		}, nil

	case *sqlparser.InExpr:
		return compileIn(x, r)

	case *sqlparser.BetweenExpr:
		return compileBetween(x, r)
	}

	fn, err := compileExpr(e, r)
	if err != nil {
		return nil, err
	}
	return func(row []value.Value) (Truth, error) { return truthOf(fn(row)) }, nil
}

// andPred and orPred evaluate left to right and skip the right operand
// once the left one decides the result.
func andPred(l, r Predicate) Predicate {
	return func(row []value.Value) (Truth, error) {
		a, err := l(row)
		if a == False || err != nil {
			return a, err
		}
		b, err := r(row)
		if b == False || err != nil {
			return b, err
		}
		return max(a, b), nil // True unless either is Unknown
	}
}

func orPred(l, r Predicate) Predicate {
	return func(row []value.Value) (Truth, error) {
		a, err := l(row)
		if a == True || err != nil {
			return a, err
		}
		b, err := r(row)
		if b == True || err != nil {
			return b, err
		}
		return max(a, b), nil // False unless either is Unknown
	}
}

// truthOf reads a value as a condition: NULL is Unknown and numbers are
// true when non-zero (value.Value.Bool). A TEXT value is an error. err
// passes a producing call's error through.
func truthOf(v value.Value, err error) (Truth, error) {
	if err != nil || v.IsNull() {
		return Unknown, err
	}
	b, ok := v.Bool()
	if !ok {
		return Unknown, fmt.Errorf("localdb: predicate evaluated to %s", v.K)
	}
	return boolTruth(b), nil
}

func boolTruth(b bool) Truth {
	if b {
		return True
	}
	return False
}

// truthValue is t as a BOOLEAN value, NULL for Unknown.
func truthValue(t Truth) value.Value {
	if t == Unknown {
		return value.Null()
	}
	return value.NewBool(t == True)
}

// cmpMask encodes a comparison operator as the set of value.Compare
// outcomes it accepts: bit c+1 for outcome c in {-1, 0, +1}.
type cmpMask uint8

const (
	maskLT cmpMask = 1 << iota
	maskEQ
	maskGT
)

var cmpMasks = map[string]cmpMask{
	"=": maskEQ, "<>": maskLT | maskGT,
	"<": maskLT, "<=": maskLT | maskEQ,
	">": maskGT, ">=": maskGT | maskEQ,
}

// test reports whether outcome c (-1, 0 or +1) satisfies the operator.
func (m cmpMask) test(c int) Truth { return Truth(m>>uint(c+1)) & 1 }

// swap turns the mask of "a op b" into the mask of "b op a".
func (m cmpMask) swap() cmpMask { return m&maskEQ | (m&maskLT)<<2 | (m&maskGT)>>2 }

// compileCompare compiles a comparison. "column op constant" and
// "constant op column" get a typed leaf; anything else compares two
// evaluated values.
func compileCompare(x *sqlparser.BinaryExpr, m cmpMask, r resolver) (Predicate, error) {
	l, err := compileExpr(x.L, r)
	if err != nil {
		return nil, err
	}
	rt, err := compileExpr(x.R, r)
	if err != nil {
		return nil, err
	}
	if slot, ok := slotOf(x.L, r); ok {
		if k, ok := constOf(x.R, r); ok {
			return cmpSlot(slot, k, m), nil
		}
	}
	if slot, ok := slotOf(x.R, r); ok {
		if k, ok := constOf(x.L, r); ok {
			return cmpSlot(slot, k, m.swap()), nil
		}
	}
	return func(row []value.Value) (Truth, error) {
		lv, err := l(row)
		if err != nil {
			return Unknown, err
		}
		rv, err := rt(row)
		if err != nil {
			return Unknown, err
		}
		c, ok := value.Compare(lv, rv)
		if !ok {
			return Unknown, nil
		}
		return m.test(c), nil
	}, nil
}

func cmpSlot(slot int, k constant, m cmpMask) Predicate {
	return func(row []value.Value) (Truth, error) {
		if slot >= len(row) {
			return Unknown, errShortRow(slot)
		}
		c, ok := k.compare(&row[slot])
		if !ok {
			return Unknown, nil
		}
		return m.test(c), nil
	}
}

func compileBetween(x *sqlparser.BetweenExpr, r resolver) (Predicate, error) {
	sub, err := compileExpr(x.E, r)
	if err != nil {
		return nil, err
	}
	lo, err := compileExpr(x.Lo, r)
	if err != nil {
		return nil, err
	}
	hi, err := compileExpr(x.Hi, r)
	if err != nil {
		return nil, err
	}
	not := x.Not
	if slot, ok := slotOf(x.E, r); ok {
		if klo, ok := constOf(x.Lo, r); ok {
			if khi, ok := constOf(x.Hi, r); ok {
				return func(row []value.Value) (Truth, error) {
					if slot >= len(row) {
						return Unknown, errShortRow(slot)
					}
					v := &row[slot]
					c1, ok1 := klo.compare(v)
					c2, ok2 := khi.compare(v)
					return between(c1, ok1, c2, ok2, not), nil
				}, nil
			}
		}
	}
	return func(row []value.Value) (Truth, error) {
		v, err := sub(row)
		if err != nil {
			return Unknown, err
		}
		lv, err := lo(row)
		if err != nil {
			return Unknown, err
		}
		hv, err := hi(row)
		if err != nil {
			return Unknown, err
		}
		c1, ok1 := value.Compare(v, lv)
		c2, ok2 := value.Compare(v, hv)
		return between(c1, ok1, c2, ok2, not), nil
	}, nil
}

// between is BETWEEN's outcome given the comparisons with both bounds;
// an incomparable bound makes it Unknown.
func between(c1 int, ok1 bool, c2 int, ok2 bool, not bool) Truth {
	if !ok1 || !ok2 {
		return Unknown
	}
	return boolTruth((c1 >= 0 && c2 <= 0) != not)
}

// compileIn compiles "e [NOT] IN (list)". A list of constants becomes an
// inList; a list that reads columns evaluates its items per row.
func compileIn(x *sqlparser.InExpr, r resolver) (Predicate, error) {
	sub, err := compileExpr(x.E, r)
	if err != nil {
		return nil, err
	}
	items := make([]evalFn, len(x.List))
	for i, it := range x.List {
		if items[i], err = compileExpr(it, r); err != nil {
			return nil, err
		}
	}
	not := x.Not
	if set, ok := newInList(x.List, r); ok {
		if slot, ok := slotOf(x.E, r); ok {
			return func(row []value.Value) (Truth, error) {
				if slot >= len(row) {
					return Unknown, errShortRow(slot)
				}
				return set.test(&row[slot], not), nil
			}, nil
		}
		return func(row []value.Value) (Truth, error) {
			v, err := sub(row)
			if err != nil {
				return Unknown, err
			}
			return set.test(&v, not), nil
		}, nil
	}
	return func(row []value.Value) (Truth, error) {
		v, err := sub(row)
		if err != nil || v.IsNull() {
			return Unknown, err
		}
		sawNull := false
		for _, item := range items {
			iv, err := item(row)
			if err != nil {
				return Unknown, err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			if eq, ok := value.Equal(v, iv); ok && eq {
				return boolTruth(!not), nil
			}
		}
		if sawNull {
			return Unknown, nil // SQL: x IN (..., NULL) is UNKNOWN when no match
		}
		return boolTruth(not), nil
	}, nil
}

// inHashMin is the list length from which an IN list of constants is
// probed through a key set rather than walked.
const inHashMin = 8

// inList is an IN predicate's list of constants. A long list whose items
// share one kind class (all numeric or all TEXT) also keeps a set of
// their value.AppendKey keys. A probe uses the set only where key
// equality is exactly value.Compare's equality for it; every other
// probe walks the list, so both paths give the same answer.
type inList struct {
	items   []constant // the non-NULL items, in list order
	hasNull bool
	set     map[string]struct{} // nil for short or mixed lists
	text    bool                // set holds TEXT keys, else numeric ones
	// hasFloat and wideInt qualify numeric probes: an INTEGER probe
	// beyond ±2^53 compares inexactly against FLOAT items, and a FLOAT
	// probe against INTEGER items beyond ±2^53.
	hasFloat, wideInt bool
}

func newInList(list []sqlparser.Expr, r resolver) (*inList, bool) {
	s := &inList{}
	numeric, text := true, true
	for _, e := range list {
		k, ok := constOf(e, r)
		if !ok {
			return nil, false
		}
		switch k.v.K {
		case value.KindNull:
			s.hasNull = true
			continue
		case value.KindInt:
			text = false
			i := k.v.RawInt()
			s.wideInt = s.wideInt || i > 1<<53 || i < -(1<<53)
		case value.KindFloat:
			text = false
			s.hasFloat = true
			numeric = numeric && !math.IsNaN(k.v.RawFloat()) // NaN compares equal to every number
		case value.KindText:
			numeric = false
		default:
			numeric, text = false, false
		}
		s.items = append(s.items, k)
	}
	if len(s.items) >= inHashMin && (numeric || text) {
		s.text = text
		s.set = make(map[string]struct{}, len(s.items))
		var buf []byte
		for i := range s.items {
			buf = value.AppendKey(buf[:0], &s.items[i].v)
			s.set[string(buf)] = struct{}{}
		}
	}
	return s, true
}

// test evaluates "v [NOT] IN list".
func (s *inList) test(v *value.Value, not bool) Truth {
	if v.K == value.KindNull {
		return Unknown
	}
	if s.hashes(v) {
		var a [64]byte
		if _, ok := s.set[string(value.AppendKey(a[:0], v))]; ok {
			return boolTruth(!not)
		}
	} else {
		for i := range s.items {
			if c, ok := s.items[i].compare(v); ok && c == 0 {
				return boolTruth(!not)
			}
		}
	}
	if s.hasNull {
		return Unknown
	}
	return boolTruth(not)
}

// hashes reports whether the key set answers exactly for probe v.
func (s *inList) hashes(v *value.Value) bool {
	if s.set == nil {
		return false
	}
	switch v.K {
	case value.KindText:
		return s.text
	case value.KindInt:
		i := v.RawInt()
		return !s.text && (!s.hasFloat || (i <= 1<<53 && i >= -(1<<53)))
	case value.KindFloat:
		return !s.text && !s.wideInt && !math.IsNaN(v.RawFloat())
	}
	return false
}

// constant is the constant side of a typed leaf: a literal, or a
// column-free expression folded once at compile time.
type constant struct {
	v value.Value
	f float64 // v widened to float64 when numeric
}

// compare returns value.Compare(*v, k.v). (INTEGER, INTEGER), mixed
// numeric and (TEXT, TEXT) pairs compare inline, with Compare's float
// widening and NaN handling; every other pairing calls Compare.
func (k *constant) compare(v *value.Value) (int, bool) {
	switch v.K {
	case value.KindInt:
		switch k.v.K {
		case value.KindInt:
			a, b := v.RawInt(), k.v.RawInt()
			return cmp3(a < b, a > b), true
		case value.KindFloat:
			f := float64(v.RawInt())
			return cmp3(f < k.f, f > k.f), true
		}
	case value.KindFloat:
		if k.v.K == value.KindInt || k.v.K == value.KindFloat {
			f := v.RawFloat()
			return cmp3(f < k.f, f > k.f), true
		}
	case value.KindText:
		if k.v.K == value.KindText {
			return strings.Compare(v.S, k.v.S), true
		}
	}
	return value.Compare(*v, k.v)
}

// cmp3 is -1, +1 or 0 (neither less nor greater, which is also how a
// NaN compares).
func cmp3(less, greater bool) int {
	switch {
	case less:
		return -1
	case greater:
		return 1
	}
	return 0
}

// constOf folds e to a constant when it reads no column. It reports
// false when e reads a column or folding fails: a failing expression is
// left to run time, so its error surfaces per row as it always has.
func constOf(e sqlparser.Expr, r resolver) (constant, bool) {
	free := true
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		switch x.(type) {
		case *sqlparser.ColumnRef, *sqlparser.SlotRef:
			free = false
		}
		return free
	})
	if !free {
		return constant{}, false
	}
	fn, err := compileExpr(e, r) // rejects aggregates
	if err != nil {
		return constant{}, false
	}
	v, err := fn(nil)
	if err != nil {
		return constant{}, false
	}
	k := constant{v: v}
	if v.K == value.KindInt || v.K == value.KindFloat {
		k.f, _ = v.Float()
	}
	return k, true
}

// slotOf reports the row slot e reads when e is a bare column reference.
func slotOf(e sqlparser.Expr, r resolver) (int, bool) {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		slot, err := r.resolve(x.Table, x.Column)
		return slot, err == nil
	case *sqlparser.SlotRef:
		return x.Slot, true
	}
	return 0, false
}

func errShortRow(slot int) error {
	return fmt.Errorf("localdb: row too short for slot %d", slot)
}

// CompileRowPredicate compiles e into a predicate over rows shaped by
// sc: the engine's own predicate compiler, exported for filtering rows
// outside it. The executor's bypass uses it to apply a residual WHERE
// inline on the fan-in instead of routing the stream through the
// residual pipeline; a row qualifies when the predicate returns True.
// Column references may be bare or qualified by any of quals
// (case-insensitive). Aggregates and unresolvable references fail
// compilation, so callers can probe an expression and fall back when it
// does not fit. reads marks the columns of sc the predicate reads; it
// reads no others, so a caller may leave them undecoded.
func CompileRowPredicate(e sqlparser.Expr, sc *schema.Schema, quals ...string) (pred Predicate, reads []bool, err error) {
	r := &schemaResolver{sc: sc, quals: quals, reads: make([]bool, len(sc.Columns))}
	pred, err = compilePred(e, r)
	return pred, r.reads, err
}

// schemaResolver binds column references directly to one schema's
// column positions, marking each column it binds.
type schemaResolver struct {
	sc    *schema.Schema
	quals []string
	reads []bool
}

func (r *schemaResolver) resolve(table, column string) (int, error) {
	if table != "" {
		known := false
		for _, q := range r.quals {
			if strings.EqualFold(q, table) {
				known = true
				break
			}
		}
		if !known {
			return 0, fmt.Errorf("localdb: unknown table or alias %q", table)
		}
	}
	ci := r.sc.ColIndex(column)
	if ci < 0 {
		return 0, fmt.Errorf("localdb: unknown column %q", column)
	}
	r.reads[ci] = true
	return ci, nil
}
