// Package integration implements MYRIAD's schema-integration machinery:
// the relational combinators that derive an integrated relation from the
// export relations of several component databases, and the registry of
// user-defined integration functions that resolve attribute conflicts
// between sources (paper §2: "relations from these databases are merged
// into integrated relations using relational operations as well as
// user-defined integration functions").
package integration

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"myriad/internal/value"
)

// CombineKind selects the relational operation deriving an integrated
// relation from its sources.
type CombineKind uint8

// Supported combinators.
const (
	// UnionAll concatenates source rows (horizontal partitioning).
	UnionAll CombineKind = iota
	// UnionDistinct concatenates and removes duplicate rows.
	UnionDistinct
	// MergeOuter full-outer-joins sources on the integrated key and
	// resolves column conflicts with integration functions (entity
	// integration: the same real-world entity stored at several sites).
	MergeOuter
)

// String names the combinator as used in catalog listings.
func (k CombineKind) String() string {
	switch k {
	case UnionAll:
		return "UNION ALL"
	case UnionDistinct:
		return "UNION"
	case MergeOuter:
		return "OUTERJOIN-MERGE"
	default:
		return fmt.Sprintf("CombineKind(%d)", uint8(k))
	}
}

// ParseCombine maps catalog text to a CombineKind.
func ParseCombine(s string) (CombineKind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "UNION ALL", "UNIONALL", "ALL":
		return UnionAll, nil
	case "UNION", "UNION DISTINCT", "DISTINCT":
		return UnionDistinct, nil
	case "OUTERJOIN-MERGE", "MERGE", "OUTERJOIN":
		return MergeOuter, nil
	default:
		return 0, fmt.Errorf("integration: unknown combinator %q", s)
	}
}

// Func is a user-defined integration function: it receives the candidate
// values for one integrated attribute, ordered by source position (NULL
// where a source has no row for the entity), and returns the resolved
// value.
type Func func(vals []value.Value) (value.Value, error)

// registry of integration functions; guarded for concurrent DefineFunc
// against query-time lookups.
var (
	regMu sync.RWMutex
	funcs = map[string]Func{}
)

// Register installs (or replaces) a named integration function.
func Register(name string, fn Func) {
	regMu.Lock()
	defer regMu.Unlock()
	funcs[strings.ToLower(name)] = fn
}

// Lookup finds a registered integration function.
func Lookup(name string) (Func, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	fn, ok := funcs[strings.ToLower(name)]
	return fn, ok
}

// Names lists the registered integration functions, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(funcs))
	for n := range funcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("coalesce", func(vals []value.Value) (value.Value, error) {
		for _, v := range vals {
			if !v.IsNull() {
				return v, nil
			}
		}
		return value.Null(), nil
	})
	Register("first", func(vals []value.Value) (value.Value, error) {
		for _, v := range vals {
			if !v.IsNull() {
				return v, nil
			}
		}
		return value.Null(), nil
	})
	Register("last", func(vals []value.Value) (value.Value, error) {
		for i := len(vals) - 1; i >= 0; i-- {
			if !vals[i].IsNull() {
				return vals[i], nil
			}
		}
		return value.Null(), nil
	})
	Register("max", func(vals []value.Value) (value.Value, error) {
		out := value.Null()
		for _, v := range vals {
			if v.IsNull() {
				continue
			}
			if out.IsNull() {
				out = v
				continue
			}
			if c, ok := value.Compare(v, out); ok && c > 0 {
				out = v
			}
		}
		return out, nil
	})
	Register("min", func(vals []value.Value) (value.Value, error) {
		out := value.Null()
		for _, v := range vals {
			if v.IsNull() {
				continue
			}
			if out.IsNull() {
				out = v
				continue
			}
			if c, ok := value.Compare(v, out); ok && c < 0 {
				out = v
			}
		}
		return out, nil
	})
	Register("sum", func(vals []value.Value) (value.Value, error) {
		out := value.Null()
		for _, v := range vals {
			if v.IsNull() {
				continue
			}
			if out.IsNull() {
				out = v
				continue
			}
			var err error
			if out, err = value.Arith("+", out, v); err != nil {
				return value.Null(), err
			}
		}
		return out, nil
	})
	Register("avg", func(vals []value.Value) (value.Value, error) {
		var sum float64
		var n int
		for _, v := range vals {
			if v.IsNull() {
				continue
			}
			f, ok := v.Float()
			if !ok {
				return value.Null(), fmt.Errorf("integration avg: non-numeric %s", v.K)
			}
			sum += f
			n++
		}
		if n == 0 {
			return value.Null(), nil
		}
		return value.NewFloat(sum / float64(n)), nil
	})
	Register("count", func(vals []value.Value) (value.Value, error) {
		var n int64
		for _, v := range vals {
			if !v.IsNull() {
				n++
			}
		}
		return value.NewInt(n), nil
	})
	Register("concat", func(vals []value.Value) (value.Value, error) {
		var parts []string
		for _, v := range vals {
			if !v.IsNull() {
				parts = append(parts, v.Text())
			}
		}
		if len(parts) == 0 {
			return value.Null(), nil
		}
		return value.NewText(strings.Join(parts, "/")), nil
	})
	// vote picks the most frequent non-NULL value (ties: first source).
	Register("vote", func(vals []value.Value) (value.Value, error) {
		counts := make(map[string]int)
		rep := make(map[string]value.Value)
		order := []string{}
		for _, v := range vals {
			if v.IsNull() {
				continue
			}
			k := fmt.Sprintf("%d|%s", v.K, v.Text())
			if _, seen := counts[k]; !seen {
				order = append(order, k)
				rep[k] = v
			}
			counts[k]++
		}
		best, bestN := value.Null(), 0
		for _, k := range order {
			if counts[k] > bestN {
				best, bestN = rep[k], counts[k]
			}
		}
		return best, nil
	})
	// require_equal errs when sources disagree, the strictest policy.
	Register("require_equal", func(vals []value.Value) (value.Value, error) {
		out := value.Null()
		for _, v := range vals {
			if v.IsNull() {
				continue
			}
			if out.IsNull() {
				out = v
				continue
			}
			if eq, ok := value.Equal(out, v); !ok || !eq {
				return value.Null(), fmt.Errorf("integration require_equal: sources disagree (%s vs %s)", out, v)
			}
		}
		return out, nil
	})
}

// Spec describes how to combine N source row streams (positionally
// aligned columns) into the integrated relation's rows.
type Spec struct {
	Kind CombineKind
	// Columns is the integrated column list; every source stream must
	// already be projected/renamed to exactly these columns (a source of
	// another arity fails the combined stream).
	Columns []string
	// KeyCols indexes Columns forming the integrated key (MergeOuter).
	KeyCols []int
	// Resolvers maps a column index to the integration function that
	// resolves conflicts for MergeOuter; columns without an entry use
	// "coalesce" (first non-NULL in source order).
	Resolvers map[int]Func
}
