package localdb

import (
	"fmt"
	"strings"

	"myriad/internal/schema"
	"myriad/internal/sqlparser"
)

// RowPredicate evaluates a compiled boolean expression against one row
// (SQL three-valued: NULL is false).
type RowPredicate func(row schema.Row) (bool, error)

// CompileRowPredicate compiles e into a predicate over rows shaped by
// sc. Column references may be bare or qualified by any of quals
// (case-insensitive). This is the component engine's expression
// machinery exported for out-of-engine row filtering — the executor's
// bypass uses it to apply a residual WHERE inline on the fan-in
// instead of routing the stream through the residual pipeline.
// Aggregates and unresolvable references fail compilation, so callers
// can probe an expression and fall back when it does not fit.
func CompileRowPredicate(e sqlparser.Expr, sc *schema.Schema, quals ...string) (RowPredicate, error) {
	fn, err := compileExpr(e, &schemaResolver{sc: sc, quals: quals})
	if err != nil {
		return nil, err
	}
	return func(row schema.Row) (bool, error) { return evalBool(fn, row) }, nil
}

// schemaResolver binds column references directly to one schema's
// column positions.
type schemaResolver struct {
	sc    *schema.Schema
	quals []string
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
	return ci, nil
}
