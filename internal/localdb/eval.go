package localdb

// The component engine compiles every expression once per statement
// into closures over the runtime row. Two compilers share the work:
//
//   - compileExpr (this file) yields values: columns, literals,
//     arithmetic, scalar functions and CASE.
//   - compilePred (predicate.go) yields three-valued truth for AND, OR,
//     NOT, comparisons, IS [NOT] NULL, IN, BETWEEN and LIKE. WHERE and
//     ON filters, HAVING, UPDATE/DELETE targets, CASE conditions and
//     the executor's inline residual all run a Predicate directly.
//
// Each boolean operator is implemented once, in compilePred; where a
// query needs its value (SELECT a < b), compileExpr wraps the Predicate
// to yield BOOLEAN or NULL.

import (
	"fmt"
	"math"
	"strings"

	"myriad/internal/sqlparser"
	"myriad/internal/value"
)

// resolver maps a (qualifier, column) reference to a slot in the runtime
// row presented to compiled expressions.
type resolver interface {
	resolve(table, column string) (int, error)
}

// evalFn is a compiled expression evaluated against a runtime row.
type evalFn func(row []value.Value) (value.Value, error)

// compileExpr compiles e into an evalFn using r to bind column
// references. Aggregate calls are rejected here; grouped contexts
// rewrite them to slot references before compiling.
func compileExpr(e sqlparser.Expr, r resolver) (evalFn, error) {
	if isPredicate(e) {
		p, err := compilePred(e, r)
		if err != nil {
			return nil, err
		}
		return func(row []value.Value) (value.Value, error) {
			t, err := p(row)
			return truthValue(t), err
		}, nil
	}
	switch x := e.(type) {
	case *sqlparser.Literal:
		v := x.Val
		return func([]value.Value) (value.Value, error) { return v, nil }, nil

	case *sqlparser.ColumnRef:
		slot, err := r.resolve(x.Table, x.Column)
		if err != nil {
			return nil, err
		}
		return slotFn(slot), nil

	case *sqlparser.SlotRef:
		return slotFn(x.Slot), nil

	case *sqlparser.BinaryExpr:
		l, err := compileExpr(x.L, r)
		if err != nil {
			return nil, err
		}
		rt, err := compileExpr(x.R, r)
		if err != nil {
			return nil, err
		}
		op := x.Op
		switch op {
		case "+", "-", "*", "/", "%", "||":
			return func(row []value.Value) (value.Value, error) {
				lv, err := l(row)
				if err != nil {
					return value.Null(), err
				}
				rv, err := rt(row)
				if err != nil {
					return value.Null(), err
				}
				return value.Arith(op, lv, rv)
			}, nil
		default:
			return nil, fmt.Errorf("localdb: unknown binary op %q", op)
		}

	case *sqlparser.UnaryExpr:
		sub, err := compileExpr(x.E, r)
		if err != nil {
			return nil, err
		}
		if x.Op != "-" {
			return nil, fmt.Errorf("localdb: unknown unary op %q", x.Op)
		}
		return func(row []value.Value) (value.Value, error) {
			v, err := sub(row)
			if err != nil {
				return value.Null(), err
			}
			return value.Neg(v)
		}, nil

	case *sqlparser.FuncExpr:
		if sqlparser.AggregateFuncs[x.Name] {
			return nil, fmt.Errorf("localdb: aggregate %s not allowed here", x.Name)
		}
		return compileScalarFunc(x, r)

	case *sqlparser.CaseExpr:
		type arm struct {
			cond   Predicate
			result evalFn
		}
		arms := make([]arm, len(x.Whens))
		for i, w := range x.Whens {
			c, err := compileCaseCond(w.Cond, r)
			if err != nil {
				return nil, err
			}
			res, err := compileExpr(w.Result, r)
			if err != nil {
				return nil, err
			}
			arms[i] = arm{c, res}
		}
		var elseFn evalFn
		if x.Else != nil {
			var err error
			if elseFn, err = compileExpr(x.Else, r); err != nil {
				return nil, err
			}
		}
		return func(row []value.Value) (value.Value, error) {
			for _, a := range arms {
				t, err := a.cond(row)
				if err != nil {
					return value.Null(), err
				}
				if t == True {
					return a.result(row)
				}
			}
			if elseFn != nil {
				return elseFn(row)
			}
			return value.Null(), nil
		}, nil

	default:
		return nil, fmt.Errorf("localdb: unsupported expression %T", e)
	}
}

// slotFn reads one slot of the row.
func slotFn(slot int) evalFn {
	return func(row []value.Value) (value.Value, error) {
		if slot >= len(row) {
			return value.Null(), errShortRow(slot)
		}
		return row[slot], nil
	}
}

// compileCaseCond compiles a CASE arm's condition; only True selects the
// arm. A condition that is not a boolean operator keeps CASE's lenient
// reading of a value: one that is no truth value, such as TEXT, does not
// select the arm and is not an error.
func compileCaseCond(e sqlparser.Expr, r resolver) (Predicate, error) {
	if isPredicate(e) {
		return compilePred(e, r)
	}
	fn, err := compileExpr(e, r)
	if err != nil {
		return nil, err
	}
	return func(row []value.Value) (Truth, error) {
		v, err := fn(row)
		b, ok := v.Bool()
		return boolTruth(ok && b), err
	}, nil
}

// compileScalarFunc compiles the scalar function library shared by every
// component DBMS dialect.
func compileScalarFunc(x *sqlparser.FuncExpr, r resolver) (evalFn, error) {
	args := make([]evalFn, len(x.Args))
	for i, a := range x.Args {
		var err error
		if args[i], err = compileExpr(a, r); err != nil {
			return nil, err
		}
	}
	evalArgs := func(row []value.Value) ([]value.Value, error) {
		out := make([]value.Value, len(args))
		for i, fn := range args {
			v, err := fn(row)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	arity := func(n int) error {
		if len(x.Args) != n {
			return fmt.Errorf("localdb: %s expects %d argument(s), got %d", x.Name, n, len(x.Args))
		}
		return nil
	}
	switch x.Name {
	case "UPPER", "UCASE":
		if err := arity(1); err != nil {
			return nil, err
		}
		return func(row []value.Value) (value.Value, error) {
			vs, err := evalArgs(row)
			if err != nil {
				return value.Null(), err
			}
			if vs[0].IsNull() {
				return value.Null(), nil
			}
			return value.NewText(strings.ToUpper(vs[0].Text())), nil
		}, nil
	case "LOWER", "LCASE":
		if err := arity(1); err != nil {
			return nil, err
		}
		return func(row []value.Value) (value.Value, error) {
			vs, err := evalArgs(row)
			if err != nil {
				return value.Null(), err
			}
			if vs[0].IsNull() {
				return value.Null(), nil
			}
			return value.NewText(strings.ToLower(vs[0].Text())), nil
		}, nil
	case "LENGTH", "LEN":
		if err := arity(1); err != nil {
			return nil, err
		}
		return func(row []value.Value) (value.Value, error) {
			vs, err := evalArgs(row)
			if err != nil {
				return value.Null(), err
			}
			if vs[0].IsNull() {
				return value.Null(), nil
			}
			return value.NewInt(int64(len(vs[0].Text()))), nil
		}, nil
	case "ABS":
		if err := arity(1); err != nil {
			return nil, err
		}
		return func(row []value.Value) (value.Value, error) {
			vs, err := evalArgs(row)
			if err != nil {
				return value.Null(), err
			}
			v := vs[0]
			switch {
			case v.IsNull():
				return value.Null(), nil
			case v.K == value.KindInt:
				if i := v.RawInt(); i < 0 {
					return value.NewInt(-i), nil
				}
				return v, nil
			default:
				f, ok := v.Float()
				if !ok {
					return value.Null(), fmt.Errorf("localdb: ABS of %s", v.K)
				}
				return value.NewFloat(math.Abs(f)), nil
			}
		}, nil
	case "ROUND":
		if len(x.Args) != 1 && len(x.Args) != 2 {
			return nil, fmt.Errorf("localdb: ROUND expects 1 or 2 arguments")
		}
		return func(row []value.Value) (value.Value, error) {
			vs, err := evalArgs(row)
			if err != nil {
				return value.Null(), err
			}
			if vs[0].IsNull() {
				return value.Null(), nil
			}
			f, ok := vs[0].Float()
			if !ok {
				return value.Null(), fmt.Errorf("localdb: ROUND of %s", vs[0].K)
			}
			digits := int64(0)
			if len(vs) == 2 {
				if vs[1].IsNull() {
					return value.Null(), nil
				}
				digits, _ = vs[1].Int()
			}
			scale := math.Pow(10, float64(digits))
			return value.NewFloat(math.Round(f*scale) / scale), nil
		}, nil
	case "COALESCE", "NVL", "IFNULL":
		if len(x.Args) == 0 {
			return nil, fmt.Errorf("localdb: %s needs arguments", x.Name)
		}
		return func(row []value.Value) (value.Value, error) {
			for _, fn := range args {
				v, err := fn(row)
				if err != nil {
					return value.Null(), err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return value.Null(), nil
		}, nil
	case "NULLIF":
		if err := arity(2); err != nil {
			return nil, err
		}
		return func(row []value.Value) (value.Value, error) {
			vs, err := evalArgs(row)
			if err != nil {
				return value.Null(), err
			}
			if eq, ok := value.Equal(vs[0], vs[1]); ok && eq {
				return value.Null(), nil
			}
			return vs[0], nil
		}, nil
	case "SUBSTR", "SUBSTRING":
		if len(x.Args) != 2 && len(x.Args) != 3 {
			return nil, fmt.Errorf("localdb: %s expects 2 or 3 arguments", x.Name)
		}
		return func(row []value.Value) (value.Value, error) {
			vs, err := evalArgs(row)
			if err != nil {
				return value.Null(), err
			}
			if vs[0].IsNull() || vs[1].IsNull() {
				return value.Null(), nil
			}
			s := vs[0].Text()
			start, _ := vs[1].Int()
			if start < 1 {
				start = 1
			}
			if int(start) > len(s) {
				return value.NewText(""), nil
			}
			out := s[start-1:]
			if len(vs) == 3 && !vs[2].IsNull() {
				n, _ := vs[2].Int()
				if n < 0 {
					n = 0
				}
				if int(n) < len(out) {
					out = out[:n]
				}
			}
			return value.NewText(out), nil
		}, nil
	case "TRIM":
		if err := arity(1); err != nil {
			return nil, err
		}
		return func(row []value.Value) (value.Value, error) {
			vs, err := evalArgs(row)
			if err != nil {
				return value.Null(), err
			}
			if vs[0].IsNull() {
				return value.Null(), nil
			}
			return value.NewText(strings.TrimSpace(vs[0].Text())), nil
		}, nil
	case "MOD":
		if err := arity(2); err != nil {
			return nil, err
		}
		return func(row []value.Value) (value.Value, error) {
			vs, err := evalArgs(row)
			if err != nil {
				return value.Null(), err
			}
			return value.Arith("%", vs[0], vs[1])
		}, nil
	default:
		return nil, fmt.Errorf("localdb: unknown function %s", x.Name)
	}
}
