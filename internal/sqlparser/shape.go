package sqlparser

import (
	"strings"

	"myriad/internal/value"
)

// Shape splits one statement's text into its shape key and its literal
// values, so statements that differ only in their literals share one
// parse (and whatever a caller derives from it). The key is the text
// with every literal token replaced by a ? slot; Parse(key) yields the
// template, and Bind(template, args) yields exactly the statement
// Parse(sql) would. The slot rules follow the parser:
//
//   - Every number and string token becomes a slot. A number slot is an
//     integer when it has no '.' or exponent and fits int64, a float
//     otherwise — parsePrimary's rule.
//   - The integer after LIMIT, OFFSET and FETCH FIRST stays in the key:
//     the grammar reads it as a row count, not as an expression.
//   - TRUE, FALSE and NULL are keywords and stay in the key.
//   - A sign stays in the key ("-?"); Bind folds it into a negative
//     literal exactly as the parser folds "-5".
//   - A number the parser would reject stays in the key, so Parse(key)
//     fails where Parse(sql) does.
//
// Whitespace and comments stay in the key as written. Shape fails where
// the lexer does, with Parse(sql)'s error, and on a ? already in sql,
// which has no value to bind.
func Shape(sql string) (key string, args []value.Value, err error) {
	l := newLexer(sql)
	var b strings.Builder
	last := 0
	var prev token
	for {
		t, err := l.next()
		if err != nil {
			if _, perr := Parse(sql); perr != nil {
				err = perr // the parser may stop first, elsewhere
			}
			return "", nil, err
		}
		switch t.kind {
		case tokEOF:
			if len(args) == 0 {
				return sql, nil, nil
			}
			b.WriteString(sql[last:])
			return b.String(), args, nil
		case tokParam:
			return "", nil, errf(t.pos, "? has no value to bind")
		case tokNumber:
			if prev.kind == tokKeyword && (prev.val == "LIMIT" || prev.val == "OFFSET" || prev.val == "FIRST") {
				break
			}
			v, ok := numberValue(t.val)
			if !ok {
				break // Parse(key) reports it, if the grammar reads it at all
			}
			args = append(args, v)
			b.WriteString(sql[last:t.pos])
			b.WriteByte('?')
			last = l.pos
		case tokString:
			args = append(args, value.NewText(t.val))
			b.WriteString(sql[last:t.pos])
			b.WriteByte('?')
			last = l.pos
		}
		prev = t
	}
}

// ParseShape parses the key Shape made of sql. A key parses exactly when
// sql does; on failure the error is Parse(sql)'s, so its offset points
// into the text the client sent.
func ParseShape(key, sql string) (Statement, error) {
	stmt, err := Parse(key)
	if err != nil {
		if _, perr := Parse(sql); perr != nil {
			err = perr
		}
		return nil, err
	}
	return stmt, nil
}

// Bind returns a deep copy of the template stmt with each ? slot
// replaced by its argument: Param{Index: i} becomes Literal{args[i]},
// and a unary minus over a bound number folds into a negative literal,
// as the parser folds "-5". The template is not modified, so one cached
// template serves concurrent executions. Arguments no slot names are
// ignored (a ? in a type precision binds nothing); a slot past the end
// of args is an error.
func Bind(stmt Statement, args []value.Value) (Statement, error) {
	b := &binder{args: args}
	var out Statement
	switch s := stmt.(type) {
	case *Select:
		out = b.sel(s)
	case *Insert:
		c := *s
		c.Rows = make([][]Expr, len(s.Rows))
		for i, row := range s.Rows {
			c.Rows[i] = b.exprs(row)
		}
		out = &c
	case *Update:
		c := *s
		c.Set = make([]Assignment, len(s.Set))
		for i, a := range s.Set {
			c.Set[i] = Assignment{Column: a.Column, Expr: b.expr(a.Expr)}
		}
		c.Where = b.expr(s.Where)
		out = &c
	case *Delete:
		c := *s
		c.Where = b.expr(s.Where)
		out = &c
	default:
		out = stmt // no expressions, so no slots
	}
	if b.err != nil {
		return nil, b.err
	}
	return out, nil
}

// binder carries one Bind call. bound is the literal most recently made
// from a slot: RewriteExpr works bottom-up, so a unary minus whose
// operand is that literal is exactly "-?" in the template.
type binder struct {
	args  []value.Value
	bound Expr
	err   error
}

func (b *binder) sel(s *Select) *Select {
	out := *s
	out.Items = make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		it.Expr = b.expr(it.Expr)
		out.Items[i] = it
	}
	out.From = append([]TableRef(nil), s.From...)
	if s.Joins != nil {
		out.Joins = make([]Join, len(s.Joins))
		for i, j := range s.Joins {
			j.On = b.expr(j.On)
			out.Joins[i] = j
		}
	}
	out.Where = b.expr(s.Where)
	out.GroupBy = b.exprs(s.GroupBy)
	out.Having = b.expr(s.Having)
	if s.OrderBy != nil {
		out.OrderBy = make([]OrderItem, len(s.OrderBy))
		for i, o := range s.OrderBy {
			out.OrderBy[i] = OrderItem{Expr: b.expr(o.Expr), Desc: o.Desc}
		}
	}
	if s.Limit != nil {
		lc := *s.Limit
		out.Limit = &lc
	}
	if s.Compound != nil {
		out.Compound = &CompoundSelect{All: s.Compound.All, Right: b.sel(s.Compound.Right)}
	}
	return &out
}

func (b *binder) exprs(es []Expr) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = b.expr(e)
	}
	return out
}

func (b *binder) expr(e Expr) Expr {
	return RewriteExpr(e, func(x Expr) Expr {
		switch x := x.(type) {
		case *Param:
			if x.Index >= len(b.args) {
				if b.err == nil {
					b.err = errf(0, "slot %d has no value (%d bound)", x.Index, len(b.args))
				}
				return x
			}
			lit := &Literal{Val: b.args[x.Index]}
			b.bound = lit
			return lit
		case *UnaryExpr:
			if lit, ok := x.E.(*Literal); ok && x.Op == "-" && x.E == b.bound && !lit.Val.IsNull() {
				if neg, err := value.Neg(lit.Val); err == nil {
					folded := &Literal{Val: neg}
					b.bound = folded
					return folded
				}
			}
		}
		return x
	})
}
