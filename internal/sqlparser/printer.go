package sqlparser

import (
	"strconv"
	"strings"

	"myriad/internal/value"
)

// LimitStyle selects how a dialect spells row limiting.
type LimitStyle uint8

// Limit spellings across the supported dialects.
const (
	LimitStyleLimitOffset LimitStyle = iota // LIMIT n OFFSET m (canonical, Postgres-like)
	LimitStyleFetchFirst                    // OFFSET m ROWS FETCH FIRST n ROWS ONLY (Oracle-like)
)

// Style parameterizes SQL rendering per dialect. The zero value renders
// canonical MYRIAD SQL.
type Style struct {
	// QuoteIdent wraps an identifier when needed; nil leaves bare.
	QuoteIdent func(string) string
	// Limit selects the row-limiting spelling.
	Limit LimitStyle
	// BoolAsInt renders TRUE/FALSE as 1/0 for dialects without booleans.
	BoolAsInt bool
	// UpperKeywordFuncs maps function names during rendering (e.g.
	// SUBSTR vs SUBSTRING); nil keeps names unchanged.
	FuncName func(string) string
}

var canonical = Style{}

func (st *Style) ident(s string) string {
	if st.QuoteIdent != nil {
		return st.QuoteIdent(s)
	}
	return defaultIdent(s)
}

// defaultIdent leaves plain identifiers bare and double-quotes anything
// else (reserved words, punctuation, spaces) so canonical SQL always
// re-parses.
func defaultIdent(s string) string {
	plain := s != "" && isIdentStart(s[0])
	for i := 0; plain && i < len(s); i++ {
		if !isIdentPart(s[i]) {
			plain = false
		}
	}
	if _, kw := keyword(s); plain && !kw {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

func (st *Style) funcName(s string) string {
	if st.FuncName != nil {
		return st.FuncName(s)
	}
	return s
}

// FormatStatement renders any statement with the given style.
func FormatStatement(s Statement, st *Style) string {
	if st == nil {
		st = &canonical
	}
	var b strings.Builder
	writeStatement(&b, s, st)
	return b.String()
}

// FormatExpr renders an expression with the given style.
func FormatExpr(e Expr, st *Style) string {
	if st == nil {
		st = &canonical
	}
	var b strings.Builder
	writeExpr(&b, e, st)
	return b.String()
}

func (s *Select) String() string      { return FormatStatement(s, nil) }
func (s *Insert) String() string      { return FormatStatement(s, nil) }
func (s *Update) String() string      { return FormatStatement(s, nil) }
func (s *Delete) String() string      { return FormatStatement(s, nil) }
func (s *CreateTable) String() string { return FormatStatement(s, nil) }
func (s *DropTable) String() string   { return FormatStatement(s, nil) }
func (s *CreateIndex) String() string { return FormatStatement(s, nil) }
func (s *TxnStmt) String() string     { return FormatStatement(s, nil) }

func (e *Literal) String() string     { return FormatExpr(e, nil) }
func (e *ColumnRef) String() string   { return FormatExpr(e, nil) }
func (e *BinaryExpr) String() string  { return FormatExpr(e, nil) }
func (e *UnaryExpr) String() string   { return FormatExpr(e, nil) }
func (e *IsNullExpr) String() string  { return FormatExpr(e, nil) }
func (e *InExpr) String() string      { return FormatExpr(e, nil) }
func (e *BetweenExpr) String() string { return FormatExpr(e, nil) }
func (e *FuncExpr) String() string    { return FormatExpr(e, nil) }
func (e *CaseExpr) String() string    { return FormatExpr(e, nil) }
func (e *SlotRef) String() string     { return FormatExpr(e, nil) }
func (e *Param) String() string       { return FormatExpr(e, nil) }

func writeStatement(b *strings.Builder, s Statement, st *Style) {
	switch x := s.(type) {
	case *Select:
		writeSelect(b, x, st)
	case *Insert:
		b.WriteString("INSERT INTO ")
		b.WriteString(st.ident(x.Table))
		if len(x.Columns) > 0 {
			b.WriteString(" (")
			for i, c := range x.Columns {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(st.ident(c))
			}
			b.WriteString(")")
		}
		b.WriteString(" VALUES ")
		for i, row := range x.Rows {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("(")
			for j, e := range row {
				if j > 0 {
					b.WriteString(", ")
				}
				writeExpr(b, e, st)
			}
			b.WriteString(")")
		}
	case *Update:
		b.WriteString("UPDATE ")
		b.WriteString(st.ident(x.Table))
		b.WriteString(" SET ")
		for i, a := range x.Set {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(st.ident(a.Column))
			b.WriteString(" = ")
			writeExpr(b, a.Expr, st)
		}
		if x.Where != nil {
			b.WriteString(" WHERE ")
			writeExpr(b, x.Where, st)
		}
	case *Delete:
		b.WriteString("DELETE FROM ")
		b.WriteString(st.ident(x.Table))
		if x.Where != nil {
			b.WriteString(" WHERE ")
			writeExpr(b, x.Where, st)
		}
	case *CreateTable:
		b.WriteString("CREATE TABLE ")
		b.WriteString(st.ident(x.Schema.Table))
		b.WriteString(" (")
		for i, c := range x.Schema.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(st.ident(c.Name))
			b.WriteByte(' ')
			b.WriteString(c.Type.String())
			if c.NotNull {
				b.WriteString(" NOT NULL")
			}
		}
		if len(x.Schema.Key) > 0 {
			b.WriteString(", PRIMARY KEY (")
			for i, k := range x.Schema.Key {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(st.ident(k))
			}
			b.WriteString(")")
		}
		b.WriteString(")")
	case *DropTable:
		b.WriteString("DROP TABLE ")
		b.WriteString(st.ident(x.Table))
	case *CreateIndex:
		b.WriteString("CREATE ")
		if x.Ordered {
			b.WriteString("ORDERED ")
		}
		b.WriteString("INDEX ")
		b.WriteString(st.ident(x.Name))
		b.WriteString(" ON ")
		b.WriteString(st.ident(x.Table))
		b.WriteString(" (")
		for i, col := range x.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(st.ident(col))
		}
		b.WriteString(")")
	case *TxnStmt:
		switch x.Kind {
		case TxnBegin:
			b.WriteString("BEGIN")
		case TxnCommit:
			b.WriteString("COMMIT")
		case TxnRollback:
			b.WriteString("ROLLBACK")
		}
	}
}

func writeSelect(b *strings.Builder, s *Select, st *Style) {
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, item := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case item.Star && item.Table == "":
			b.WriteString("*")
		case item.Star:
			b.WriteString(st.ident(item.Table))
			b.WriteString(".*")
		default:
			writeExpr(b, item.Expr, st)
			if item.As != "" {
				b.WriteString(" AS ")
				b.WriteString(st.ident(item.As))
			}
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, ref := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(st.ident(ref.Name))
			if ref.Alias != "" {
				b.WriteByte(' ')
				b.WriteString(st.ident(ref.Alias))
			}
		}
		for _, j := range s.Joins {
			if j.Kind == JoinLeft {
				b.WriteString(" LEFT JOIN ")
			} else {
				b.WriteString(" JOIN ")
			}
			b.WriteString(st.ident(j.Table.Name))
			if j.Table.Alias != "" {
				b.WriteByte(' ')
				b.WriteString(st.ident(j.Table.Alias))
			}
			b.WriteString(" ON ")
			writeExpr(b, j.On, st)
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		writeExpr(b, s.Where, st)
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, e, st)
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		writeExpr(b, s.Having, st)
	}
	if s.Compound != nil {
		if s.Compound.All {
			b.WriteString(" UNION ALL ")
		} else {
			b.WriteString(" UNION ")
		}
		writeSelect(b, s.Compound.Right, st)
		return
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, o.Expr, st)
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		switch st.Limit {
		case LimitStyleFetchFirst:
			if s.Limit.Offset > 0 {
				b.WriteString(" OFFSET ")
				b.WriteString(strconv.FormatInt(s.Limit.Offset, 10))
				b.WriteString(" ROWS")
			}
			if s.Limit.Count >= 0 {
				b.WriteString(" FETCH FIRST ")
				b.WriteString(strconv.FormatInt(s.Limit.Count, 10))
				b.WriteString(" ROWS ONLY")
			}
		default:
			if s.Limit.Count >= 0 {
				b.WriteString(" LIMIT ")
				b.WriteString(strconv.FormatInt(s.Limit.Count, 10))
			}
			if s.Limit.Offset > 0 {
				b.WriteString(" OFFSET ")
				b.WriteString(strconv.FormatInt(s.Limit.Offset, 10))
			}
		}
	}
}

// exprPrec assigns binding strength so the printer can parenthesize
// minimally yet correctly.
func exprPrec(e Expr) int {
	switch x := e.(type) {
	case *BinaryExpr:
		switch x.Op {
		case "OR":
			return 1
		case "AND":
			return 2
		case "=", "<>", "<", "<=", ">", ">=", "LIKE":
			return 4
		case "+", "-", "||":
			return 5
		case "*", "/", "%":
			return 6
		}
		return 4
	case *UnaryExpr:
		if x.Op == "NOT" {
			return 3
		}
		return 7
	case *IsNullExpr, *InExpr, *BetweenExpr:
		return 4
	default:
		return 8
	}
}

func writeChild(b *strings.Builder, child Expr, parentPrec int, st *Style) {
	if exprPrec(child) < parentPrec {
		b.WriteByte('(')
		writeExpr(b, child, st)
		b.WriteByte(')')
		return
	}
	writeExpr(b, child, st)
}

func writeExpr(b *strings.Builder, e Expr, st *Style) {
	switch x := e.(type) {
	case *Literal:
		writeLiteral(b, x.Val, st)
	case *ColumnRef:
		if x.Table != "" {
			b.WriteString(st.ident(x.Table))
			b.WriteByte('.')
		}
		b.WriteString(st.ident(x.Column))
	case *BinaryExpr:
		p := exprPrec(x)
		writeChild(b, x.L, p, st)
		b.WriteByte(' ')
		b.WriteString(x.Op)
		b.WriteByte(' ')
		// Right child needs strictly higher precedence for left-
		// associative operators like - and /.
		writeChild(b, x.R, p+1, st)
	case *UnaryExpr:
		if x.Op == "NOT" {
			b.WriteString("NOT ")
			writeChild(b, x.E, 3, st)
		} else {
			b.WriteString(x.Op)
			// A sign-led operand ("-A" under another "-", a negative
			// literal) would fuse into "--" — a line comment — or "++";
			// parenthesize it however precedence falls.
			var cb strings.Builder
			writeChild(&cb, x.E, 7, st)
			child := cb.String()
			if len(child) > 0 && (child[0] == '-' || child[0] == '+') {
				b.WriteByte('(')
				b.WriteString(child)
				b.WriteByte(')')
			} else {
				b.WriteString(child)
			}
		}
	case *IsNullExpr:
		writeChild(b, x.E, 5, st)
		if x.Not {
			b.WriteString(" IS NOT NULL")
		} else {
			b.WriteString(" IS NULL")
		}
	case *InExpr:
		writeChild(b, x.E, 5, st)
		if x.Not {
			b.WriteString(" NOT IN (")
		} else {
			b.WriteString(" IN (")
		}
		for i, it := range x.List {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, it, st)
		}
		b.WriteByte(')')
	case *BetweenExpr:
		writeChild(b, x.E, 5, st)
		if x.Not {
			b.WriteString(" NOT BETWEEN ")
		} else {
			b.WriteString(" BETWEEN ")
		}
		writeChild(b, x.Lo, 5, st)
		b.WriteString(" AND ")
		writeChild(b, x.Hi, 5, st)
	case *FuncExpr:
		b.WriteString(st.funcName(x.Name))
		b.WriteByte('(')
		if x.Star {
			b.WriteByte('*')
		} else {
			if x.Distinct {
				b.WriteString("DISTINCT ")
			}
			for i, a := range x.Args {
				if i > 0 {
					b.WriteString(", ")
				}
				writeExpr(b, a, st)
			}
		}
		b.WriteByte(')')
	case *SlotRef:
		b.WriteString("$")
		b.WriteString(strconv.Itoa(x.Slot))
	case *Param:
		b.WriteByte('?')
	case *CaseExpr:
		b.WriteString("CASE")
		for _, w := range x.Whens {
			b.WriteString(" WHEN ")
			writeExpr(b, w.Cond, st)
			b.WriteString(" THEN ")
			writeExpr(b, w.Result, st)
		}
		if x.Else != nil {
			b.WriteString(" ELSE ")
			writeExpr(b, x.Else, st)
		}
		b.WriteString(" END")
	}
}

func writeLiteral(b *strings.Builder, v value.Value, st *Style) {
	switch v.K {
	case value.KindBool:
		if st.BoolAsInt {
			if v.RawBool() {
				b.WriteString("1")
			} else {
				b.WriteString("0")
			}
			return
		}
		b.WriteString(v.Text())
	default:
		b.WriteString(v.String())
	}
}
