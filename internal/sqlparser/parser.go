package sqlparser

import (
	"strconv"
	"strings"

	"myriad/internal/schema"
	"myriad/internal/value"
)

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokOp && p.tok.val == ";" {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokEOF {
		return nil, errf(p.tok.pos, "unexpected %s after statement", p.tok)
	}
	return stmt, nil
}

// ParseExpr parses a standalone scalar expression (used for export-
// relation predicates and integrated-relation filters).
func ParseExpr(src string) (Expr, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, errf(p.tok.pos, "unexpected %s after expression", p.tok)
	}
	return e, nil
}

// ParseScript splits src on top-level semicolons and parses each
// statement, for myriadctl scripts and test fixtures.
func ParseScript(src string) ([]Statement, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var stmts []Statement
	for p.tok.kind != tokEOF {
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		for p.tok.kind == tokOp && p.tok.val == ";" {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	return stmts, nil
}

type parser struct {
	lex *lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) isKeyword(kw string) bool {
	return p.tok.kind == tokKeyword && p.tok.val == kw
}

func (p *parser) isOp(op string) bool {
	return p.tok.kind == tokOp && p.tok.val == op
}

// accept consumes the token if it is the given keyword.
func (p *parser) accept(kw string) (bool, error) {
	if p.isKeyword(kw) {
		return true, p.advance()
	}
	return false, nil
}

// acceptWord consumes the token if it is the given non-reserved word: a
// contextual keyword (like ORDERED) lexes as an identifier, so matching
// it here keeps the word usable as a table or column name everywhere
// else.
func (p *parser) acceptWord(word string) (bool, error) {
	if p.tok.kind == tokIdent && strings.EqualFold(p.tok.val, word) {
		return true, p.advance()
	}
	return false, nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return errf(p.tok.pos, "expected %s, found %s", kw, p.tok)
	}
	return p.advance()
}

func (p *parser) expectOp(op string) error {
	if !p.isOp(op) {
		return errf(p.tok.pos, "expected %q, found %s", op, p.tok)
	}
	return p.advance()
}

func (p *parser) ident() (string, error) {
	if p.tok.kind != tokIdent {
		return "", errf(p.tok.pos, "expected identifier, found %s", p.tok)
	}
	name := p.tok.val
	return name, p.advance()
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("SELECT"):
		return p.parseSelect()
	case p.isKeyword("INSERT"):
		return p.parseInsert()
	case p.isKeyword("UPDATE"):
		return p.parseUpdate()
	case p.isKeyword("DELETE"):
		return p.parseDelete()
	case p.isKeyword("CREATE"):
		return p.parseCreate()
	case p.isKeyword("DROP"):
		return p.parseDrop()
	case p.isKeyword("BEGIN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.accept("WORK"); err != nil {
			return nil, err
		}
		return &TxnStmt{Kind: TxnBegin}, nil
	case p.isKeyword("COMMIT"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.accept("WORK"); err != nil {
			return nil, err
		}
		return &TxnStmt{Kind: TxnCommit}, nil
	case p.isKeyword("ROLLBACK"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.accept("WORK"); err != nil {
			return nil, err
		}
		return &TxnStmt{Kind: TxnRollback}, nil
	default:
		return nil, errf(p.tok.pos, "expected statement, found %s", p.tok)
	}
}

// ---------------------------------------------------------------------
// SELECT

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	ok, err := p.accept("DISTINCT")
	if err != nil {
		return nil, err
	}
	sel.Distinct = ok
	if _, err := p.accept("ALL"); err != nil { // SELECT ALL is the default
		return nil, err
	}
	if sel.Items, err = p.parseSelectItems(); err != nil {
		return nil, err
	}
	if ok, err = p.accept("FROM"); err != nil {
		return nil, err
	}
	if ok {
		if err := p.parseFrom(sel); err != nil {
			return nil, err
		}
	}
	if ok, err = p.accept("WHERE"); err != nil {
		return nil, err
	}
	if ok {
		if sel.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if ok, err = p.accept("GROUP"); err != nil {
		return nil, err
	}
	if ok {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if ok, err = p.accept("HAVING"); err != nil {
		return nil, err
	}
	if ok {
		if sel.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if ok, err = p.accept("UNION"); err != nil {
		return nil, err
	}
	if ok {
		comp := &CompoundSelect{}
		if comp.All, err = p.accept("ALL"); err != nil {
			return nil, err
		}
		if comp.Right, err = p.parseSelect(); err != nil {
			return nil, err
		}
		sel.Compound = comp
		return sel, nil
	}
	if ok, err = p.accept("ORDER"); err != nil {
		return nil, err
	}
	if ok {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			var item OrderItem
			if item.Expr, err = p.parseExpr(); err != nil {
				return nil, err
			}
			if ok, err = p.accept("DESC"); err != nil {
				return nil, err
			}
			item.Desc = ok
			if !ok {
				if _, err = p.accept("ASC"); err != nil {
					return nil, err
				}
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if sel.Limit, err = p.parseLimit(); err != nil {
		return nil, err
	}
	return sel, nil
}

// parseLimit accepts both canonical LIMIT n [OFFSET m] and the ANSI
// FETCH FIRST n ROWS ONLY form emitted by the Oracle-like dialect.
func (p *parser) parseLimit() (*LimitClause, error) {
	if ok, err := p.accept("LIMIT"); err != nil {
		return nil, err
	} else if ok {
		lc := &LimitClause{}
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		lc.Count = n
		if ok, err := p.accept("OFFSET"); err != nil {
			return nil, err
		} else if ok {
			if lc.Offset, err = p.intLiteral(); err != nil {
				return nil, err
			}
		}
		return lc, nil
	}
	if ok, err := p.accept("OFFSET"); err != nil {
		return nil, err
	} else if ok {
		lc := &LimitClause{Count: -1}
		var err error
		if lc.Offset, err = p.intLiteral(); err != nil {
			return nil, err
		}
		if _, err := p.accept("ROWS"); err != nil {
			return nil, err
		}
		if ok, err := p.accept("FETCH"); err != nil {
			return nil, err
		} else if ok {
			if err := p.expectKeyword("FIRST"); err != nil {
				return nil, err
			}
			if lc.Count, err = p.intLiteral(); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("ROWS"); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("ONLY"); err != nil {
				return nil, err
			}
		}
		return lc, nil
	}
	if ok, err := p.accept("FETCH"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("FIRST"); err != nil {
			return nil, err
		}
		lc := &LimitClause{}
		var err error
		if lc.Count, err = p.intLiteral(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ROWS"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ONLY"); err != nil {
			return nil, err
		}
		return lc, nil
	}
	return nil, nil
}

func (p *parser) intLiteral() (int64, error) {
	if p.tok.kind != tokNumber {
		return 0, errf(p.tok.pos, "expected integer, found %s", p.tok)
	}
	n, err := strconv.ParseInt(p.tok.val, 10, 64)
	if err != nil {
		return 0, errf(p.tok.pos, "bad integer %q", p.tok.val)
	}
	return n, p.advance()
}

func (p *parser) parseSelectItems() ([]SelectItem, error) {
	var items []SelectItem
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if !p.isOp(",") {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return items, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.isOp("*") {
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
		return SelectItem{Star: true}, nil
	}
	// "ident.*" needs lookahead: parse expr normally handles ident.ident,
	// so special-case the star suffix here.
	if p.tok.kind == tokIdent {
		save := *p.lex
		saveTok := p.tok
		name := p.tok.val
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
		if p.isOp(".") {
			if err := p.advance(); err != nil {
				return SelectItem{}, err
			}
			if p.isOp("*") {
				if err := p.advance(); err != nil {
					return SelectItem{}, err
				}
				return SelectItem{Star: true, Table: name}, nil
			}
		}
		// Not a star item: rewind and parse as an expression.
		*p.lex = save
		p.tok = saveTok
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if ok, err := p.accept("AS"); err != nil {
		return SelectItem{}, err
	} else if ok {
		if item.As, err = p.ident(); err != nil {
			return SelectItem{}, err
		}
	} else if p.tok.kind == tokIdent {
		// Bare alias.
		if item.As, err = p.ident(); err != nil {
			return SelectItem{}, err
		}
	}
	return item, nil
}

func (p *parser) parseFrom(sel *Select) error {
	ref, err := p.parseTableRef()
	if err != nil {
		return err
	}
	sel.From = append(sel.From, ref)
	for {
		switch {
		case p.isOp(","):
			if err := p.advance(); err != nil {
				return err
			}
			ref, err := p.parseTableRef()
			if err != nil {
				return err
			}
			sel.From = append(sel.From, ref)
		case p.isKeyword("JOIN"), p.isKeyword("INNER"), p.isKeyword("LEFT"):
			j := Join{Kind: JoinInner}
			if ok, err := p.accept("LEFT"); err != nil {
				return err
			} else if ok {
				j.Kind = JoinLeft
				if _, err := p.accept("OUTER"); err != nil {
					return err
				}
			} else if _, err := p.accept("INNER"); err != nil {
				return err
			}
			if err := p.expectKeyword("JOIN"); err != nil {
				return err
			}
			if j.Table, err = p.parseTableRef(); err != nil {
				return err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return err
			}
			if j.On, err = p.parseExpr(); err != nil {
				return err
			}
			sel.Joins = append(sel.Joins, j)
		default:
			return nil
		}
	}
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if ok, err := p.accept("AS"); err != nil {
		return TableRef{}, err
	} else if ok {
		if ref.Alias, err = p.ident(); err != nil {
			return TableRef{}, err
		}
		return ref, nil
	}
	if p.tok.kind == tokIdent {
		if ref.Alias, err = p.ident(); err != nil {
			return TableRef{}, err
		}
	}
	return ref, nil
}

// ---------------------------------------------------------------------
// DML / DDL

func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.isOp("(") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if p.isOp(")") {
				break
			}
			if err := p.expectOp(","); err != nil {
				return nil, err
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.isOp(")") {
				break
			}
			if err := p.expectOp(","); err != nil {
				return nil, err
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.isOp(",") {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	upd := &Update{Table: table}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, Assignment{Column: col, Expr: e})
		if !p.isOp(",") {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if ok, err := p.accept("WHERE"); err != nil {
		return nil, err
	} else if ok {
		if upd.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return upd, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if ok, err := p.accept("WHERE"); err != nil {
		return nil, err
	} else if ok {
		if del.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return del, nil
}

func (p *parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if ok, err := p.accept("UNIQUE"); err != nil {
		return nil, err
	} else if ok {
		// Uniqueness is treated the same as a plain index in this subset;
		// the ORDERED modifier still selects the index kind.
		ordered, err := p.acceptWord("ORDERED")
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("INDEX"); err != nil {
			return nil, err
		}
		return p.parseCreateIndexTail(ordered)
	}
	if ok, err := p.acceptWord("ORDERED"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("INDEX"); err != nil {
			return nil, err
		}
		return p.parseCreateIndexTail(true)
	}
	if ok, err := p.accept("INDEX"); err != nil {
		return nil, err
	} else if ok {
		return p.parseCreateIndexTail(false)
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	sc := &schema.Schema{Table: table}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		if ok, err := p.accept("PRIMARY"); err != nil {
			return nil, err
		} else if ok {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			for {
				k, err := p.ident()
				if err != nil {
					return nil, err
				}
				sc.Key = append(sc.Key, k)
				if p.isOp(")") {
					break
				}
				if err := p.expectOp(","); err != nil {
					return nil, err
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.parseColumnDef(sc)
			if err != nil {
				return nil, err
			}
			sc.Columns = append(sc.Columns, col)
		}
		if p.isOp(")") {
			break
		}
		if err := p.expectOp(","); err != nil {
			return nil, err
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, errf(p.tok.pos, "%v", err)
	}
	return &CreateTable{Schema: sc}, nil
}

func (p *parser) parseColumnDef(sc *schema.Schema) (schema.Column, error) {
	name, err := p.ident()
	if err != nil {
		return schema.Column{}, err
	}
	if p.tok.kind != tokIdent {
		return schema.Column{}, errf(p.tok.pos, "expected type name, found %s", p.tok)
	}
	typeName := p.tok.val
	if err := p.advance(); err != nil {
		return schema.Column{}, err
	}
	// Consume an optional precision like VARCHAR(40) or NUMBER(10,2).
	if p.isOp("(") {
		if err := p.advance(); err != nil {
			return schema.Column{}, err
		}
		for !p.isOp(")") {
			if p.tok.kind == tokEOF {
				return schema.Column{}, errf(p.tok.pos, "unterminated type precision")
			}
			if err := p.advance(); err != nil {
				return schema.Column{}, err
			}
		}
		if err := p.advance(); err != nil {
			return schema.Column{}, err
		}
	}
	t, err := schema.ParseType(typeName)
	if err != nil {
		return schema.Column{}, errf(p.tok.pos, "%v", err)
	}
	col := schema.Column{Name: name, Type: t}
	for {
		switch {
		case p.isKeyword("NOT"):
			if err := p.advance(); err != nil {
				return schema.Column{}, err
			}
			if err := p.expectKeyword("NULL"); err != nil {
				return schema.Column{}, err
			}
			col.NotNull = true
		case p.isKeyword("PRIMARY"):
			if err := p.advance(); err != nil {
				return schema.Column{}, err
			}
			if err := p.expectKeyword("KEY"); err != nil {
				return schema.Column{}, err
			}
			col.NotNull = true
			sc.Key = append(sc.Key, name)
		case p.isKeyword("NULL"):
			if err := p.advance(); err != nil {
				return schema.Column{}, err
			}
		default:
			return col, nil
		}
	}
}

func (p *parser) parseCreateIndexTail(ordered bool) (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
		if !p.isOp(",") {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if len(cols) > 1 && !ordered {
		return nil, errf(p.tok.pos, "hash indexes take a single column (use CREATE ORDERED INDEX for a composite key)")
	}
	return &CreateIndex{Name: name, Table: table, Columns: cols, Ordered: ordered}, nil
}

func (p *parser) parseDrop() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropTable{Table: table}, nil
}

// ---------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("OR") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.isKeyword("NOT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.tok.kind == tokOp && isCmpOp(p.tok.val):
			op := p.tok.val
			if op == "!=" {
				op = "<>"
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: op, L: l, R: r}
		case p.isKeyword("LIKE"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "LIKE", L: l, R: r}
		case p.isKeyword("IS"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			not, err := p.accept("NOT")
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			l = &IsNullExpr{E: l, Not: not}
		case p.isKeyword("NOT"), p.isKeyword("IN"), p.isKeyword("BETWEEN"):
			not := false
			if p.isKeyword("NOT") {
				// Only consume NOT when followed by IN/BETWEEN/LIKE.
				save := *p.lex
				saveTok := p.tok
				if err := p.advance(); err != nil {
					return nil, err
				}
				if !p.isKeyword("IN") && !p.isKeyword("BETWEEN") && !p.isKeyword("LIKE") {
					*p.lex = save
					p.tok = saveTok
					return l, nil
				}
				not = true
			}
			switch {
			case p.isKeyword("LIKE"):
				if err := p.advance(); err != nil {
					return nil, err
				}
				r, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				var e Expr = &BinaryExpr{Op: "LIKE", L: l, R: r}
				if not {
					e = &UnaryExpr{Op: "NOT", E: e}
				}
				l = e
			case p.isKeyword("IN"):
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expectOp("("); err != nil {
					return nil, err
				}
				in := &InExpr{E: l, Not: not}
				for {
					item, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					in.List = append(in.List, item)
					if p.isOp(")") {
						break
					}
					if err := p.expectOp(","); err != nil {
						return nil, err
					}
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				l = in
			case p.isKeyword("BETWEEN"):
				if err := p.advance(); err != nil {
					return nil, err
				}
				lo, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				if err := p.expectKeyword("AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &BetweenExpr{E: l, Not: not, Lo: lo, Hi: hi}
			}
		default:
			return l, nil
		}
	}
}

func isCmpOp(op string) bool {
	switch op {
	case "=", "<>", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.val == "+" || p.tok.val == "-" || p.tok.val == "||") {
		op := p.tok.val
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.val == "*" || p.tok.val == "/" || p.tok.val == "%") {
		op := p.tok.val
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.isOp("-") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok && !lit.Val.IsNull() {
			if neg, err := value.Neg(lit.Val); err == nil {
				return &Literal{Val: neg}, nil
			}
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	if p.isOp("+") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	switch {
	case p.tok.kind == tokNumber:
		lit := p.tok.val
		if err := p.advance(); err != nil {
			return nil, err
		}
		v, ok := numberValue(lit)
		if !ok {
			return nil, errf(p.tok.pos, "bad number %q", lit)
		}
		return &Literal{Val: v}, nil
	case p.tok.kind == tokParam:
		slot := p.tok.slot
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Param{Index: slot}, nil
	case p.tok.kind == tokString:
		s := p.tok.val
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Literal{Val: value.NewText(s)}, nil
	case p.isKeyword("NULL"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Literal{Val: value.Null()}, nil
	case p.isKeyword("TRUE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Literal{Val: value.NewBool(true)}, nil
	case p.isKeyword("FALSE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Literal{Val: value.NewBool(false)}, nil
	case p.isKeyword("CASE"):
		return p.parseCase()
	case p.isOp("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.tok.kind == tokIdent:
		name := p.tok.val
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isOp("(") {
			return p.parseFuncCall(name)
		}
		if p.isOp(".") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Column: col}, nil
		}
		return &ColumnRef{Column: name}, nil
	default:
		return nil, errf(p.tok.pos, "expected expression, found %s", p.tok)
	}
}

// numberValue converts a number token: an integer when it has no '.'
// or exponent and fits int64, a float otherwise.
func numberValue(lit string) (value.Value, bool) {
	if !strings.ContainsAny(lit, ".eE") {
		if i, err := strconv.ParseInt(lit, 10, 64); err == nil {
			return value.NewInt(i), true
		}
	}
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return value.Value{}, false
	}
	return value.NewFloat(f), true
}

func (p *parser) parseFuncCall(name string) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	fn := &FuncExpr{Name: strings.ToUpper(name)}
	if p.isOp("*") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		fn.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return fn, nil
	}
	if p.isOp(")") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		return fn, nil
	}
	if ok, err := p.accept("DISTINCT"); err != nil {
		return nil, err
	} else if ok {
		fn.Distinct = true
	}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fn.Args = append(fn.Args, a)
		if p.isOp(")") {
			break
		}
		if err := p.expectOp(","); err != nil {
			return nil, err
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return fn, nil
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	ce := &CaseExpr{}
	for {
		if ok, err := p.accept("WHEN"); err != nil {
			return nil, err
		} else if !ok {
			break
		}
		var w WhenClause
		var err error
		if w.Cond, err = p.parseExpr(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		if w.Result, err = p.parseExpr(); err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, w)
	}
	if len(ce.Whens) == 0 {
		return nil, errf(p.tok.pos, "CASE requires at least one WHEN")
	}
	if ok, err := p.accept("ELSE"); err != nil {
		return nil, err
	} else if ok {
		var err error
		if ce.Else, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}
