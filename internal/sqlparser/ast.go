// Package sqlparser implements the SQL front end used throughout MYRIAD:
// by the component DBMSs (local query language), by the gateways (query
// translation), and by the federation (global query language). The
// grammar is the dialect-neutral core; dialect-specific renderings are
// produced by the printer with a Style.
package sqlparser

import (
	"myriad/internal/schema"
	"myriad/internal/value"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	// String renders the statement in canonical MYRIAD SQL.
	String() string
}

// Expr is any scalar expression.
type Expr interface {
	expr()
	// String renders the expression in canonical MYRIAD SQL.
	String() string
}

// ---------------------------------------------------------------------
// Statements

// Select is a SELECT statement, possibly with UNION branches chained via
// Compound.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef // cross product of the listed refs; Joins apply on top
	Joins    []Join
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    *LimitClause
	Compound *CompoundSelect // UNION / UNION ALL continuation, or nil
}

// CompoundSelect chains a set operation onto a Select.
type CompoundSelect struct {
	All   bool // UNION ALL when true, UNION (distinct) otherwise
	Right *Select
}

// SelectItem is one output column of a SELECT.
type SelectItem struct {
	// Star is "*" (Table empty) or "t.*" (Table set); Expr is nil then.
	Star  bool
	Table string
	Expr  Expr
	As    string
}

// TableRef names a base relation with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// EffectiveName returns the alias if present, else the table name.
func (t TableRef) EffectiveName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinKind distinguishes the supported join forms.
type JoinKind uint8

// Supported join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
)

// Join is an explicit JOIN clause applied after the first FROM entry.
type Join struct {
	Kind  JoinKind
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// LimitClause carries LIMIT/OFFSET (canonical form).
type LimitClause struct {
	Count  int64
	Offset int64 // 0 when absent
}

// Insert is an INSERT INTO ... VALUES statement.
type Insert struct {
	Table   string
	Columns []string // empty means schema order
	Rows    [][]Expr
}

// Update is an UPDATE ... SET ... [WHERE] statement.
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET column = expr pair.
type Assignment struct {
	Column string
	Expr   Expr
}

// Delete is a DELETE FROM ... [WHERE] statement.
type Delete struct {
	Table string
	Where Expr
}

// CreateTable is a CREATE TABLE statement.
type CreateTable struct {
	Schema *schema.Schema
}

// DropTable is a DROP TABLE statement.
type DropTable struct {
	Table string
}

// CreateIndex is a CREATE [ORDERED] INDEX statement: a secondary index
// — hash (equality probes, one column) by default, ordered (range scans
// and sort-free ORDER BY) with the ORDERED modifier. Ordered indexes
// may be composite: CREATE ORDERED INDEX i ON t (a, b) orders by a,
// then b.
type CreateIndex struct {
	Name    string
	Table   string
	Columns []string
	Ordered bool
}

// TxnKind is the transaction-control verb.
type TxnKind uint8

// Transaction-control statement kinds.
const (
	TxnBegin TxnKind = iota
	TxnCommit
	TxnRollback
)

// TxnStmt is BEGIN/COMMIT/ROLLBACK.
type TxnStmt struct {
	Kind TxnKind
}

func (*Select) stmt()      {}
func (*Insert) stmt()      {}
func (*Update) stmt()      {}
func (*Delete) stmt()      {}
func (*CreateTable) stmt() {}
func (*DropTable) stmt()   {}
func (*CreateIndex) stmt() {}
func (*TxnStmt) stmt()     {}

// ---------------------------------------------------------------------
// Expressions

// Literal is a constant value.
type Literal struct {
	Val value.Value
}

// ColumnRef names a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table  string // empty when unqualified
	Column string
}

// BinaryExpr applies a binary operator. Op is one of:
// OR AND = <> < <= > >= + - * / % || LIKE.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr applies NOT or unary minus (Op "NOT" or "-").
type UnaryExpr struct {
	Op string
	E  Expr
}

// IsNullExpr is "expr IS [NOT] NULL".
type IsNullExpr struct {
	E   Expr
	Not bool
}

// InExpr is "expr [NOT] IN (list)".
type InExpr struct {
	E    Expr
	Not  bool
	List []Expr
}

// BetweenExpr is "expr [NOT] BETWEEN lo AND hi".
type BetweenExpr struct {
	E      Expr
	Not    bool
	Lo, Hi Expr
}

// FuncExpr is a function call. Distinct applies to aggregate arguments
// (COUNT(DISTINCT x)); Star marks COUNT(*).
type FuncExpr struct {
	Name     string // upper-cased
	Distinct bool
	Star     bool
	Args     []Expr
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr
}

// WhenClause is one WHEN cond THEN result arm.
type WhenClause struct {
	Cond   Expr
	Result Expr
}

// SlotRef is an executor-internal expression referring to a slot of a
// precomputed row (e.g. group keys and aggregate results). It is never
// produced by the parser.
type SlotRef struct {
	Slot int
}

// Param is a ? slot of a statement template (see Shape): the literal
// at that position, lifted out so one parse serves every execution of
// the shape. Index counts the template's slots from 0 in source order.
// Bind replaces each Param with its argument; an executor never sees
// one.
type Param struct {
	Index int
}

func (*Literal) expr()     {}
func (*ColumnRef) expr()   {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*IsNullExpr) expr()  {}
func (*InExpr) expr()      {}
func (*BetweenExpr) expr() {}
func (*FuncExpr) expr()    {}
func (*CaseExpr) expr()    {}
func (*SlotRef) expr()     {}
func (*Param) expr()       {}

// AggregateFuncs is the set of aggregate function names the executor
// understands.
var AggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// HasAggregate reports whether the expression tree contains an aggregate
// function call.
func HasAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		if f, ok := x.(*FuncExpr); ok && AggregateFuncs[f.Name] {
			found = true
			return false
		}
		return true
	})
	return found
}

// WalkExpr visits the expression tree in prefix order. The visitor
// returns false to stop descending into a subtree.
func WalkExpr(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExpr(x.L, visit)
		WalkExpr(x.R, visit)
	case *UnaryExpr:
		WalkExpr(x.E, visit)
	case *IsNullExpr:
		WalkExpr(x.E, visit)
	case *InExpr:
		WalkExpr(x.E, visit)
		for _, it := range x.List {
			WalkExpr(it, visit)
		}
	case *BetweenExpr:
		WalkExpr(x.E, visit)
		WalkExpr(x.Lo, visit)
		WalkExpr(x.Hi, visit)
	case *FuncExpr:
		for _, a := range x.Args {
			WalkExpr(a, visit)
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			WalkExpr(w.Cond, visit)
			WalkExpr(w.Result, visit)
		}
		WalkExpr(x.Else, visit)
	}
}

// RewriteExpr returns a copy of the tree with each node transformed
// bottom-up by fn. fn receives an already-rewritten node and returns its
// replacement.
func RewriteExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Literal:
		c := *x
		return fn(&c)
	case *ColumnRef:
		c := *x
		return fn(&c)
	case *BinaryExpr:
		c := *x
		c.L = RewriteExpr(x.L, fn)
		c.R = RewriteExpr(x.R, fn)
		return fn(&c)
	case *UnaryExpr:
		c := *x
		c.E = RewriteExpr(x.E, fn)
		return fn(&c)
	case *IsNullExpr:
		c := *x
		c.E = RewriteExpr(x.E, fn)
		return fn(&c)
	case *InExpr:
		c := *x
		c.E = RewriteExpr(x.E, fn)
		c.List = make([]Expr, len(x.List))
		for i, it := range x.List {
			c.List[i] = RewriteExpr(it, fn)
		}
		return fn(&c)
	case *BetweenExpr:
		c := *x
		c.E = RewriteExpr(x.E, fn)
		c.Lo = RewriteExpr(x.Lo, fn)
		c.Hi = RewriteExpr(x.Hi, fn)
		return fn(&c)
	case *FuncExpr:
		c := *x
		c.Args = make([]Expr, len(x.Args))
		for i, a := range x.Args {
			c.Args[i] = RewriteExpr(a, fn)
		}
		return fn(&c)
	case *CaseExpr:
		c := *x
		c.Whens = make([]WhenClause, len(x.Whens))
		for i, w := range x.Whens {
			c.Whens[i] = WhenClause{Cond: RewriteExpr(w.Cond, fn), Result: RewriteExpr(w.Result, fn)}
		}
		c.Else = RewriteExpr(x.Else, fn)
		return fn(&c)
	default:
		return fn(e)
	}
}

// SplitConjuncts flattens a tree of ANDs into its conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// JoinConjuncts rebuilds an AND tree from conjuncts (nil for none).
func JoinConjuncts(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &BinaryExpr{Op: "AND", L: out, R: e}
		}
	}
	return out
}

// ColumnsIn collects every column reference in the expression.
func ColumnsIn(e Expr) []*ColumnRef {
	var cols []*ColumnRef
	WalkExpr(e, func(x Expr) bool {
		if c, ok := x.(*ColumnRef); ok {
			cols = append(cols, c)
		}
		return true
	})
	return cols
}
