package testfed

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"myriad/internal/catalog"
	"myriad/internal/core"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/schema"
	"myriad/internal/value"
)

// genSeed fixes the generated corpus; a failing subtest's message
// carries its SQL, so a failure reproduces from the seed alone.
const genSeed = 19940524

// genQueries is how many SELECTs the generator draws per run. Each runs
// under every fan-in policy × strategy × budget mode.
const genQueries = 40

// genDepts and genNotes are the text domains: quotes, comment markers
// and a backslash inside literals, because every pushed predicate is
// printed per dialect and re-parsed at the site. The empty string is a
// value, not NULL.
var (
	genDepts = []string{"sales", "O'Brien", "r&d", "a--b", "/*x*/", `back\slash`, ""}
	genNotes = []string{"ok", "it's", "-- no", "50%"}
)

// generatedFixture spreads one employee relation over three sites in
// three dialects with different local names, NULL-bearing columns and
// indexes, plus a fourth site whose pay column is FLOAT under E's
// INTEGER (every value it ships must be coerced to the declared kind),
// and integrates them three ways:
//
//	E = a.emp UNION ALL b.staff UNION ALL c.emp (c filtered) UNION ALL d.emp
//	U = a.emp UNION c.emp           (ids 0..39 identical at both)
//	X = a.emp ⟗ b.staff ⟗ c.emp on id (pay max, note last)
func generatedFixture(t testing.TB) *Fixture {
	t.Helper()
	const createEmp = `CREATE TABLE emp (id INTEGER PRIMARY KEY, dept TEXT, pay INTEGER, note TEXT)`
	specs := []SiteSpec{
		{Name: "a", Dialect: "oracle", Setup: []string{createEmp, `CREATE INDEX emp_dept ON emp (dept)`},
			Exports: []gateway.Export{{Name: "EMP", LocalTable: "emp"}}},
		{Name: "b", Dialect: "postgres", Setup: []string{
			`CREATE TABLE staff (sid INTEGER PRIMARY KEY, unit TEXT, salary INTEGER, note TEXT)`,
			`CREATE ORDERED INDEX staff_salary ON staff (salary)`},
			Exports: []gateway.Export{{Name: "STAFF", LocalTable: "staff"}}},
		{Name: "c", Setup: []string{createEmp, `CREATE ORDERED INDEX emp_pay ON emp (pay)`},
			Exports: []gateway.Export{{Name: "EMP", LocalTable: "emp"}}},
		{Name: "d", Setup: []string{`CREATE TABLE emp (id INTEGER PRIMARY KEY, dept TEXT, pay FLOAT, note TEXT)`},
			Exports: []gateway.Export{{Name: "EMP", LocalTable: "emp"}}},
	}
	cols := []schema.Column{
		{Name: "id", Type: schema.TInt},
		{Name: "dept", Type: schema.TText},
		{Name: "pay", Type: schema.TInt},
		{Name: "note", Type: schema.TText},
	}
	same := map[string]string{"id": "id", "dept": "dept", "pay": "pay", "note": "note"}
	srcA := catalog.SourceDef{Site: "a", Export: "EMP", ColumnMap: same}
	srcB := catalog.SourceDef{Site: "b", Export: "STAFF",
		ColumnMap: map[string]string{"id": "sid", "dept": "unit", "pay": "salary", "note": "note"}}
	srcC := catalog.SourceDef{Site: "c", Export: "EMP", ColumnMap: same}
	srcCFiltered := srcC
	srcCFiltered.Filter = "pay IS NULL OR pay < 80"
	srcD := catalog.SourceDef{Site: "d", Export: "EMP", ColumnMap: same}
	defs := []*catalog.IntegratedDef{
		{Name: "E", Columns: cols, Key: []string{"id"}, Combine: integration.UnionAll,
			Sources: []catalog.SourceDef{srcA, srcB, srcCFiltered, srcD}},
		{Name: "U", Columns: cols, Key: []string{"id"}, Combine: integration.UnionDistinct,
			Sources: []catalog.SourceDef{srcA, srcC}},
		{Name: "X", Columns: cols, Key: []string{"id"}, Combine: integration.MergeOuter,
			Sources:   []catalog.SourceDef{srcA, srcB, srcC},
			Resolvers: map[string]string{"pay": "max", "note": "last"}},
	}
	fx := New(t, specs, defs)

	rng := rand.New(rand.NewSource(genSeed))
	rows := func(base, n int) []schema.Row {
		out := make([]schema.Row, n)
		for i := range out {
			dept, pay, note := value.Null(), value.Null(), value.Null()
			if rng.Intn(10) > 0 {
				dept = value.NewText(genDepts[rng.Intn(len(genDepts))])
			}
			if rng.Intn(8) > 0 {
				pay = value.NewInt(int64(rng.Intn(100)))
			}
			if rng.Intn(3) > 0 {
				note = value.NewText(genNotes[rng.Intn(len(genNotes))])
			}
			out[i] = schema.Row{value.NewInt(int64(base + i)), dept, pay, note}
		}
		return out
	}
	a := rows(0, 120)
	fx.LoadRows(t, "a", "emp", a)
	fx.LoadRows(t, "b", "staff", rows(60, 120)) // ids 60..179: conflicts with a in X
	fx.LoadRows(t, "c", "emp", append(append([]schema.Row(nil), a[:40]...), rows(200, 40)...))
	fx.LoadRows(t, "d", "emp", rows(300, 40)) // pay stored as FLOAT: whole numbers, so coercion is exact
	return fx
}

// queryGen draws random SELECTs over generatedFixture's relations:
// filters (comparisons, IN, BETWEEN, LIKE, IS NULL, NOT, AND/OR),
// DISTINCT, GROUP BY / HAVING, global aggregates, cross-relation joins,
// UNION [ALL], and ORDER BY / LIMIT / OFFSET. Every ORDER BY lists all
// output columns, so ordered answers are fixed row for row.
type queryGen struct{ rng *rand.Rand }

var genRelations = []string{"E", "U", "X"}

func (g *queryGen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

func genText(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// atom is one predicate over relation alias q ("" for unqualified).
func (g *queryGen) atom(q string) string {
	col := func(c string) string {
		if q == "" {
			return c
		}
		return q + "." + c
	}
	n := func() int { return g.rng.Intn(200) }
	switch g.rng.Intn(14) {
	case 0:
		return fmt.Sprintf("%s < %d", col("id"), n())
	case 1:
		lo := n()
		return fmt.Sprintf("%s BETWEEN %d AND %d", col("id"), lo, lo+g.rng.Intn(60))
	case 2:
		return fmt.Sprintf("%s IN (%d, %d, %d)", col("id"), n(), n(), n())
	case 3:
		return fmt.Sprintf("%s > %d", col("pay"), g.rng.Intn(100))
	case 4:
		return fmt.Sprintf("%s <= %d", col("pay"), g.rng.Intn(100))
	case 5:
		return col("pay") + " IS NULL"
	case 6:
		lo := g.rng.Intn(100)
		return fmt.Sprintf("%s NOT BETWEEN %d AND %d", col("pay"), lo, lo+g.rng.Intn(40))
	case 7:
		return fmt.Sprintf("%s + %s > %d", col("pay"), col("id"), n())
	case 8:
		return fmt.Sprintf("%s = %s", col("dept"), genText(g.pick(genDepts)))
	case 9:
		return fmt.Sprintf("%s <> %s", col("dept"), genText(g.pick(genDepts)))
	case 10:
		return fmt.Sprintf("%s IN (%s, %s)", col("dept"), genText(g.pick(genDepts)), genText(g.pick(genDepts)))
	case 11:
		return fmt.Sprintf("%s NOT IN (%s, %s)", col("dept"), genText(g.pick(genDepts)), genText(g.pick(genDepts)))
	case 12:
		return fmt.Sprintf("%s LIKE %s", col("dept"), genText(g.pick([]string{"s%", "%a%", "_-%", "%\\%"})))
	default:
		return fmt.Sprintf("%s = %s", col("note"), genText(g.pick(genNotes)))
	}
}

// where returns " WHERE …" over alias q, or "" a quarter of the time.
func (g *queryGen) where(qs ...string) string {
	if g.rng.Intn(4) == 0 {
		return ""
	}
	p := g.atom(g.pick(qs))
	for i := g.rng.Intn(3); i > 0; i-- {
		op := " AND "
		if g.rng.Intn(3) == 0 {
			op = " OR "
		}
		p = "(" + p + op + g.atom(g.pick(qs)) + ")"
	}
	if g.rng.Intn(6) == 0 {
		p = "NOT " + p
	}
	return " WHERE " + p
}

// tail adds ORDER BY over every output column (random directions and
// order) and/or LIMIT [OFFSET]. OFFSET only rides an ORDER BY.
func (g *queryGen) tail(outputs []string) string {
	var b strings.Builder
	ordered := g.rng.Intn(3) > 0
	if ordered {
		b.WriteString(" ORDER BY ")
		for i, p := range g.rng.Perm(len(outputs)) {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(outputs[p])
			if g.rng.Intn(3) == 0 {
				b.WriteString(" DESC")
			}
		}
	}
	if g.rng.Intn(2) == 0 {
		fmt.Fprintf(&b, " LIMIT %d", 1+g.rng.Intn(40))
		if ordered && g.rng.Intn(2) == 0 {
			fmt.Fprintf(&b, " OFFSET %d", g.rng.Intn(30))
		}
	}
	return b.String()
}

// subset returns a random non-empty ordering of some of cols.
func (g *queryGen) subset(cols []string) []string {
	perm := g.rng.Perm(len(cols))
	out := make([]string, 1+g.rng.Intn(len(cols)))
	for i := range out {
		out[i] = cols[perm[i]]
	}
	return out
}

func (g *queryGen) query() string {
	rel := g.pick(genRelations)
	switch g.rng.Intn(6) {
	case 0: // projection, maybe with a computed column
		cols := g.subset([]string{"id", "dept", "pay", "note"})
		items := strings.Join(cols, ", ")
		if g.rng.Intn(3) == 0 {
			items += ", pay + id AS total"
			cols = append(cols, "total")
		}
		return "SELECT " + items + " FROM " + rel + g.where("") + g.tail(cols)
	case 1: // DISTINCT
		cols := g.subset([]string{"dept", "pay", "note"})
		return "SELECT DISTINCT " + strings.Join(cols, ", ") + " FROM " + rel + g.where("") + g.tail(cols)
	case 2: // GROUP BY [HAVING]
		grp := g.pick([]string{"dept", "note", "pay"})
		aggs := g.subset([]string{"COUNT(*) AS n", "COUNT(pay) AS np", "SUM(pay) AS s", "MIN(id) AS lo", "MAX(pay) AS hi"})
		sql := "SELECT " + grp + ", " + strings.Join(aggs, ", ") + " FROM " + rel + g.where("") + " GROUP BY " + grp
		if g.rng.Intn(3) == 0 {
			sql += fmt.Sprintf(" HAVING COUNT(*) > %d", g.rng.Intn(20))
		}
		return sql + g.tail([]string{grp})
	case 3: // global aggregate
		aggs := g.subset([]string{"COUNT(*) AS n", "SUM(pay) AS s", "MIN(dept) AS md", "MAX(id) AS hi", "COUNT(note) AS nn"})
		return "SELECT " + strings.Join(aggs, ", ") + " FROM " + rel + g.where("")
	case 4: // join on the key, or on a text column within a key range
		other := g.pick(genRelations)
		on := "l.id = r.id"
		if g.rng.Intn(3) == 0 {
			on = fmt.Sprintf("l.dept = r.dept AND l.id < %d", 10+g.rng.Intn(40))
		}
		outs := []string{"l.id", "l.dept", "rpay"}
		return "SELECT l.id, l.dept, r.pay AS rpay FROM " + rel + " l JOIN " + other + " r ON " + on +
			g.where("l", "r") + g.tail(outs)
	default: // UNION [ALL]
		op := " UNION "
		if g.rng.Intn(2) == 0 {
			op = " UNION ALL "
		}
		return "SELECT id, dept FROM " + rel + g.where("") + op + "SELECT id, dept FROM " + g.pick(genRelations) +
			g.where("") + g.tail([]string{"id", "dept"})
	}
}

// TestGeneratedQueriesMatchOracle holds the federation to the oracle on
// a seeded random corpus over three dialects, every combinator,
// NULL-bearing text and integer columns and a source of another kind
// than its column declares, under both fan-in policies, both
// strategies, and both without a memory budget and with a forced 4 KB
// one (every blocking operator spills). An answer the bypass serves —
// every shape fedserver may relay as the sites' batches — is checked
// again as a client reads it from fedserver over TCP.
func TestGeneratedQueriesMatchOracle(t *testing.T) {
	fx := generatedFixture(t)
	oracle := fx.Oracle(t)
	cl := relayClient(t, fx)
	ctx := context.Background()
	g := &queryGen{rng: rand.New(rand.NewSource(genSeed))}
	corpus := make([]string, genQueries)
	for i := range corpus {
		corpus[i] = g.query()
	}
	spillDir := t.TempDir()
	defer func() { fx.Fed.FanIn, fx.Fed.MemBudget, fx.Fed.SpillDir = core.FanInAuto, 0, "" }()
	for _, budget := range []int64{0, 4096} {
		fx.Fed.MemBudget, fx.Fed.SpillDir = budget, ""
		mode := "unbudgeted"
		if budget > 0 {
			fx.Fed.SpillDir, mode = spillDir, "4KB"
		}
		for _, policy := range []core.FanInPolicy{core.FanInAuto, core.FanInInterleave} {
			fx.Fed.FanIn = policy
			for _, strategy := range []core.Strategy{core.StrategyCostBased, core.StrategySimple} {
				for i, sql := range corpus {
					t.Run(fmt.Sprintf("%s/%v/%v/q%02d", mode, policy, strategy, i), func(t *testing.T) {
						got, m, err := fx.Fed.QueryMetered(ctx, sql, strategy)
						if err != nil {
							t.Fatalf("seed %d: %s: %v", genSeed, sql, err)
						}
						if err := oracle.Check(ctx, sql, got); err != nil {
							t.Fatalf("seed %d: %s: %v", genSeed, sql, err)
						}
						if !m.ScratchBypassed {
							return
						}
						if got, err = cl.Query(ctx, strategyPrefix(strategy)+sql); err != nil {
							t.Fatalf("seed %d: %s: through fedserver: %v", genSeed, sql, err)
						}
						if err := oracle.Check(ctx, sql, got); err != nil {
							t.Fatalf("seed %d: %s: through fedserver: %v", genSeed, sql, err)
						}
					})
				}
			}
		}
	}
	assertNoSpillFiles(t, spillDir)
}
