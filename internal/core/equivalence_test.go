package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"myriad/internal/core"
	"myriad/internal/schema"
	"myriad/internal/testfed"
	"myriad/internal/workload"
)

// TestStrategiesAgreeOnRandomQueries is the optimizer's differential
// test: the simple and cost-based strategies must return identical
// results for randomly generated queries, across every rewrite the
// cost-based planner can choose (selection pushdown, projection
// pruning, top-K, partial aggregation, semijoin, join reordering) — and
// each must also match the single-database oracle, the third voice that
// shares no planner code, so a mistake both strategies make is caught.
func TestStrategiesAgreeOnRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(941223)) // SIGMOD '94 vintage
	parts := workload.BuildParts(workload.PartsSpec{Sites: 3, RowsPerSite: 400, Seed: 5})
	orders := workload.BuildOrders(workload.OrdersSpec{Customers: 60, Orders: 600, HotPercent: 0.2, Seed: 5})
	ctx := context.Background()
	oracles := make(map[*core.Federation]*testfed.Oracle)
	for _, fed := range []*core.Federation{parts.Fed, orders.Fed} {
		o, err := testfed.NewOracle(ctx, fed)
		if err != nil {
			t.Fatal(err)
		}
		oracles[fed] = o
	}

	preds := []string{
		"",
		"weight < 100",
		"weight >= 900",
		"price BETWEEN 1000 AND 2000",
		"category = 'cat03'",
		"category IN ('cat01', 'cat02', 'cat03')",
		"site = 'site1'",
		"weight < 500 AND price > 5000",
		"category = 'cat07' OR weight < 50",
		"name LIKE 'part-1%'",
	}
	shapes := []string{
		`SELECT id, name, weight FROM PARTS %s ORDER BY id`,
		`SELECT COUNT(*) FROM PARTS %s`,
		`SELECT category, COUNT(*) AS n, MIN(weight), MAX(weight) FROM PARTS %s GROUP BY category ORDER BY category`,
		`SELECT category, ROUND(AVG(price), 4) AS ap FROM PARTS %s GROUP BY category HAVING COUNT(*) > 2 ORDER BY category`,
		`SELECT id, weight FROM PARTS %s ORDER BY weight DESC LIMIT 7`,
		`SELECT id FROM PARTS %s ORDER BY price LIMIT 5 OFFSET 2`,
		`SELECT DISTINCT category FROM PARTS %s ORDER BY category`,
		`SELECT site, SUM(price) AS total FROM PARTS %s GROUP BY site ORDER BY site`,
	}

	run := func(fed *core.Federation, sql string) []string {
		t.Helper()
		var outs [2][]string
		for i, strat := range []core.Strategy{core.StrategySimple, core.StrategyCostBased} {
			rs, _, err := fed.QueryMetered(ctx, sql, strat)
			if err != nil {
				t.Fatalf("[%v] %s: %v", strat, sql, err)
			}
			if err := oracles[fed].Check(ctx, sql, rs); err != nil {
				t.Fatalf("[%v] %s: %v", strat, sql, err)
			}
			outs[i] = canonRows(rs)
		}
		if strings.Join(outs[0], "\n") != strings.Join(outs[1], "\n") {
			t.Fatalf("strategies disagree on %s:\nsimple:\n%s\ncost-based:\n%s",
				sql, strings.Join(outs[0], "\n"), strings.Join(outs[1], "\n"))
		}
		return outs[0]
	}

	count := 0
	for _, shape := range shapes {
		for i := 0; i < 6; i++ {
			pred := preds[rng.Intn(len(preds))]
			where := ""
			if pred != "" {
				where = "WHERE " + pred
			}
			run(parts.Fed, fmt.Sprintf(shape, where))
			count++
		}
	}

	// Join shapes on the orders federation (exercises semijoin + join
	// reordering).
	joinShapes := []string{
		`SELECT c.cname, o.amount FROM CUSTOMERS c JOIN ORDERS o ON c.cid = o.cust WHERE c.tier = 'gold' ORDER BY c.cname, o.amount`,
		`SELECT c.region, COUNT(*) AS n FROM CUSTOMERS c JOIN ORDERS o ON c.cid = o.cust GROUP BY c.region ORDER BY c.region`,
		`SELECT c.cname FROM ORDERS o JOIN CUSTOMERS c ON o.cust = c.cid WHERE o.amount > 450 ORDER BY c.cname`,
		`SELECT c.cname, o.item FROM CUSTOMERS c LEFT JOIN ORDERS o ON c.cid = o.cust AND o.amount > 490 WHERE c.tier = 'gold' ORDER BY c.cname, o.item`,
	}
	for _, sql := range joinShapes {
		run(orders.Fed, sql)
		count++
	}
	t.Logf("verified %d random queries across both strategies", count)
}

// canonRows renders rows order-insensitively unless the query ordered
// them (we sort everything; ORDER BY queries are deterministic anyway,
// and sorting canonicalizes ties).
func canonRows(rs *schema.ResultSet) []string {
	out := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.Text()
		}
		out[i] = strings.Join(cells, "|")
	}
	sort.Strings(out)
	return out
}
