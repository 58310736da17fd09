package workload

import (
	"context"
	"testing"

	"myriad/internal/core"
)

func TestBuildParts(t *testing.T) {
	dep := BuildParts(PartsSpec{Sites: 3, RowsPerSite: 200, Seed: 1})
	ctx := context.Background()
	rs, err := dep.Fed.Query(ctx, `SELECT COUNT(*) FROM PARTS`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Text() != "600" {
		t.Errorf("parts count = %s", rs.Rows[0][0].Text())
	}
	// Deterministic: same seed, same data.
	dep2 := BuildParts(PartsSpec{Sites: 3, RowsPerSite: 200, Seed: 1})
	rs1, _ := dep.Fed.Query(ctx, `SELECT SUM(weight) FROM PARTS`)
	rs2, _ := dep2.Fed.Query(ctx, `SELECT SUM(weight) FROM PARTS`)
	if rs1.Rows[0][0].Text() != rs2.Rows[0][0].Text() {
		t.Error("same seed produced different data")
	}
	// Selectivity knob: weight < 100 is ~10%.
	rs, err = dep.Fed.Query(ctx, `SELECT COUNT(*) FROM PARTS WHERE weight < 100`)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := rs.Rows[0][0].Int()
	if n < 30 || n > 90 {
		t.Errorf("weight < 100 matched %d of 600, expected ~60", n)
	}
	// Heterogeneous dialects across sites.
	if dep.Sites[0].Gateway.Dialect() == dep.Sites[1].Gateway.Dialect() {
		t.Error("adjacent sites share a dialect")
	}
}

func TestBuildOrders(t *testing.T) {
	dep := BuildOrders(OrdersSpec{Customers: 50, Orders: 500, HotPercent: 0.2, Seed: 2})
	ctx := context.Background()
	rs, err := dep.Fed.Query(ctx,
		`SELECT COUNT(*) FROM CUSTOMERS c JOIN ORDERS o ON c.cid = o.cust`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Text() != "500" {
		t.Errorf("every order should join a customer: %s", rs.Rows[0][0].Text())
	}
	rs, _, err = dep.Fed.QueryMetered(ctx, `SELECT COUNT(*) FROM CUSTOMERS WHERE tier = 'gold'`, core.StrategySimple)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := rs.Rows[0][0].Int()
	if n < 2 || n > 25 {
		t.Errorf("gold customers = %d of 50 at 20%%", n)
	}
}

func TestBuildBankInvariant(t *testing.T) {
	dep := BuildBank(BankSpec{Sites: 3, AccountsPerSite: 10, InitialBalance: 100})
	ctx := context.Background()
	total, err := dep.TotalBalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3000 {
		t.Errorf("total = %d", total)
	}
	// The integrated view agrees with the direct sum.
	rs, err := dep.Fed.Query(ctx, `SELECT SUM(bal) FROM ACCOUNTS`)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := rs.Rows[0][0].Int(); got != total {
		t.Errorf("integrated sum %d != direct %d", got, total)
	}
}
