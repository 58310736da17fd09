package testfed

import (
	"context"
	"testing"

	"myriad/internal/core"
	"myriad/internal/executor"
	"myriad/internal/planner"
	"myriad/internal/sqlparser"
)

// TestOracleCatchesPlannerMistakes: the oracle shares no code with the
// planner, so a plan the planner got wrong executes cleanly through
// executor.Execute yet fails the oracle comparison. A reference that
// re-executed the same plan would have agreed with it. (Dropping a
// pushed conjunct is no mistake to catch: the residual re-applies every
// WHERE conjunct, so only a narrowed one loses rows.)
func TestOracleCatchesPlannerMistakes(t *testing.T) {
	fx := equivalenceFixture(t)
	oracle := fx.Oracle(t)
	ctx := context.Background()
	for _, tc := range []struct {
		name, sql string
		mutate    func(t *testing.T, p *planner.Plan)
	}{
		{"live source pruned", `SELECT id, v FROM R ORDER BY id, v`, func(t *testing.T, p *planner.Plan) {
			p.ScanSets[0].Scans[1].Pruned = "wrongly proved empty"
		}},
		{"pushed conjunct narrowed at one source", `SELECT id, v FROM R WHERE v > 50 ORDER BY id`, func(t *testing.T, p *planner.Plan) {
			scan := p.ScanSets[0].Scans[1]
			if scan.Select.Where == nil {
				t.Fatalf("selection not pushed:\n%s", p.Describe())
			}
			narrowed, err := sqlparser.ParseExpr("v > 60")
			if err != nil {
				t.Fatal(err)
			}
			scan.Select.Where = narrowed
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(mutate func(*testing.T, *planner.Plan)) error {
				plan, err := fx.Plan(ctx, tc.sql, core.StrategyCostBased)
				if err != nil {
					t.Fatal(err)
				}
				if mutate != nil {
					mutate(t, plan)
				}
				got, _, err := execute(ctx, plan, fx.Runner(), executor.Options{})
				if err != nil {
					t.Fatalf("executing: %v", err)
				}
				return oracle.Check(ctx, tc.sql, got)
			}
			if err := run(nil); err != nil {
				t.Fatalf("unmutated plan: %v", err)
			}
			if err := run(tc.mutate); err == nil {
				t.Fatal("oracle agreed with a wrong plan")
			} else {
				t.Logf("caught: %v", err)
			}
		})
	}
}
