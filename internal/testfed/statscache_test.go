package testfed

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"myriad/internal/catalog"
	"myriad/internal/gateway"
	"myriad/internal/gtm"
	"myriad/internal/integration"
	"myriad/internal/schema"
	"myriad/internal/storage"
	"myriad/internal/wal"
)

// Scoped stats invalidation over real sites: a global transaction drops
// the cached stats of exactly the exports it wrote, so reads of other
// relations keep their cache, while every write the federation
// coordinates — committed, aborted, or re-driven after a coordinator
// restart — still reaches the planner's source pruning.

// countingConn counts Stats pulls per export on top of a real
// connection.
type countingConn struct {
	gateway.Conn
	mu    sync.Mutex
	pulls map[string]int // lower-cased export -> Stats calls
}

func (c *countingConn) Stats(ctx context.Context, export string) (*storage.TableStats, error) {
	c.mu.Lock()
	c.pulls[strings.ToLower(export)]++
	c.mu.Unlock()
	return c.Conn.Stats(ctx, export)
}

func (c *countingConn) count(export string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pulls[strings.ToLower(export)]
}

// statsFixture boots sites a and b, each exporting ACCT (three accounts)
// and PART (a holds ids 1-10, b ids 101-110), integrated as ACCOUNTS and
// PARTS, with a durable coordinator log and every site's connection
// wrapped in a countingConn.
func statsFixture(t *testing.T) (*Fixture, map[string]*countingConn) {
	t.Helper()
	exports := []gateway.Export{{Name: "ACCT", LocalTable: "acct"}, {Name: "PART", LocalTable: "part"}}
	spec := func(name string, base int) SiteSpec {
		setup := append(acctSeed(), `CREATE TABLE part (id INTEGER PRIMARY KEY, name TEXT)`)
		for i := 1; i <= 10; i++ {
			setup = append(setup, fmt.Sprintf(`INSERT INTO part (id, name) VALUES (%d, 'p%d')`, base+i, base+i))
		}
		return SiteSpec{Name: name, Setup: setup, Exports: exports}
	}
	union := func(name, export string, cols ...schema.Column) *catalog.IntegratedDef {
		def := &catalog.IntegratedDef{Name: name, Key: []string{"id"}, Combine: integration.UnionAll, Columns: cols}
		for _, s := range []string{"a", "b"} {
			m := make(map[string]string, len(cols))
			for _, c := range cols {
				m[c.Name] = c.Name
			}
			def.Sources = append(def.Sources, catalog.SourceDef{Site: s, Export: export, ColumnMap: m})
		}
		return def
	}
	id := schema.Column{Name: "id", Type: schema.TInt}
	fx := New(t, []SiteSpec{spec("a", 0), spec("b", 100)}, []*catalog.IntegratedDef{
		union("PARTS", "PART", id, schema.Column{Name: "name", Type: schema.TText}),
		union("ACCOUNTS", "ACCT", id, schema.Column{Name: "bal", Type: schema.TInt}),
	})
	if fx.Fed.Coordinator().LogPath() == "" {
		if err := fx.Fed.EnableCoordinatorLog(filepath.Join(t.TempDir(), "coord.log"), wal.Options{Sync: wal.SyncAlways}); err != nil {
			t.Fatal(err)
		}
	}
	counted := make(map[string]*countingConn)
	for _, s := range []string{"a", "b"} {
		conn, _ := fx.Fed.Conn(s)
		cc := &countingConn{Conn: conn, pulls: make(map[string]int)}
		if err := fx.Fed.AttachSite(context.Background(), cc); err != nil {
			t.Fatal(err)
		}
		counted[s] = cc
	}
	return fx, counted
}

// expectRows runs sql and asserts the result's row count.
func expectRows(t *testing.T, fx *Fixture, sql string, want int) {
	t.Helper()
	rs, err := fx.Query(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if len(rs.Rows) != want {
		t.Fatalf("%s: %d rows, want %d", sql, len(rs.Rows), want)
	}
}

// expectPulls asserts each site's Stats pull count for export.
func expectPulls(t *testing.T, cc map[string]*countingConn, export string, a, b int) {
	t.Helper()
	if ga, gb := cc["a"].count(export), cc["b"].count(export); ga != a || gb != b {
		t.Fatalf("%s pulls a=%d b=%d, want a=%d b=%d", export, ga, gb, a, b)
	}
}

// TestUnrelatedCommitsKeepStats: committed transfers write only ACCT,
// so PARTS queries after them pull no stats at all — the pull count
// stays at the number of distinct keys read, not the number of commits
// — while the next ACCOUNTS query does re-pull ACCT.
func TestUnrelatedCommitsKeepStats(t *testing.T) {
	fx, cc := statsFixture(t)
	ctx := context.Background()
	expectRows(t, fx, `SELECT id, name FROM PARTS WHERE id = 5`, 1)
	expectRows(t, fx, `SELECT id, bal FROM ACCOUNTS WHERE id = 1`, 2)
	pulls := fx.Fed.StatsCacheStats().Pulls.Load()
	for i := 0; i < 20; i++ {
		if err := transfer(t, fx).Commit(ctx); err != nil {
			t.Fatal(err)
		}
		expectRows(t, fx, fmt.Sprintf(`SELECT id, name FROM PARTS WHERE id = %d`, 101+i%10), 1)
	}
	expectPulls(t, cc, "PART", 1, 1)
	if got := fx.Fed.StatsCacheStats().Pulls.Load(); got != pulls {
		t.Fatalf("stats pulls grew from %d to %d across commits that wrote only ACCT", pulls, got)
	}
	expectPulls(t, cc, "ACCT", 1, 1)
	expectRows(t, fx, `SELECT id, bal FROM ACCOUNTS WHERE id = 1`, 2)
	expectPulls(t, cc, "ACCT", 2, 2)
}

// TestCommittedInsertBeyondCachedBounds: a row a global transaction
// inserts past a fragment's cached max(id) is visible to the next
// query, not pruned — through one-phase and two-phase commit alike.
func TestCommittedInsertBeyondCachedBounds(t *testing.T) {
	fx, _ := statsFixture(t)
	ctx := context.Background()
	cases := []struct {
		name  string
		sites []string
		id    int
	}{
		{"one-phase", []string{"a"}, 50},
		{"two-phase", []string{"a", "b"}, 60},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			query := fmt.Sprintf(`SELECT id FROM PARTS WHERE id = %d`, tc.id)
			expectRows(t, fx, query, 0) // both fragments pruned on cached bounds
			txn := fx.Fed.Begin()
			for i, s := range tc.sites {
				sql := fmt.Sprintf(`INSERT INTO PART (id, name) VALUES (%d, 'new')`, tc.id+i*100)
				if _, err := txn.ExecSite(ctx, s, sql); err != nil {
					t.Fatal(err)
				}
			}
			if err := txn.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			expectRows(t, fx, query, 1)
		})
	}
}

// TestUnknownTargetInvalidatesSite: a statement whose target cannot be
// named — unparseable, or not INSERT/UPDATE/DELETE — drops every export
// at its site, and nothing at the other site.
func TestUnknownTargetInvalidatesSite(t *testing.T) {
	for _, sql := range []string{`UPDATE`, `SELECT id FROM PART`} {
		t.Run(sql, func(t *testing.T) {
			fx, cc := statsFixture(t)
			ctx := context.Background()
			expectRows(t, fx, `SELECT id FROM PARTS WHERE id = 5`, 1)
			expectRows(t, fx, `SELECT id FROM ACCOUNTS WHERE id = 1`, 2)
			txn := fx.Fed.Begin()
			if _, err := txn.ExecSite(ctx, "a", sql); err == nil {
				t.Fatalf("site a accepted %q as DML", sql)
			}
			if err := txn.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			expectRows(t, fx, `SELECT id FROM PARTS WHERE id = 5`, 1)
			expectRows(t, fx, `SELECT id FROM ACCOUNTS WHERE id = 1`, 2)
			expectPulls(t, cc, "PART", 2, 1)
			expectPulls(t, cc, "ACCT", 2, 1)
		})
	}
}

// TestReplayedCommitInvalidatesParticipants: a decided transaction the
// coordinator crashed before acknowledging is re-driven after a restart
// with no write set left, so every export at its participant sites is
// invalidated — including PART, which it never wrote.
func TestReplayedCommitInvalidatesParticipants(t *testing.T) {
	fx, cc := statsFixture(t)
	ctx := context.Background()
	expectRows(t, fx, `SELECT id FROM PARTS WHERE id = 5`, 1)
	expectRows(t, fx, `SELECT id FROM ACCOUNTS WHERE id = 1`, 2)

	txn := transfer(t, fx)
	fx.Fed.Coordinator().ArmKill(gtm.KillAfterDecision)
	if err := txn.Commit(ctx); !errors.Is(err, gtm.ErrCoordinatorKilled) {
		t.Fatalf("Commit = %v, want ErrCoordinatorKilled", err)
	}
	restartCoordinator(t, fx)
	before := fx.Fed.StatsCacheStats().Invalidations.Load()
	if err := fx.Fed.RecoverGlobal(ctx); err != nil {
		t.Fatal(err)
	}
	if got := fx.Fed.StatsCacheStats().Invalidations.Load() - before; got != 4 {
		t.Fatalf("recovery invalidated %d cached exports, want 4 (ACCT and PART at a and b)", got)
	}
	expectRows(t, fx, `SELECT id FROM PARTS WHERE id = 5`, 1)
	expectPulls(t, cc, "PART", 2, 2)
	rs, err := fx.Query(ctx, `SELECT SUM(bal) FROM ACCOUNTS WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Rows[0][0].String(); got != "220" {
		t.Fatalf("re-driven transfer: SUM(bal) = %s, want 220", got)
	}
}

// TestAbortedUpdateLeavesNoStaleBounds is the regression for stats
// pulled while an uncommitted UPDATE is in place: the pull sees the
// moved key range, and after the rollback the cached bounds would no
// longer cover the restored rows, so the planner would prune them.
// Aborting must invalidate what the transaction wrote.
func TestAbortedUpdateLeavesNoStaleBounds(t *testing.T) {
	fx, _ := statsFixture(t)
	ctx := context.Background()
	txn := fx.Fed.Begin()
	if _, err := txn.ExecSite(ctx, "a", `UPDATE PART SET id = id + 1000`); err != nil {
		t.Fatal(err)
	}
	ts, ok := fx.Fed.Stats(ctx, "a", "PART")
	if !ok {
		t.Fatal("no stats for a.PART")
	}
	if cs, _ := ts.Col("id"); cs.Min.String() != "1001" {
		t.Fatalf("mid-transaction pull saw min(id) = %s, want the uncommitted 1001", cs.Min)
	}
	txn.Abort(ctx)
	expectRows(t, fx, `SELECT id FROM PARTS WHERE id BETWEEN 1 AND 10`, 10)
}
