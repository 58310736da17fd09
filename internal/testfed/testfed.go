// Package testfed is an in-process multi-site federation fixture for
// transport and fault-injection testing: real component databases
// behind real gateways served over real TCP by comm.Server, attached to
// a core.Federation through (optionally) a fault-injecting proxy that
// can delay, drop, or garble one site's wire traffic mid-stream. It
// exists to prove the streaming row-batch transport behaves under slow
// sites, mid-stream failures, and cancellation — the failure modes a
// federation actually meets.
package testfed

import (
	"context"
	"fmt"
	"testing"
	"time"

	"myriad/internal/catalog"
	"myriad/internal/comm"
	"myriad/internal/core"
	"myriad/internal/dialect"
	"myriad/internal/executor"
	"myriad/internal/gateway"
	"myriad/internal/localdb"
	"myriad/internal/planner"
	"myriad/internal/schema"
	"myriad/internal/sqlparser"
	"myriad/internal/wal"
)

// SiteSpec declares one component site of the fixture.
type SiteSpec struct {
	Name    string
	Dialect string           // "" = canonical
	Setup   []string         // SQL run at boot (DDL + seed DML)
	Exports []gateway.Export // export relations offered to the federation
	// Faulty routes the federation's connection through a fault proxy
	// (see Fixture.Proxy).
	Faulty bool
	// Timeout is the gateway's per-query default timeout (0 = none).
	Timeout time.Duration
	// DataDir makes the site durable (WAL-backed in this directory);
	// durable sites support Kill (hard crash) and Restart. Setup is
	// skipped on restart when recovered tables exist.
	DataDir string
	// WALSync is the durable site's fsync policy (zero = always).
	WALSync wal.Sync
	// CheckpointBytes enables the durable site's background checkpointer.
	CheckpointBytes int64
}

// Site is one running component site.
type Site struct {
	Name  string
	DB    *localdb.DB
	GW    *gateway.Gateway
	Srv   *comm.Server
	Addr  string // the comm server's own address
	Proxy *Proxy // non-nil when the spec was Faulty

	spec SiteSpec // retained for Restart
}

// Fixture is a running federation over in-process TCP sites.
type Fixture struct {
	Fed   *core.Federation
	sites map[string]*Site
}

// New boots the sites, serves each gateway over TCP (behind a proxy for
// Faulty specs), and attaches them to a fresh federation with the given
// integrated relations. Cleanup is registered on t.
func New(t testing.TB, specs []SiteSpec, integrated []*catalog.IntegratedDef) *Fixture {
	t.Helper()
	fx := &Fixture{Fed: core.New("testfed"), sites: make(map[string]*Site)}
	for _, spec := range specs {
		fx.bootSite(t, spec)
	}
	for _, def := range integrated {
		if err := fx.Fed.DefineIntegrated(def); err != nil {
			t.Fatalf("testfed: integrated %s: %v", def.Name, err)
		}
	}
	return fx
}

// bootSite starts (or, after Kill, restarts) one site and attaches it
// to the federation.
func (fx *Fixture) bootSite(t testing.TB, spec SiteSpec) *Site {
	t.Helper()
	ctx := context.Background()
	d, err := dialect.ForName(spec.Dialect)
	if err != nil {
		t.Fatalf("testfed: site %s: %v", spec.Name, err)
	}
	var db *localdb.DB
	if spec.DataDir != "" {
		db, err = localdb.Open(spec.Name, spec.DataDir, localdb.DurabilityOptions{
			Sync: spec.WALSync, CheckpointBytes: spec.CheckpointBytes,
		})
		if err != nil {
			t.Fatalf("testfed: site %s open %s: %v", spec.Name, spec.DataDir, err)
		}
		t.Cleanup(func() { db.Close() }) //nolint:errcheck
	} else {
		db = localdb.New(spec.Name)
	}
	// A recovered site already has its schema and rows; re-running Setup
	// would fail on the existing tables (and double the seed rows).
	if len(db.TableNames()) == 0 {
		for _, sql := range spec.Setup {
			if _, err := db.Exec(ctx, sql); err != nil {
				t.Fatalf("testfed: site %s setup %q: %v", spec.Name, sql, err)
			}
		}
	}
	gw := gateway.New(spec.Name, db, d)
	gw.DefaultTimeout = spec.Timeout
	for _, e := range spec.Exports {
		if err := gw.DefineExport(e); err != nil {
			t.Fatalf("testfed: site %s: %v", spec.Name, err)
		}
	}
	srv := comm.NewServer(gw)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("testfed: site %s listen: %v", spec.Name, err)
	}
	site := &Site{Name: spec.Name, DB: db, GW: gw, Srv: srv, Addr: addr, spec: spec}
	dialAddr := addr
	if spec.Faulty {
		site.Proxy = NewProxy(t, addr)
		dialAddr = site.Proxy.Addr()
	}
	conn := gateway.DialRemote(spec.Name, dialAddr, 4)
	if err := fx.Fed.AttachSite(ctx, conn); err != nil {
		t.Fatalf("testfed: attaching %s: %v", spec.Name, err)
	}
	fx.sites[spec.Name] = site
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	return site
}

// Kill hard-crashes a durable site, kill -9 style: the TCP server stops
// mid-whatever, buffered WAL bytes are discarded, no shutdown hooks
// run. The federation still lists the site; queries against it fail
// until Restart.
func (fx *Fixture) Kill(t testing.TB, name string) {
	t.Helper()
	s := fx.Site(name)
	if s.spec.DataDir == "" {
		t.Fatalf("testfed: Kill(%s): site is not durable (no DataDir)", name)
	}
	s.Srv.Close() //nolint:errcheck
	if s.Proxy != nil {
		s.Proxy.Close()
	}
	s.DB.Crash()
}

// Restart recovers a killed durable site from its data directory —
// snapshot plus WAL-tail replay — serves it on a fresh port, and
// re-attaches it to the federation. The returned site replaces the old
// one in the fixture.
func (fx *Fixture) Restart(t testing.TB, name string) *Site {
	t.Helper()
	old := fx.Site(name)
	if old.spec.DataDir == "" {
		t.Fatalf("testfed: Restart(%s): site is not durable (no DataDir)", name)
	}
	fx.Fed.DetachSite(name)
	site := fx.bootSite(t, old.spec)
	fx.Fed.InvalidateStats()
	return site
}

// Site returns the named running site.
func (fx *Fixture) Site(name string) *Site {
	s, ok := fx.sites[name]
	if !ok {
		panic(fmt.Sprintf("testfed: no site %q", name))
	}
	return s
}

// LoadRows bulk-loads rows into a site's local table (fixture seeding;
// bypasses SQL so 100k-row tables boot fast).
func (fx *Fixture) LoadRows(t testing.TB, site, table string, rows []schema.Row) {
	t.Helper()
	if err := fx.Site(site).DB.Load(table, rows); err != nil {
		t.Fatalf("testfed: loading %s.%s: %v", site, table, err)
	}
	fx.Fed.InvalidateStats()
}

// Query runs a global SELECT through the streaming executor (the
// production path).
func (fx *Fixture) Query(ctx context.Context, sql string) (*schema.ResultSet, error) {
	return fx.Fed.Query(ctx, sql)
}

// RefQuery runs a global SELECT through executor.ExecuteMaterialized —
// every fragment drained whole before integration — the reference the
// equivalence corpora compare the pipelined path against.
func (fx *Fixture) RefQuery(ctx context.Context, sql string, strategy core.Strategy) (*schema.ResultSet, error) {
	plan, err := fx.Plan(ctx, sql, strategy)
	if err != nil {
		return nil, err
	}
	rs, _, err := executor.ExecuteMaterialized(ctx, plan, fx.Runner())
	return rs, err
}

// Plan builds the global plan for sql (exposed for benchmarks that
// want to run one plan down both executor paths).
func (fx *Fixture) Plan(ctx context.Context, sql string, strategy core.Strategy) (*planner.Plan, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparser.Select)
	if !ok {
		return nil, fmt.Errorf("testfed: not a SELECT: %s", sql)
	}
	return planner.New(fx.Fed.Catalog(), fx.Fed).Plan(ctx, sel, strategy)
}

// Runner returns an autocommit SiteRunner over the fixture's gateway
// connections, for driving executor paths directly.
func (fx *Fixture) Runner() executor.SiteRunner { return siteRunner{fx.Fed} }

type siteRunner struct{ f *core.Federation }

func (r siteRunner) QuerySite(ctx context.Context, site, sql string) (schema.RowStream, error) {
	conn, ok := r.f.Conn(site)
	if !ok {
		return nil, fmt.Errorf("testfed: unknown site %q", site)
	}
	return conn.QueryStream(ctx, 0, sql)
}
