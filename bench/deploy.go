package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"myriad"
	"myriad/internal/catalog"
	"myriad/internal/core"
	"myriad/internal/fedclient"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/localdb"
	"myriad/internal/schema"
	"myriad/internal/wal"
)

// Fixed deployment settings (recorded in result.json as the flush
// policy and sizes every number was measured under).
const (
	numClients      = 2 // closed loop: nproc client goroutines on as many pooled connections
	sitePool        = 4 // federation -> site connections, myriadd's default
	checkpointBytes = 1 << 20
	memBudget       = 1 << 20
	compactBytes    = 1 << 20 // myriadd's default coordinator-log compaction trigger
	detectorTick    = time.Second
	walSync         = wal.SyncAlways
)

type site struct {
	name string
	db   *localdb.DB
	gw   *gateway.Gateway
	addr string // where the gateway serves
	stop func() error
	fwd  *forwarder // traced run only
}

// deployment is one booted federation: three durable sites behind
// gateways on TCP, a federation server over them on TCP, and a client.
type deployment struct {
	dir      string
	spillDir string
	data     *dataset
	sites    []*site
	fed      *core.Federation
	stopFed  func() error
	client   *fedclient.Client
}

var dialects = []func() *myriad.Dialect{myriad.DialectOracle, myriad.DialectPostgres, myriad.DialectOracle}

// boot builds a fresh deployment under dir from the same constructors
// gatewayd and myriadd use. With rec set, each federation->site
// connection goes through a counting forwarder and records spans.
func boot(ctx context.Context, data *dataset, dir string, rec *recorder) (dep *deployment, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	dep = &deployment{dir: dir, spillDir: filepath.Join(dir, "spill"), data: data}
	defer func() {
		if err != nil {
			dep.shutdown()
		}
	}()
	if err := os.MkdirAll(dep.spillDir, 0o755); err != nil {
		return nil, err
	}

	fed := myriad.NewFederation("bench")
	fed.MemBudget = memBudget
	fed.SpillDir = dep.spillDir
	dep.fed = fed
	for s := 0; s < numSites; s++ {
		st := &site{name: siteName(s)}
		dep.sites = append(dep.sites, st)
		st.db, err = localdb.Open(st.name, filepath.Join(dir, st.name),
			localdb.DurabilityOptions{Sync: walSync, CheckpointBytes: checkpointBytes})
		if err != nil {
			return nil, err
		}
		for _, stmt := range data.setup[s] {
			if _, err := st.db.Exec(ctx, stmt); err != nil {
				return nil, fmt.Errorf("site %s setup: %w", st.name, err)
			}
		}
		st.gw = myriad.NewGateway(st.name, st.db, dialects[s]())
		exports := []myriad.Export{{Name: "PART", LocalTable: "parts"}, {Name: "ACCT", LocalTable: "acct"}}
		switch s {
		case 0:
			exports = append(exports, myriad.Export{Name: "CUSTOMER", LocalTable: "customers"})
		case 1:
			exports = append(exports, myriad.Export{Name: "ORDER_T", LocalTable: "orders"})
		}
		for _, e := range exports {
			if err := st.gw.DefineExport(e); err != nil {
				return nil, err
			}
		}
		st.addr, st.stop, err = myriad.ServeGateway(st.gw, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		dialAddr := st.addr
		if rec != nil {
			if st.fwd, err = newForwarder(st.addr); err != nil {
				return nil, err
			}
			dialAddr = st.fwd.addr()
		}
		conn := myriad.DialGateway(st.name, dialAddr, sitePool)
		if rec != nil {
			conn = spanConn{Conn: conn, rec: rec}
		}
		if err := fed.AttachSite(ctx, conn); err != nil {
			return nil, err
		}
	}
	if err := fed.EnableCoordinatorLog(filepath.Join(dir, "coordinator.log"), wal.Options{Sync: walSync}); err != nil {
		return nil, err
	}
	fed.Coordinator().SetCompactBytes(compactBytes)
	fed.StartDeadlockDetector(detectorTick)
	for _, def := range integratedDefs() {
		if err := fed.DefineIntegrated(def); err != nil {
			return nil, err
		}
	}
	var addr string
	addr, dep.stopFed, err = myriad.ServeFederation(fed, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	dep.client = myriad.DialFederation(addr, numClients)
	return dep, dep.client.Ping(ctx)
}

func integratedDefs() []*catalog.IntegratedDef {
	var partSrc, acctSrc []catalog.SourceDef
	for s := 0; s < numSites; s++ {
		lit := "'" + siteName(s) + "'"
		partSrc = append(partSrc, catalog.SourceDef{Site: siteName(s), Export: "PART", ColumnMap: map[string]string{
			"id": "pid", "name": "pname", "weight": "weight", "price": "price", "category": "category", "site": lit}})
		acctSrc = append(acctSrc, catalog.SourceDef{Site: siteName(s), Export: "ACCT", ColumnMap: map[string]string{
			"branch": lit, "id": "id", "owner": "owner", "bal": "bal"}})
	}
	same := func(cols ...string) map[string]string {
		m := make(map[string]string, len(cols))
		for _, c := range cols {
			m[c] = c
		}
		return m
	}
	col := func(name string, t schema.Type) schema.Column { return schema.Column{Name: name, Type: t} }
	return []*catalog.IntegratedDef{
		{Name: "PARTS", Key: []string{"id"}, Combine: integration.UnionAll, Sources: partSrc, Columns: []schema.Column{
			col("id", schema.TInt), col("name", schema.TText), col("weight", schema.TFloat),
			col("price", schema.TFloat), col("category", schema.TText), col("site", schema.TText)}},
		{Name: "ACCOUNTS", Combine: integration.UnionAll, Sources: acctSrc, Columns: []schema.Column{
			col("branch", schema.TText), col("id", schema.TInt), col("owner", schema.TText), col("bal", schema.TInt)}},
		{Name: "CUSTOMERS", Key: []string{"cid"}, Combine: integration.UnionAll,
			Sources: []catalog.SourceDef{{Site: siteName(0), Export: "CUSTOMER", ColumnMap: same("cid", "cname", "tier", "region")}},
			Columns: []schema.Column{col("cid", schema.TInt), col("cname", schema.TText), col("tier", schema.TText), col("region", schema.TText)}},
		{Name: "ORDERS", Key: []string{"oid"}, Combine: integration.UnionAll,
			Sources: []catalog.SourceDef{{Site: siteName(1), Export: "ORDER_T", ColumnMap: same("oid", "cust", "amount", "item")}},
			Columns: []schema.Column{col("oid", schema.TInt), col("cust", schema.TInt), col("amount", schema.TFloat), col("item", schema.TText)}},
	}
}

// checkInvariants verifies what must hold once the clients have
// stopped: money is conserved, no branch is left prepared, and no spill
// file outlived its query.
func (dep *deployment) checkInvariants(ctx context.Context) error {
	var total int64
	for _, st := range dep.sites {
		rs, err := st.db.Query(ctx, `SELECT SUM(bal) FROM acct`)
		if err != nil {
			return err
		}
		n, _ := rs.Rows[0][0].Int()
		total += n
		if p := st.db.PreparedTxns(); len(p) != 0 {
			return fmt.Errorf("site %s: %d branches still prepared", st.name, len(p))
		}
	}
	if want := int64(numSites * accountsPerSite * initialBalance); total != want {
		return fmt.Errorf("sum of bal = %d, want %d", total, want)
	}
	left, err := os.ReadDir(dep.spillDir)
	if err != nil {
		return err
	}
	if len(left) != 0 {
		return fmt.Errorf("spill dir holds %d files after the run", len(left))
	}
	return nil
}

// shutdown stops every server, goroutine and file the deployment owns
// and removes its directory. Safe on a partly booted deployment.
func (dep *deployment) shutdown() error {
	var errs []error
	if dep.client != nil {
		errs = append(errs, dep.client.Close())
	}
	if dep.stopFed != nil {
		errs = append(errs, dep.stopFed())
	}
	dep.fed.StopDeadlockDetector()
	for _, st := range dep.sites {
		if conn, ok := dep.fed.Conn(st.name); ok {
			errs = append(errs, conn.Close())
		}
		if st.fwd != nil {
			st.fwd.close()
		}
		if st.stop != nil {
			errs = append(errs, st.stop())
		}
		if st.db != nil {
			errs = append(errs, st.db.Close())
		}
	}
	errs = append(errs, dep.fed.Coordinator().Close(), os.RemoveAll(dep.dir))
	return errors.Join(errs...)
}
