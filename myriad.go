// Package myriad is the public API of the MYRIAD federated database
// system, a from-scratch Go reproduction of "The MYRIAD Federated
// Database Prototype" (SIGMOD 1994).
//
// A MYRIAD deployment consists of autonomous component databases
// (localdb engines standing in for the paper's Oracle and Postgres),
// each fronted by a Gateway that exposes export relations and speaks the
// component's SQL dialect; and one or more Federations, each defining
// integrated relations over those exports, processing global SQL
// queries (with a simple or a cost-based optimization strategy), and
// coordinating global transactions with two-phase commit and
// timeout-based global deadlock resolution.
//
// Quickstart:
//
//	db := myriad.NewComponentDB("siteA")
//	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
//	gw := myriad.NewGateway("siteA", db, myriad.DialectPostgres())
//	_ = gw.DefineExport(myriad.Export{Name: "T", LocalTable: "t"})
//
//	fed := myriad.NewFederation("demo")
//	_ = fed.AttachSite(ctx, myriad.LocalConn(gw))
//	_ = fed.DefineIntegrated(&myriad.IntegratedDef{ ... })
//	rs, _ := fed.Query(ctx, `SELECT * FROM MY_RELATION`)
package myriad

import (
	"myriad/internal/catalog"
	"myriad/internal/comm"
	"myriad/internal/core"
	"myriad/internal/dialect"
	"myriad/internal/fedclient"
	"myriad/internal/fedserver"
	"myriad/internal/gateway"
	"myriad/internal/gtm"
	"myriad/internal/integration"
	"myriad/internal/localdb"
	"myriad/internal/schema"
	"myriad/internal/value"
)

// Core federation types.
type (
	// Federation integrates component databases behind integrated
	// relations; see internal/core for full documentation.
	Federation = core.Federation
	// Strategy selects the global query optimizer.
	Strategy = core.Strategy
	// IntegratedDef defines an integrated relation over export
	// relations at several sites.
	IntegratedDef = catalog.IntegratedDef
	// SourceDef maps an integrated relation onto one site's export.
	SourceDef = catalog.SourceDef
	// GlobalTxn is a global transaction under two-phase commit.
	GlobalTxn = gtm.Txn
)

// Component-side types.
type (
	// ComponentDB is a complete local DBMS instance.
	ComponentDB = localdb.DB
	// Gateway fronts a ComponentDB for federations.
	Gateway = gateway.Gateway
	// Export defines one export relation at a gateway.
	Export = gateway.Export
	// ExportColumn maps an export column to a local column.
	ExportColumn = gateway.ExportColumn
	// Conn is the federation's view of a site (local or remote).
	Conn = gateway.Conn
	// Dialect renders component-native SQL.
	Dialect = dialect.Dialect
)

// Data types.
type (
	// Schema describes a relation.
	Schema = schema.Schema
	// Column describes one attribute.
	Column = schema.Column
	// Row is one tuple.
	Row = schema.Row
	// ResultSet is a materialized query result.
	ResultSet = schema.ResultSet
	// RowStream is a pull-based streaming query result; federated
	// queries pipeline remote fragments into it without materializing
	// (Federation.QueryStreamMetered, FederationClient.QueryStream).
	RowStream = schema.RowStream
	// Value is one SQL value.
	Value = value.Value
	// IntegrationFunc resolves attribute conflicts during merge
	// integration.
	IntegrationFunc = integration.Func
)

// Column types.
const (
	TInt   = schema.TInt
	TFloat = schema.TFloat
	TText  = schema.TText
	TBool  = schema.TBool
)

// Optimizer strategies (paper §2: the simple strategy is implemented,
// the full-fledged one "currently being developed" — both are built
// here).
const (
	StrategySimple    = core.StrategySimple
	StrategyCostBased = core.StrategyCostBased
)

// Integration combinators.
const (
	UnionAll      = integration.UnionAll
	UnionDistinct = integration.UnionDistinct
	MergeOuter    = integration.MergeOuter
)

// NewFederation creates an empty federation.
func NewFederation(name string) *Federation { return core.New(name) }

// NewComponentDB creates an empty component database.
func NewComponentDB(name string) *ComponentDB { return localdb.New(name) }

// NewGateway fronts db with the given dialect (nil = canonical).
func NewGateway(site string, db *ComponentDB, d *Dialect) *Gateway {
	return gateway.New(site, db, d)
}

// DialectOracle returns the Oracle-like SQL dialect.
func DialectOracle() *Dialect { return dialect.Oracle() }

// DialectPostgres returns the Postgres-like SQL dialect.
func DialectPostgres() *Dialect { return dialect.Postgres() }

// DialectCanonical returns the dialect-neutral rendering.
func DialectCanonical() *Dialect { return dialect.Canonical() }

// LocalConn wraps a gateway for in-process access (no wire).
func LocalConn(g *Gateway) Conn { return &gateway.LocalConn{G: g} }

// DialGateway connects to a gatewayd over TCP.
func DialGateway(site, addr string, poolSize int) Conn {
	return gateway.DialRemote(site, addr, poolSize)
}

// ServeGateway starts serving a gateway over TCP on addr (":0" picks a
// port); it returns the bound address and a shutdown func.
func ServeGateway(g *Gateway, addr string) (string, func() error, error) {
	srv := comm.NewServer(g)
	bound, err := srv.Listen(addr)
	if err != nil {
		return "", nil, err
	}
	return bound, srv.Close, nil
}

// ServeFederation starts serving a federation over TCP on addr; it
// returns the bound address and a shutdown func.
func ServeFederation(f *Federation, addr string) (string, func() error, error) {
	srv := comm.NewServer(fedserver.New(f))
	bound, err := srv.Listen(addr)
	if err != nil {
		return "", nil, err
	}
	return bound, srv.Close, nil
}

// FederationClient is a network client for a served federation.
type FederationClient = fedclient.Client

// DialFederation connects to a myriadd federation server.
func DialFederation(addr string, poolSize int) *FederationClient {
	return fedclient.Dial(addr, poolSize)
}

// RegisterIntegrationFunc installs a user-defined integration function
// usable in IntegratedDef.Resolvers.
func RegisterIntegrationFunc(name string, fn IntegrationFunc) {
	integration.Register(name, fn)
}

// IntegrationFuncs lists the registered integration function names.
func IntegrationFuncs() []string { return integration.Names() }

// Value constructors for integration functions and fixtures.
var (
	// NullValue returns SQL NULL.
	NullValue = value.Null
	// IntValue boxes an int64.
	IntValue = value.NewInt
	// FloatValue boxes a float64.
	FloatValue = value.NewFloat
	// TextValue boxes a string.
	TextValue = value.NewText
	// BoolValue boxes a bool.
	BoolValue = value.NewBool
)
