// Package localdb implements a complete in-memory component DBMS: a SQL
// executor over the heap storage engine, strict two-phase locking via
// the lock manager, undo-log transactions with rollback, and a PREPARE
// step so the database can participate in the federation's two-phase
// commit.
//
// In the paper the component DBMSs were Oracle and Postgres; here the
// same engine is instantiated per site and heterogeneity is carried by
// the SQL dialect each site's gateway speaks (internal/dialect).
package localdb

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"myriad/internal/lockmgr"
	"myriad/internal/schema"
	"myriad/internal/spill"
	"myriad/internal/sqlparser"
	"myriad/internal/storage"
	"myriad/internal/wal"
)

// Common error conditions surfaced by the engine.
var (
	ErrNoSuchTable   = errors.New("localdb: no such table")
	ErrTxnDone       = errors.New("localdb: transaction already finished")
	ErrTxnPrepared   = errors.New("localdb: transaction is prepared; only commit/abort allowed")
	ErrNotPrepared   = errors.New("localdb: transaction is not prepared")
	ErrTimeout       = lockmgr.ErrTimeout
	ErrWriteConflict = errors.New("localdb: write conflict")
)

// DB is one component database instance.
type DB struct {
	name string

	latch  sync.RWMutex // protects tables map and physical row access
	tables map[string]*storage.Table

	lm *lockmgr.Manager

	txnMu   sync.Mutex
	nextTxn lockmgr.TxnID
	txns    map[lockmgr.TxnID]*Txn

	// scanRows counts rows pulled out of heap scans since creation; the
	// federation's transport tests use it to prove that a pushed-down
	// LIMIT terminates the server-side scan early.
	scanRows atomic.Int64

	// lockWait, when positive, caps every lock wait at that duration (as
	// nanoseconds) independently of the request deadline — the deadlock
	// backstop. Zero (the default) leaves lock waits bounded only by the
	// request's own context deadline.
	lockWait atomic.Int64

	// budget bounds the memory of this database's blocking operators:
	// the full-sort path spills sorted runs past it, and GROUP BY
	// accumulation errors past its grouped allowance. nil = unlimited.
	budget *spill.Budget

	// Durability state; nil wal = pure in-memory database. See
	// durable.go for Open, recovery, and the checkpoint protocol.
	dir        string
	wal        *wal.Log
	ckptBytes  int64
	ckptNotify chan struct{}
	ckptStop   chan struct{}
	ckptDone   chan struct{}
	stopOnce   sync.Once
	crashed    atomic.Bool
	// dirtyTxns counts transactions with applied-but-unlogged mutations.
	// The checkpointer snapshots only when it is zero while holding the
	// database latch exclusively: at that moment the table state is
	// exactly the committed state, which is exactly the WAL's content.
	// Recovered prepared branches count too: a checkpoint must never
	// truncate a pending branch's prepare record.
	dirtyTxns atomic.Int64
	// recPrep collects prepared branches seen during WAL replay that no
	// later commit/abort record retired; Open promotes them to live
	// prepared transactions. nil outside recovery.
	recPrep map[uint64]*wal.Record
	// maxBranch is the highest branch id the replayed log named; fresh
	// transaction ids start past it so a coordinator re-driving an old
	// branch can never address an unrelated new transaction.
	maxBranch uint64
}

// ScannedRows reports the total rows heap scans have pulled from
// storage since the database was created (monotonic; test/metrics use).
func (db *DB) ScannedRows() int64 { return db.scanRows.Load() }

// New creates an empty component database named name. Its memory
// budget defaults from MYRIAD_TEST_MEM_BUDGET (nil — unlimited — when
// unset), so a test run can force every engine through the spill paths
// without touching call sites.
func New(name string) *DB {
	return NewWithBudget(name, spill.EnvBudget())
}

// NewWithBudget is New with an explicit memory budget for the engine's
// blocking operators (nil = unlimited, never spill).
//
// Like New it honors the MYRIAD_TEST_DURABLE env hook: when set to a
// checkpoint threshold in bytes, the database is opened WAL-backed in a
// fresh temp directory with always-fsync commits, so a test run forces
// every component engine through the durable commit and checkpoint
// paths without touching call sites. (Scratch engines use NewScratch
// and are never durable.)
func NewWithBudget(name string, budget *spill.Budget) *DB {
	if v := os.Getenv("MYRIAD_TEST_DURABLE"); v != "" {
		ckpt, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			panic(fmt.Sprintf("localdb: bad MYRIAD_TEST_DURABLE %q: %v", v, err))
		}
		dir, err := os.MkdirTemp("", "myriad-durable-*")
		if err != nil {
			panic(fmt.Sprintf("localdb: MYRIAD_TEST_DURABLE tempdir: %v", err))
		}
		db, err := Open(name, dir, DurabilityOptions{Sync: wal.SyncAlways, CheckpointBytes: ckpt, Budget: budget})
		if err != nil {
			panic(fmt.Sprintf("localdb: MYRIAD_TEST_DURABLE open: %v", err))
		}
		return db
	}
	return newDB(name, budget)
}

// NewScratch creates the private in-memory engine a single query
// execution uses for residual evaluation. It bypasses the durable test
// hook: scratch state is per-query and must never hit disk through the
// WAL (the spill layer handles its memory bounds). The executor threads
// its per-query budget in this way, so a federated sort and the
// integration combiners draw on one account.
func NewScratch(budget *spill.Budget) *DB { return newDB("scratch", budget) }

func newDB(name string, budget *spill.Budget) *DB {
	return &DB{
		name:   name,
		tables: make(map[string]*storage.Table),
		lm:     lockmgr.New(),
		txns:   make(map[lockmgr.TxnID]*Txn),
		budget: budget,
	}
}

// MemBudget returns the database's memory budget (nil = unlimited).
func (db *DB) MemBudget() *spill.Budget { return db.budget }

// Name returns the database's name.
func (db *DB) Name() string { return db.name }

// TableNames lists tables in no particular order.
func (db *DB) TableNames() []string {
	db.latch.RLock()
	defer db.latch.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	return names
}

// TableSchema returns a copy of the named table's schema.
func (db *DB) TableSchema(name string) (*schema.Schema, error) {
	db.latch.RLock()
	defer db.latch.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return t.Schema.Clone(), nil
}

// TableStats computes statistics for the optimizer.
func (db *DB) TableStats(name string) (storage.TableStats, error) {
	db.latch.RLock()
	defer db.latch.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return storage.TableStats{}, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return t.Stats(), nil
}

func (db *DB) table(name string) (*storage.Table, error) {
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return t, nil
}

// Begin starts a transaction.
func (db *DB) Begin() *Txn {
	return db.BeginGlobal(0)
}

// BeginGlobal starts a transaction branch on behalf of the global
// transaction gid (0 = purely local). The id tags the branch's locks
// in the lock manager, so the site's waits-for edges carry the
// branch→global mapping the coordinator's deadlock detector stitches
// on, and age-based wound-wait preemption can compare priorities.
func (db *DB) BeginGlobal(gid uint64) *Txn {
	db.txnMu.Lock()
	db.nextTxn++
	id := db.nextTxn
	tx := &Txn{db: db, id: id, gid: gid}
	db.txns[id] = tx
	db.txnMu.Unlock()
	if gid != 0 {
		db.lm.SetPriority(id, gid)
	}
	return tx
}

// WaitGraph snapshots the live waits-for edges of this database's lock
// table (waiter branch, blocking branches, resource, wait start), each
// annotated with the global-transaction ids of global branches.
func (db *DB) WaitGraph() []lockmgr.Edge {
	return db.lm.WaitsFor()
}

// Wound marks the live transaction id as a deadlock victim: a parked
// lock wait fails immediately with lockmgr.ErrWounded and any further
// acquire before rollback fails the same way. No-op for unknown ids
// (the branch already finished), so a wound racing a commit cannot
// poison a reused transaction id.
func (db *DB) Wound(id lockmgr.TxnID) bool {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	if _, live := db.txns[id]; !live {
		return false
	}
	return db.lm.AbortWaiter(id)
}

// SetWoundWait toggles the lock manager's age-based preemption between
// global branches (on by default); the coordinator's detector keeps
// working either way.
func (db *DB) SetWoundWait(on bool) { db.lm.SetWoundWait(on) }

// SetLockWait caps every lock wait at d (0 restores the default:
// bounded only by the request deadline). The cap is the deadlock
// backstop of last resort — detection and wound-wait should fire long
// before it.
func (db *DB) SetLockWait(d time.Duration) { db.lockWait.Store(int64(d)) }

// Resume returns the live transaction with the given id (used by the
// gateway, which identifies transaction branches by id across requests).
func (db *DB) Resume(id lockmgr.TxnID) (*Txn, bool) {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	tx, ok := db.txns[id]
	return tx, ok
}

func (db *DB) forget(id lockmgr.TxnID) {
	db.txnMu.Lock()
	delete(db.txns, id)
	db.txnMu.Unlock()
}

// PreparedTxns lists the branch ids of transactions in the prepared
// state, sorted. After a crash these are the in-doubt branches whose
// outcome must come from the coordinator.
func (db *DB) PreparedTxns() []uint64 {
	db.txnMu.Lock()
	list := make([]*Txn, 0, len(db.txns))
	for _, tx := range db.txns {
		list = append(list, tx)
	}
	db.txnMu.Unlock()
	var out []uint64
	for _, tx := range list {
		if tx.State() == "prepared" {
			out = append(out, uint64(tx.id))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Exec parses and executes a statement in autocommit mode.
func (db *DB) Exec(ctx context.Context, sql string) (*ExecResult, error) {
	tx := db.Begin()
	res, err := tx.Exec(ctx, sql)
	if err != nil {
		tx.Rollback()
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return res, nil
}

// Query parses and executes a SELECT in autocommit mode.
func (db *DB) Query(ctx context.Context, sql string) (*schema.ResultSet, error) {
	tx := db.Begin()
	rs, err := tx.Query(ctx, sql)
	if err != nil {
		tx.Rollback()
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	return rs, nil
}

// MustExec is a test/fixture helper: it panics on error.
func (db *DB) MustExec(sql string) {
	if _, err := db.Exec(context.Background(), sql); err != nil {
		panic(fmt.Sprintf("localdb %s: %s: %v", db.name, sql, err))
	}
}

// ExecResult reports the effect of a non-SELECT statement.
type ExecResult struct {
	RowsAffected int
}

// ---------------------------------------------------------------------
// Transactions

type txnState uint8

const (
	txnActive txnState = iota
	txnPrepared
	txnCommitted
	txnAborted
)

type undoKind uint8

const (
	undoInsert undoKind = iota // compensate: delete
	undoDelete                 // compensate: re-insert
	undoUpdate                 // compensate: restore old image
)

type undoRec struct {
	kind  undoKind
	table string
	id    storage.RowID
	old   schema.Row
}

// Txn is one local transaction under strict 2PL.
type Txn struct {
	db    *DB
	id    lockmgr.TxnID
	mu    sync.Mutex
	state txnState
	undo  []undoRec
	// redo accumulates the WAL ops mirroring undo (new images instead of
	// old) when the database is durable; it is appended as one commit
	// record at Commit and discarded on Rollback.
	redo []wal.Op
	// dirty marks the transaction as holding applied-but-unlogged
	// mutations; it contributes to db.dirtyTxns (the checkpointer's
	// quiescence condition).
	dirty bool
	// preparedLogged marks that a RecPrepare record for this branch is on
	// stable storage, so its outcome must also be logged (RecCommit with
	// the branch id, or RecAbort).
	preparedLogged bool
	// recovered marks a prepared branch rebuilt from the WAL after a
	// crash: its redo ops are NOT yet applied to the heap (replay applies
	// only committed state), so Commit must apply them, and Rollback has
	// no undo work.
	recovered bool
	// gid is the owning global transaction's id (0 = purely local). It
	// rides the prepare record so a recovered prepared branch keeps its
	// place in the global waits-for graph.
	gid uint64
}

// record registers one applied row mutation: the undo entry for
// rollback and, on a durable database, the matching redo op for the
// commit-time WAL record. Callers hold the database latch exclusively.
func (tx *Txn) record(u undoRec, op wal.Op) {
	tx.undo = append(tx.undo, u)
	if tx.db.wal != nil {
		tx.redo = append(tx.redo, op)
	}
	if !tx.dirty {
		tx.dirty = true
		tx.db.dirtyTxns.Add(1)
	}
}

// markClean drops the transaction's contribution to the checkpointer's
// dirty count. Called with tx.mu held, after the WAL append on commit
// or after undo application on rollback.
func (tx *Txn) markClean() {
	if tx.dirty {
		tx.dirty = false
		tx.db.dirtyTxns.Add(-1)
	}
}

// ID returns the transaction id, used as the branch identifier in 2PC.
func (tx *Txn) ID() uint64 { return uint64(tx.id) }

func (tx *Txn) checkActive() error {
	switch tx.state {
	case txnActive:
		return nil
	case txnPrepared:
		return ErrTxnPrepared
	default:
		return ErrTxnDone
	}
}

// Exec parses and runs any statement inside the transaction.
func (tx *Txn) Exec(ctx context.Context, sql string) (*ExecResult, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return tx.ExecStmt(ctx, stmt)
}

// ExecStmt runs a parsed statement inside the transaction.
func (tx *Txn) ExecStmt(ctx context.Context, stmt sqlparser.Statement) (*ExecResult, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if err := tx.checkActive(); err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sqlparser.Insert:
		return tx.execInsert(ctx, s)
	case *sqlparser.Update:
		return tx.execUpdate(ctx, s)
	case *sqlparser.Delete:
		return tx.execDelete(ctx, s)
	case *sqlparser.CreateTable:
		return tx.execCreateTable(ctx, s)
	case *sqlparser.DropTable:
		return tx.execDropTable(ctx, s)
	case *sqlparser.CreateIndex:
		return tx.execCreateIndex(ctx, s)
	case *sqlparser.Select:
		return nil, fmt.Errorf("localdb: use Query for SELECT")
	case *sqlparser.TxnStmt:
		return nil, fmt.Errorf("localdb: transaction control is API-driven")
	default:
		return nil, fmt.Errorf("localdb: unsupported statement %T", stmt)
	}
}

// Query parses and runs a SELECT inside the transaction.
func (tx *Txn) Query(ctx context.Context, sql string) (*schema.ResultSet, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparser.Select)
	if !ok {
		return nil, fmt.Errorf("localdb: Query requires SELECT, got %T", stmt)
	}
	return tx.QueryStmt(ctx, sel)
}

// QueryStmt runs a parsed SELECT inside the transaction.
func (tx *Txn) QueryStmt(ctx context.Context, sel *sqlparser.Select) (*schema.ResultSet, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if err := tx.checkActive(); err != nil {
		return nil, err
	}
	return tx.execSelect(ctx, sel)
}

// Prepare votes in two-phase commit: after a successful prepare the
// transaction retains its locks and guarantees that Commit will
// succeed. On a durable database a writing branch's yes vote is made
// durable first — a RecPrepare record carrying the redo batch and the
// held locks is appended and fsynced regardless of sync policy — so a
// branch that voted yes survives kill -9 still prepared, still holding
// its locks, and resolvable by the coordinator's decision. A failed
// append rolls the transaction back (the vote is no).
func (tx *Txn) Prepare() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.state != txnActive {
		return tx.checkActive()
	}
	if tx.db.wal != nil && len(tx.redo) > 0 {
		rec := &wal.Record{Kind: wal.RecPrepare, Branch: uint64(tx.id), GID: tx.gid, Ops: tx.redo, Locks: lockEntries(tx.db.lm.HeldLocks(tx.id))}
		if _, err := tx.db.wal.AppendSync(rec); err != nil {
			tx.rollbackLocked()
			return fmt.Errorf("localdb %s: prepare log append: %w", tx.db.name, err)
		}
		tx.preparedLogged = true
	}
	tx.state = txnPrepared
	return nil
}

// lockEntries renders a lock snapshot for a prepare record, sorted by
// resource so the log bytes are deterministic.
func lockEntries(held map[string]lockmgr.Mode) []wal.LockEntry {
	out := make([]wal.LockEntry, 0, len(held))
	for r, m := range held {
		out = append(out, wal.LockEntry{Resource: r, Mode: byte(m)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Resource < out[j].Resource })
	return out
}

// Commit makes the transaction's effects durable and releases locks.
// Committing from the prepared state is the second phase of 2PC. On a
// durable database the transaction's redo batch is appended to the WAL
// (and fsynced per the sync policy) as one atomic record BEFORE locks
// release — the append is the commit point; if it fails the
// transaction rolls back and the error is returned.
func (tx *Txn) Commit() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.state != txnActive && tx.state != txnPrepared {
		return ErrTxnDone
	}
	if tx.db.wal != nil && len(tx.redo) > 0 {
		rec := &wal.Record{Kind: wal.RecCommit, Ops: tx.redo}
		var err error
		if tx.preparedLogged {
			// A prepared branch's outcome must be durable before the ack:
			// the coordinator stops re-driving once acknowledged, so the
			// commit record cannot ride a lazy sync policy. The branch id
			// lets replay retire the matching prepare record.
			rec.Branch = uint64(tx.id)
			_, err = tx.db.wal.AppendSync(rec)
		} else {
			_, err = tx.db.wal.Append(rec)
		}
		if err != nil {
			if tx.recovered {
				// Keep the branch prepared: the decision lives in the
				// coordinator log and resolution can retry later.
				return fmt.Errorf("localdb %s: commit log append for recovered branch %d: %w", tx.db.name, tx.id, err)
			}
			tx.rollbackLocked()
			return fmt.Errorf("localdb %s: commit log append: %w", tx.db.name, err)
		}
		if tx.recovered {
			// Replay left the heap at the committed pre-crash state; the
			// branch's ops apply only now, after the commit record is on
			// stable storage (crash in between replays them from the log).
			tx.db.latch.Lock()
			aerr := tx.db.applyOps(tx.redo)
			tx.db.latch.Unlock()
			if aerr != nil {
				// Unreachable short of corruption: the branch's slots were
				// reserved and its locks held across recovery. The log has
				// the commit, so surface rather than roll back.
				return fmt.Errorf("localdb %s: applying recovered branch %d: %w", tx.db.name, tx.id, aerr)
			}
		}
		tx.db.maybeCheckpoint()
	}
	tx.markClean()
	tx.state = txnCommitted
	tx.undo, tx.redo = nil, nil
	tx.db.lm.ReleaseAll(tx.id)
	tx.db.forget(tx.id)
	return nil
}

// Rollback undoes every change and releases locks. It is idempotent.
func (tx *Txn) Rollback() {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.state == txnCommitted || tx.state == txnAborted {
		return
	}
	tx.rollbackLocked()
}

// rollbackLocked is Rollback's body; callers hold tx.mu. A recovered
// branch has no undo (its ops never reached the heap); for any branch
// with a durable prepare record, a best-effort RecAbort retires it —
// best-effort because presumed abort covers a lost record: recovery
// finds the prepare, asks the coordinator, and hears "abort".
func (tx *Txn) rollbackLocked() {
	if tx.preparedLogged && tx.db.wal != nil {
		tx.db.wal.Append(&wal.Record{Kind: wal.RecAbort, Branch: uint64(tx.id)}) //nolint:errcheck
	}
	tx.db.latch.Lock()
	for i := len(tx.undo) - 1; i >= 0; i-- {
		u := tx.undo[i]
		t, err := tx.db.table(u.table)
		if err != nil {
			continue // table dropped by this txn's DDL undo
		}
		switch u.kind {
		case undoInsert:
			t.Delete(u.id) //nolint:errcheck // best-effort compensation
		case undoDelete:
			t.InsertAt(u.id, u.old) //nolint:errcheck
		case undoUpdate:
			t.Update(u.id, u.old) //nolint:errcheck
		}
	}
	tx.db.latch.Unlock()
	tx.markClean()
	tx.undo, tx.redo = nil, nil
	tx.state = txnAborted
	tx.db.lm.ReleaseAll(tx.id)
	tx.db.forget(tx.id)
}

// State reports the transaction lifecycle stage as a string (for
// monitoring and tests).
func (tx *Txn) State() string {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	switch tx.state {
	case txnActive:
		return "active"
	case txnPrepared:
		return "prepared"
	case txnCommitted:
		return "committed"
	default:
		return "aborted"
	}
}

// ---------------------------------------------------------------------
// DDL (DDL is auto-committing in spirit: not undone on rollback, like
// many 1990s engines; the federation only issues DDL at setup time)

func (tx *Txn) execCreateTable(ctx context.Context, s *sqlparser.CreateTable) (*ExecResult, error) {
	if err := tx.lockTable(ctx, s.Schema.Table, lockmgr.X); err != nil {
		return nil, err
	}
	tx.db.latch.Lock()
	defer tx.db.latch.Unlock()
	lc := strings.ToLower(s.Schema.Table)
	if _, exists := tx.db.tables[lc]; exists {
		return nil, fmt.Errorf("localdb %s: table %s already exists", tx.db.name, s.Schema.Table)
	}
	t, err := storage.NewTable(s.Schema)
	if err != nil {
		return nil, err
	}
	if err := tx.db.logDDL(&wal.Record{Kind: wal.RecCreateTable, Table: s.Schema.Table, Schema: encodeSchema(s.Schema)}); err != nil {
		return nil, err
	}
	tx.db.tables[lc] = t
	return &ExecResult{}, nil
}

// logDDL appends a DDL record to the WAL at statement execution time
// (DDL is auto-committing in spirit: it is not undone on rollback, so
// it is durable the moment it executes). Callers hold the database
// latch exclusively; no-op on in-memory databases.
func (db *DB) logDDL(rec *wal.Record) error {
	if db.wal == nil {
		return nil
	}
	if _, err := db.wal.Append(rec); err != nil {
		return fmt.Errorf("localdb %s: DDL log append: %w", db.name, err)
	}
	db.maybeCheckpoint()
	return nil
}

// encodeSchema renders a schema for a WAL create-table record.
func encodeSchema(sc *schema.Schema) []byte {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(sc); err != nil {
		// A schema is plain exported data; encoding cannot fail short of
		// a programming error.
		panic(fmt.Sprintf("localdb: encoding schema %s: %v", sc.Table, err))
	}
	return b.Bytes()
}

func decodeSchema(raw []byte) (*schema.Schema, error) {
	var sc schema.Schema
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&sc); err != nil {
		return nil, fmt.Errorf("localdb: decoding logged schema: %w", err)
	}
	return &sc, nil
}

func (tx *Txn) execDropTable(ctx context.Context, s *sqlparser.DropTable) (*ExecResult, error) {
	if err := tx.lockTable(ctx, s.Table, lockmgr.X); err != nil {
		return nil, err
	}
	tx.db.latch.Lock()
	defer tx.db.latch.Unlock()
	lc := strings.ToLower(s.Table)
	if _, exists := tx.db.tables[lc]; !exists {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	if err := tx.db.logDDL(&wal.Record{Kind: wal.RecDropTable, Table: s.Table}); err != nil {
		return nil, err
	}
	delete(tx.db.tables, lc)
	return &ExecResult{}, nil
}

func (tx *Txn) execCreateIndex(ctx context.Context, s *sqlparser.CreateIndex) (*ExecResult, error) {
	if err := tx.lockTable(ctx, s.Table, lockmgr.X); err != nil {
		return nil, err
	}
	tx.db.latch.Lock()
	defer tx.db.latch.Unlock()
	t, err := tx.db.table(s.Table)
	if err != nil {
		return nil, err
	}
	if s.Ordered {
		if err := t.CreateOrderedIndex(s.Columns...); err != nil {
			return nil, err
		}
	} else {
		if len(s.Columns) != 1 {
			return nil, fmt.Errorf("localdb: hash index on %s takes a single column", s.Table)
		}
		if err := t.CreateIndex(s.Columns[0]); err != nil {
			return nil, err
		}
	}
	rec := &wal.Record{Kind: wal.RecCreateIndex, Table: s.Table, Column: s.Columns[0], Ordered: s.Ordered}
	if len(s.Columns) > 1 {
		rec.Columns = s.Columns[1:]
	}
	if err := tx.db.logDDL(rec); err != nil {
		return nil, err
	}
	return &ExecResult{}, nil
}

// ---------------------------------------------------------------------
// Lock helpers

func tableResource(name string) string { return "t:" + strings.ToLower(name) }

func keyResource(table, key string) string { return "k:" + strings.ToLower(table) + ":" + key }

func (tx *Txn) lockTable(ctx context.Context, name string, mode lockmgr.Mode) error {
	return tx.acquire(ctx, tableResource(name), mode)
}

func (tx *Txn) lockKey(ctx context.Context, table, key string, mode lockmgr.Mode) error {
	return tx.acquire(ctx, keyResource(table, key), mode)
}

// acquire takes one lock, capping the wait at the database's lock-wait
// bound when one is configured. A wait that hits the cap (rather than
// the request's own deadline) still surfaces as ErrTimeout — the
// presumed-deadlock backstop.
func (tx *Txn) acquire(ctx context.Context, resource string, mode lockmgr.Mode) error {
	if lw := time.Duration(tx.db.lockWait.Load()); lw > 0 {
		if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > lw {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, lw)
			defer cancel()
		}
	}
	return tx.db.lm.Acquire(ctx, tx.id, resource, mode)
}
