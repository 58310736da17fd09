package localdb

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"myriad/internal/schema"
	"myriad/internal/storage"
	"myriad/internal/value"
	"myriad/internal/wal"
)

func durableOpen(t *testing.T, dir string, opts DurabilityOptions) *DB {
	t.Helper()
	db, err := Open("site", dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return db
}

func mustQueryInts(t *testing.T, db *DB, sql string) []int64 {
	t.Helper()
	rs, err := db.Query(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var out []int64
	for _, r := range rs.Rows {
		out = append(out, r[0].RawInt())
	}
	return out
}

func seedEmployees(t *testing.T, db *DB) {
	t.Helper()
	db.MustExec(`CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT, score FLOAT)`)
	db.MustExec(`CREATE ORDERED INDEX es ON emp (score)`)
	db.MustExec(`CREATE INDEX en ON emp (name)`)
	db.MustExec(`INSERT INTO emp (id, name, score) VALUES (1, 'ada', 90.0), (2, 'bob', 70.0), (3, 'cyd', 90.0)`)
	db.MustExec(`UPDATE emp SET score = 95.0 WHERE id = 2`)
	db.MustExec(`DELETE FROM emp WHERE id = 1`)
}

func TestReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncAlways})
	seedEmployees(t, db)
	want := db.StateDigest()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncAlways})
	defer db2.Close()
	if got := db2.StateDigest(); got != want {
		t.Fatalf("digest after reopen differs:\n got %s\nwant %s", got, want)
	}
	if ids := mustQueryInts(t, db2, `SELECT id FROM emp ORDER BY score DESC`); len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("ordered query after reopen: %v", ids)
	}
	// The recovered database keeps working: writes append past the
	// replayed tail and survive another reopen.
	db2.MustExec(`INSERT INTO emp (id, name, score) VALUES (4, 'dee', 80.0)`)
	want2 := db2.StateDigest()
	db2.Close()
	db3 := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncAlways})
	defer db3.Close()
	if got := db3.StateDigest(); got != want2 {
		t.Fatal("digest after second reopen differs")
	}
}

// TestRecoveredSlotsExact proves physical slot equality, not just
// logical equivalence: replay places rows at their logged heap slots,
// leaving aborted transactions' slots as permanent gaps.
func TestRecoveredSlotsExact(t *testing.T) {
	dir := t.TempDir()
	db := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncAlways})
	db.MustExec(`CREATE TABLE k (id INTEGER PRIMARY KEY, v TEXT)`)
	db.MustExec(`INSERT INTO k (id, v) VALUES (1, 'a')`) // slot 0

	// An aborted transaction consumes slot 1 and rolls back: the slot
	// stays a tombstone forever and never reaches the log.
	tx := db.Begin()
	if _, err := tx.Exec(context.Background(), `INSERT INTO k (id, v) VALUES (2, 'ghost')`); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()

	db.MustExec(`INSERT INTO k (id, v) VALUES (3, 'c')`) // slot 2

	slotsOf := func(d *DB) [][2]int64 {
		d.latch.RLock()
		defer d.latch.RUnlock()
		var pairs [][2]int64
		d.tables["k"].Scan(func(id storage.RowID, r schema.Row) bool {
			pairs = append(pairs, [2]int64{int64(id), r[0].RawInt()})
			return true
		})
		return pairs
	}
	want := slotsOf(db)
	db.Close()

	db2 := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncAlways})
	defer db2.Close()
	got := slotsOf(db2)
	if len(got) != 2 || got[0] != [2]int64{0, 1} || got[1] != [2]int64{2, 3} {
		t.Fatalf("recovered (slot, id) pairs = %v, want [[0 1] [2 3]] (slot 1 stays the aborted gap)", got)
	}
	if len(want) != len(got) || want[0] != got[0] || want[1] != got[1] {
		t.Fatalf("recovered slots %v differ from pre-crash slots %v", got, want)
	}
}

func TestExplicitCheckpointAndReopen(t *testing.T) {
	dir := t.TempDir()
	db := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncAlways})
	seedEmployees(t, db)
	done, err := db.Checkpoint()
	if err != nil || !done {
		t.Fatalf("Checkpoint: done=%v err=%v", done, err)
	}
	if size := db.wal.Size(); size != 0 {
		t.Fatalf("WAL size after checkpoint = %d, want 0", size)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatalf("snapshot missing after checkpoint: %v", err)
	}
	// Post-checkpoint writes land in the (now empty) log and must
	// compose with the snapshot on recovery.
	db.MustExec(`INSERT INTO emp (id, name, score) VALUES (9, 'zed', 10.0)`)
	want := db.StateDigest()
	db.Close()

	db2 := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncAlways})
	defer db2.Close()
	if got := db2.StateDigest(); got != want {
		t.Fatal("digest after checkpoint+write+reopen differs")
	}
}

// TestCheckpointDefersUnderWriters: a transaction holding applied but
// uncommitted mutations blocks the snapshot (which must capture exactly
// the committed state); the checkpoint reports deferred, not an error.
func TestCheckpointDefersUnderWriters(t *testing.T) {
	dir := t.TempDir()
	db := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncAlways})
	defer db.Close()
	db.MustExec(`CREATE TABLE k (id INTEGER PRIMARY KEY, v TEXT)`)

	tx := db.Begin()
	if _, err := tx.Exec(context.Background(), `INSERT INTO k (id, v) VALUES (1, 'pending')`); err != nil {
		t.Fatal(err)
	}
	if done, err := db.Checkpoint(); err != nil || done {
		t.Fatalf("Checkpoint with writer in flight: done=%v err=%v, want deferred", done, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if done, err := db.Checkpoint(); err != nil || !done {
		t.Fatalf("Checkpoint after commit: done=%v err=%v", done, err)
	}
}

func TestBackgroundCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	db := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncAlways, CheckpointBytes: 256})
	seedEmployees(t, db)
	for i := 10; i < 40; i++ {
		db.MustExec(`INSERT INTO emp (id, name, score) VALUES (` + itoa(i) + `, 'w', 1.0)`)
	}
	want := db.StateDigest()
	db.Close() // waits for the checkpointer

	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatalf("background checkpointer never wrote a snapshot: %v", err)
	}
	db2 := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncAlways})
	defer db2.Close()
	if got := db2.StateDigest(); got != want {
		t.Fatal("digest after background checkpoints + reopen differs")
	}
}

func itoa(i int) string {
	return strconv.Itoa(i)
}

// TestLeftoverSnapshotTmpIgnored: a crash mid-checkpoint leaves a
// partial snapshot.gob.tmp; open must discard it and recover from the
// real snapshot + log.
func TestLeftoverSnapshotTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	db := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncAlways})
	seedEmployees(t, db)
	want := db.StateDigest()
	db.Close()

	tmp := filepath.Join(dir, snapshotFile+".tmp")
	if err := os.WriteFile(tmp, []byte("torn checkpoint garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	db2 := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncAlways})
	defer db2.Close()
	if got := db2.StateDigest(); got != want {
		t.Fatal("digest with leftover tmp snapshot differs")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("leftover tmp snapshot not removed by open")
	}
}

// TestCrashDurabilityByPolicy: under SyncAlways a kill -9 loses no
// acknowledged commit; under SyncOff unflushed commits vanish but the
// database still recovers cleanly to an earlier consistent state.
func TestCrashDurabilityByPolicy(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		dir := t.TempDir()
		db := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncAlways})
		seedEmployees(t, db)
		want := db.StateDigest()
		db.Crash()

		db2 := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncAlways})
		defer db2.Close()
		if got := db2.StateDigest(); got != want {
			t.Fatal("SyncAlways lost an acknowledged commit across kill -9")
		}
	})
	t.Run("off", func(t *testing.T) {
		dir := t.TempDir()
		db := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncOff})
		db.MustExec(`CREATE TABLE k (id INTEGER PRIMARY KEY, v TEXT)`)
		db.MustExec(`INSERT INTO k (id, v) VALUES (1, 'x')`)
		if err := db.wal.Sync(); err != nil {
			t.Fatal(err)
		}
		db.MustExec(`INSERT INTO k (id, v) VALUES (2, 'unflushed')`)
		db.Crash()

		db2 := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncOff})
		defer db2.Close()
		ids := mustQueryInts(t, db2, `SELECT id FROM k ORDER BY id ASC`)
		if len(ids) != 1 || ids[0] != 1 {
			t.Fatalf("SyncOff recovery: ids = %v, want only the synced row", ids)
		}
	})
}

// TestDDLDurableDespiteRollback: DDL is auto-committing in spirit — a
// CREATE TABLE inside a transaction that later rolls back survives
// restart, while the rolled-back row does not.
func TestDDLDurableDespiteRollback(t *testing.T) {
	dir := t.TempDir()
	db := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncAlways})
	tx := db.Begin()
	ctx := context.Background()
	if _, err := tx.Exec(ctx, `CREATE TABLE t (id INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(ctx, `INSERT INTO t (id) VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	db.Close()

	db2 := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncAlways})
	defer db2.Close()
	if ids := mustQueryInts(t, db2, `SELECT id FROM t`); len(ids) != 0 {
		t.Fatalf("rolled-back row resurrected: %v", ids)
	}
}

// TestLoadIsDurable: testfed seeds sites through DB.Load; the bulk load
// must survive restart like any commit.
func TestLoadIsDurable(t *testing.T) {
	dir := t.TempDir()
	db := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncAlways})
	db.MustExec(`CREATE TABLE k (id INTEGER PRIMARY KEY, v TEXT)`)
	if err := db.Load("k", []schema.Row{
		{value.NewInt(1), value.NewText("a")},
		{value.NewInt(2), value.NewText("b")},
	}); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := durableOpen(t, dir, DurabilityOptions{Sync: wal.SyncAlways})
	defer db2.Close()
	if ids := mustQueryInts(t, db2, `SELECT id FROM k ORDER BY id ASC`); len(ids) != 2 {
		t.Fatalf("bulk-loaded rows lost: %v", ids)
	}
}
