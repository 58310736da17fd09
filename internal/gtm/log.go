// Coordinator log: the durable side of two-phase commit. The protocol
// is presumed-abort:
//
//   - RecCoordBegin (gid, participant sites+branches) is appended when
//     Commit enters phase one. It need not be individually fsynced —
//     the decision's fsync flushes everything before it, and a begin
//     lost in a crash means no decision was ever durable, so every
//     participant (prepared or not) correctly presumes abort.
//   - RecCoordDecision (gid, commit=true) is appended AND fsynced after
//     every participant voted yes, before any phase-two RPC. This
//     record is the global commit point. Abort decisions are never
//     logged: absence of a commit decision IS the abort decision.
//   - RecCoordEnd (gid) is appended once every participant acknowledged
//     the outcome; the global transaction needs no recovery work. A
//     lost end record merely causes an idempotent re-drive.
//
// On restart, AttachLog replays the log into the pending table and
// Recover re-drives each unfinished transaction: entries without a
// decision are aborted everywhere, entries with one are committed
// everywhere, and the end record retires them. A recovering participant
// may also ask Status for a branch's outcome (the pull path).
package gtm

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"myriad/internal/wal"
)

// Branch outcome answers served to recovering participants.
const (
	StatusCommit  = "commit"
	StatusAbort   = "abort"
	StatusPending = "pending"
)

// pendingGlobal is one global transaction the coordinator may still owe
// work: begun but not ended. Replayed entries have txn == nil; live
// ones carry their Txn so resolution can fix its state and stats.
type pendingGlobal struct {
	gid      uint64
	sites    []string
	branches []uint64
	decided  bool // a commit decision is durable
	txn      *Txn
}

// AttachLog opens (creating if needed) the coordinator log at path,
// replays it into the pending table, and advances the global
// transaction id counter past every logged id. Call it before the
// coordinator begins transactions; pair with Recover to re-drive what
// the replay found unfinished.
func (c *Coordinator) AttachLog(path string, opts wal.Options) error {
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	if c.log != nil {
		return fmt.Errorf("gtm: coordinator log already attached (%s)", c.path)
	}
	// Sweep the stray temp file a crash mid-compaction can leave: the
	// rename never happened, so the real log is intact and the temp file
	// is garbage.
	os.Remove(path + ".tmp") //nolint:errcheck
	var maxGID uint64
	l, err := wal.Open(path, opts, func(rec *wal.Record) error {
		switch rec.Kind {
		case wal.RecCoordBegin:
			c.pend[rec.GID] = &pendingGlobal{gid: rec.GID, sites: rec.Sites, branches: rec.Branches}
		case wal.RecCoordDecision:
			if p := c.pend[rec.GID]; p != nil {
				p.decided = true
			}
		case wal.RecCoordEnd:
			delete(c.pend, rec.GID)
		default:
			return fmt.Errorf("gtm: unexpected record kind %d in coordinator log", rec.Kind)
		}
		if rec.GID > maxGID {
			maxGID = rec.GID
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.log = l
	c.path = path
	c.opts = opts
	if c.nextID.Load() < maxGID {
		c.nextID.Store(maxGID)
	}
	return nil
}

// LogPath returns the attached coordinator log's path ("" when none).
func (c *Coordinator) LogPath() string {
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	return c.path
}

// Close releases the coordinator log (flushing it cleanly).
func (c *Coordinator) Close() error {
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	if c.log == nil {
		return nil
	}
	err := c.log.Close()
	c.log = nil
	return err
}

// logBegin registers a multi-site transaction entering two-phase
// commit: a pending entry (in memory always, in the log when one is
// attached). See the package comment for why begin records ride the
// ordinary sync policy.
func (c *Coordinator) logBegin(t *Txn, branches map[string]branch) error {
	sites := make([]string, 0, len(branches))
	ids := make([]uint64, 0, len(branches))
	for s, b := range branches {
		sites = append(sites, s)
		ids = append(ids, b.id)
	}
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	if c.log != nil {
		rec := &wal.Record{Kind: wal.RecCoordBegin, GID: t.id, Sites: sites, Branches: ids}
		if _, err := c.log.Append(rec); err != nil {
			return err
		}
	}
	c.pend[t.id] = &pendingGlobal{gid: t.id, sites: sites, branches: ids, txn: t}
	return nil
}

// logDecision makes the commit decision durable — the global commit
// point. After it returns nil the transaction WILL commit, crash or no
// crash.
func (c *Coordinator) logDecision(gid uint64) error {
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	if c.log != nil {
		if _, err := c.log.AppendSync(&wal.Record{Kind: wal.RecCoordDecision, GID: gid, Commit: true}); err != nil {
			return err
		}
	}
	if p := c.pend[gid]; p != nil {
		p.decided = true
	}
	return nil
}

// logEnd retires a finished global transaction. Tolerant of ids with no
// pending entry (one-phase commits and active-phase aborts never logged
// a begin).
func (c *Coordinator) logEnd(gid uint64) {
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	if _, ok := c.pend[gid]; !ok {
		return
	}
	delete(c.pend, gid)
	if c.log != nil {
		// Best-effort: a lost end record only costs an idempotent
		// re-drive on the next recovery.
		c.log.Append(&wal.Record{Kind: wal.RecCoordEnd, GID: gid}) //nolint:errcheck
		if c.compactBytes > 0 && c.log.Size() >= c.compactBytes {
			// Best-effort too: a failed compaction leaves the original
			// log fully intact, just uncompacted.
			c.compactLocked() //nolint:errcheck
		}
	}
}

// SetCompactBytes arms automatic coordinator-log compaction: once the
// log grows past n bytes a finished transaction retires, the live
// entries are rewritten into a fresh log and the retired ones dropped.
// n <= 0 disables automatic compaction (CompactLog still works). The
// counterpart of localdb's snapshot-driven WAL truncation, applied to
// the coordinator's own log.
func (c *Coordinator) SetCompactBytes(n int64) {
	c.pendMu.Lock()
	c.compactBytes = n
	c.pendMu.Unlock()
}

// CompactLog rewrites the coordinator log so it holds exactly the live
// pending entries (a begin record each, plus the decision for decided
// ones) and nothing retired. The rewrite is crash-safe: the new log is
// written beside the old one, fsynced, and renamed over it, so a crash
// at any point leaves either the full old log or the complete new one
// — replaying either yields the same pending table. No-op without an
// attached log.
func (c *Coordinator) CompactLog() error {
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	return c.compactLocked()
}

// compactLocked does the rewrite; callers hold pendMu.
func (c *Coordinator) compactLocked() error {
	if c.log == nil {
		return nil
	}
	tmp := c.path + ".tmp"
	os.Remove(tmp) //nolint:errcheck
	nl, err := wal.Open(tmp, c.opts, nil)
	if err != nil {
		return fmt.Errorf("gtm: compacting coordinator log: %w", err)
	}
	abandon := func(err error) error {
		nl.Close()     //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	// Keep LSNs monotone across the compaction: rewritten entries number
	// past everything the old log ever held, so the compacted log is
	// indistinguishable from one that simply never logged the retired
	// transactions.
	nl.AdvanceLSN(c.log.LastLSN())
	// Preserve the id ceiling: replay advances the counter past the gids
	// it sees, and compaction may have dropped the largest. An end record
	// replays as a no-op delete, so it carries the ceiling for free — but
	// it must precede the begin records, since the last-used gid may
	// itself still be pending.
	if last := c.nextID.Load(); last > 0 {
		if _, err := nl.Append(&wal.Record{Kind: wal.RecCoordEnd, GID: last}); err != nil {
			return abandon(fmt.Errorf("gtm: compacting coordinator log: %w", err))
		}
	}
	gids := make([]uint64, 0, len(c.pend))
	for gid := range c.pend {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, gid := range gids {
		p := c.pend[gid]
		if _, err := nl.Append(&wal.Record{Kind: wal.RecCoordBegin, GID: p.gid, Sites: p.sites, Branches: p.branches}); err != nil {
			return abandon(fmt.Errorf("gtm: compacting coordinator log: %w", err))
		}
		if p.decided {
			if _, err := nl.Append(&wal.Record{Kind: wal.RecCoordDecision, GID: p.gid, Commit: true}); err != nil {
				return abandon(fmt.Errorf("gtm: compacting coordinator log: %w", err))
			}
		}
	}
	if err := nl.Close(); err != nil { // flush + fsync the rewrite
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("gtm: compacting coordinator log: %w", err)
	}
	if err := os.Rename(tmp, c.path); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("gtm: compacting coordinator log: %w", err)
	}
	if err := syncDir(filepath.Dir(c.path)); err != nil {
		return fmt.Errorf("gtm: compacting coordinator log: %w", err)
	}
	// The old handle still points at the unlinked file; nothing in it
	// matters any more.
	c.log.CloseNoFlush() //nolint:errcheck
	reopened, err := wal.Open(c.path, c.opts, nil)
	if err != nil {
		c.log = nil
		return fmt.Errorf("gtm: reopening compacted coordinator log: %w", err)
	}
	c.log = reopened
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Pending reports how many global transactions are begun-but-not-ended
// (undecided, in-doubt, or mid-commit).
func (c *Coordinator) Pending() int {
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	return len(c.pend)
}

// Status answers a recovering participant asking for a branch outcome
// (the pull path of in-doubt resolution): StatusCommit when a durable
// commit decision covers the branch, StatusPending while its global
// transaction is still deciding, and StatusAbort otherwise — including
// "never heard of it", which is exactly presumed abort.
func (c *Coordinator) Status(site string, branch uint64) string {
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	for _, p := range c.pend {
		for i, s := range p.sites {
			if s == site && p.branches[i] == branch {
				switch {
				case p.decided:
					return StatusCommit
				case p.txn != nil && p.txn.driving():
					// A live coordinator mid-phase-one: the decision is
					// genuinely not made yet.
					return StatusPending
				default:
					// Undecided and nobody is driving it — a replayed
					// entry, or a live abort a participant missed. Either
					// way the outcome is abort.
					return StatusAbort
				}
			}
		}
	}
	return StatusAbort
}

// Recover re-drives every unfinished global transaction: undecided
// entries are aborted at every participant (presumed abort), decided
// ones are committed, and fully acknowledged outcomes are retired with
// an end record. Live transactions still in phase one are skipped —
// their own Commit call owns them. Call after AttachLog on restart, and
// again any time in-doubt transactions may have become resolvable (a
// participant came back). Returns the first re-drive error; entries
// that could not be fully acknowledged stay pending for the next call.
func (c *Coordinator) Recover(ctx context.Context) error {
	c.pendMu.Lock()
	pendings := make([]*pendingGlobal, 0, len(c.pend))
	for _, p := range c.pend {
		pendings = append(pendings, p)
	}
	c.pendMu.Unlock()

	var firstErr error
	for _, p := range pendings {
		if !p.decided && p.txn != nil && p.txn.driving() {
			// A live transaction whose own Commit/Abort call is still in
			// charge. An aborted-but-unacknowledged one (a participant
			// missed the abort) is NOT skipped: its entry is exactly what
			// this pass re-drives.
			continue
		}
		if err := c.resolve(ctx, p); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// resolve drives one pending transaction's outcome to every
// participant; only a fully acknowledged outcome is retired.
func (c *Coordinator) resolve(ctx context.Context, p *pendingGlobal) error {
	var firstErr error
	acked := true
	for i, site := range p.sites {
		conn, ok := c.provider.Conn(site)
		if !ok {
			acked = false
			if firstErr == nil {
				firstErr = fmt.Errorf("gtm: recover: unknown site %q", site)
			}
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, c.phaseTimeout())
		var err error
		if p.decided {
			err = conn.Commit(pctx, p.branches[i])
		} else {
			err = conn.Abort(pctx, p.branches[i])
		}
		cancel()
		if err != nil {
			acked = false
			if firstErr == nil {
				firstErr = fmt.Errorf("gtm: recover %s of branch %d at %s: %w",
					map[bool]string{true: "commit", false: "abort"}[p.decided], p.branches[i], site, err)
			}
		}
	}
	if !acked {
		return firstErr
	}
	c.logEnd(p.gid)
	if p.txn != nil {
		p.txn.resolveInDoubt(p.decided)
		c.notifyFinish(p.txn.writeSet())
		return nil
	}
	// Replayed from the log after a restart: no Txn, so no write set.
	// The re-driven outcome changed (or restored) site state all the
	// same, so every export at every participant counts as written.
	writes := make([]Write, len(p.sites))
	for i, s := range p.sites {
		writes[i] = Write{Site: s}
	}
	c.notifyFinish(writes)
	return nil
}
