package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"myriad/internal/value"
)

// Record payload encoding (everything after the frame header):
//
//	uvarint LSN
//	byte    kind
//	commit:        uvarint nops, then per op:
//	                 byte opkind; string table; uvarint slot;
//	                 insert/update additionally: row
//	               then, optionally (absent in pre-2PC logs):
//	                 uvarint branch (0 = not a prepared branch)
//	createTable:   string table; bytes schema
//	dropTable:     string table
//	createIndex:   string table; string column; byte ordered;
//	               then, optionally (absent in pre-composite logs and
//	               for single-column indexes):
//	                 uvarint nextra, then nextra further key columns
//	prepare:       uvarint branch; ops as in commit;
//	               uvarint nlocks, then per lock: string resource; byte mode
//	               then, optionally (absent in pre-deadlock-detection
//	               logs): uvarint gid (0 = branch of no global txn)
//	abort:         uvarint branch
//	coordBegin:    uvarint gid; uvarint nsites, then per site:
//	                 string site; uvarint branch
//	coordDecision: uvarint gid; byte commit
//	coordEnd:      uvarint gid
//
// where string/bytes = uvarint length + raw bytes, and a row is the
// shared row codec's encoding (value.AppendRow: uvarint ncols, then a
// tagged value each) — the same bytes comm batch frames and spill runs
// carry.

func encodeRecord(r *Record) []byte {
	b := binary.AppendUvarint(nil, r.LSN)
	b = append(b, byte(r.Kind))
	switch r.Kind {
	case RecCommit:
		b = appendOps(b, r.Ops)
		b = binary.AppendUvarint(b, r.Branch)
	case RecPrepare:
		b = binary.AppendUvarint(b, r.Branch)
		b = appendOps(b, r.Ops)
		b = binary.AppendUvarint(b, uint64(len(r.Locks)))
		for _, lk := range r.Locks {
			b = appendString(b, lk.Resource)
			b = append(b, lk.Mode)
		}
		b = binary.AppendUvarint(b, r.GID)
	case RecAbort:
		b = binary.AppendUvarint(b, r.Branch)
	case RecCoordBegin:
		b = binary.AppendUvarint(b, r.GID)
		b = binary.AppendUvarint(b, uint64(len(r.Sites)))
		for i, s := range r.Sites {
			b = appendString(b, s)
			b = binary.AppendUvarint(b, r.Branches[i])
		}
	case RecCoordDecision:
		b = binary.AppendUvarint(b, r.GID)
		if r.Commit {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case RecCoordEnd:
		b = binary.AppendUvarint(b, r.GID)
	case RecCreateTable:
		b = appendString(b, r.Table)
		b = binary.AppendUvarint(b, uint64(len(r.Schema)))
		b = append(b, r.Schema...)
	case RecDropTable:
		b = appendString(b, r.Table)
	case RecCreateIndex:
		b = appendString(b, r.Table)
		b = appendString(b, r.Column)
		if r.Ordered {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		if len(r.Columns) > 0 {
			b = binary.AppendUvarint(b, uint64(len(r.Columns)))
			for _, c := range r.Columns {
				b = appendString(b, c)
			}
		}
	}
	return b
}

func appendOps(b []byte, ops []Op) []byte {
	b = binary.AppendUvarint(b, uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		b = append(b, byte(op.Kind))
		b = appendString(b, op.Table)
		b = binary.AppendUvarint(b, uint64(op.Row))
		if op.Kind != OpDelete {
			b = value.AppendRow(b, op.Vals)
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decoder reads the payload with bounds checks everywhere; it never
// panics on adversarial input (FuzzWALReplay's contract) and never
// allocates more than the payload's own length.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("wal: truncated uvarint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("wal: truncated payload at %d", d.off)
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("wal: %d-byte field overruns payload at %d", n, d.off)
		return nil
	}
	s := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return s
}

func (d *decoder) string() string { return string(d.bytes()) }

// row decodes one row in the shared value codec.
func (d *decoder) row() []value.Value {
	if d.err != nil {
		return nil
	}
	row, n, err := value.DecodeRow(nil, d.b[d.off:])
	if err != nil {
		d.fail("wal: row at %d: %w", d.off, err)
		return nil
	}
	d.off += n
	return row
}

// ops decodes a RecCommit/RecPrepare op batch.
func (d *decoder) ops() []Op {
	nops := d.uvarint()
	if d.err != nil {
		return nil
	}
	// Each op is at least 3 bytes; an absurd count is corruption, not
	// an allocation request.
	if nops > uint64(len(d.b)) {
		d.fail("wal: op count %d exceeds payload", nops)
		return nil
	}
	ops := make([]Op, 0, nops)
	for i := uint64(0); i < nops && d.err == nil; i++ {
		op := Op{Kind: OpKind(d.byte()), Table: d.string()}
		slot := d.uvarint()
		if slot > math.MaxInt64 {
			d.fail("wal: slot %d out of range", slot)
		}
		op.Row = int64(slot)
		switch op.Kind {
		case OpInsert, OpUpdate:
			op.Vals = d.row()
		case OpDelete:
		default:
			d.fail("wal: unknown op kind %d", op.Kind)
		}
		ops = append(ops, op)
	}
	return ops
}

func decodeRecord(payload []byte) (*Record, error) {
	d := &decoder{b: payload}
	rec := &Record{LSN: d.uvarint(), Kind: RecordKind(d.byte())}
	switch rec.Kind {
	case RecCommit:
		rec.Ops = d.ops()
		// The branch id is a post-hoc addition; logs written before
		// two-phase commit end right after the ops.
		if d.err == nil && d.off < len(payload) {
			rec.Branch = d.uvarint()
		}
	case RecPrepare:
		rec.Branch = d.uvarint()
		rec.Ops = d.ops()
		nlocks := d.uvarint()
		if d.err == nil && nlocks > uint64(len(payload)) {
			d.fail("wal: lock count %d exceeds payload", nlocks)
		}
		if d.err == nil {
			rec.Locks = make([]LockEntry, 0, nlocks)
			for i := uint64(0); i < nlocks && d.err == nil; i++ {
				rec.Locks = append(rec.Locks, LockEntry{Resource: d.string(), Mode: d.byte()})
			}
		}
		// The global id is a post-hoc addition; logs written before
		// deadlock detection end right after the locks.
		if d.err == nil && d.off < len(payload) {
			rec.GID = d.uvarint()
		}
	case RecAbort:
		rec.Branch = d.uvarint()
	case RecCoordBegin:
		rec.GID = d.uvarint()
		nsites := d.uvarint()
		if d.err == nil && nsites > uint64(len(payload)) {
			d.fail("wal: site count %d exceeds payload", nsites)
		}
		if d.err == nil {
			rec.Sites = make([]string, 0, nsites)
			rec.Branches = make([]uint64, 0, nsites)
			for i := uint64(0); i < nsites && d.err == nil; i++ {
				rec.Sites = append(rec.Sites, d.string())
				rec.Branches = append(rec.Branches, d.uvarint())
			}
		}
	case RecCoordDecision:
		rec.GID = d.uvarint()
		rec.Commit = d.byte() != 0
	case RecCoordEnd:
		rec.GID = d.uvarint()
	case RecCreateTable:
		rec.Table = d.string()
		rec.Schema = append([]byte(nil), d.bytes()...)
	case RecDropTable:
		rec.Table = d.string()
	case RecCreateIndex:
		rec.Table = d.string()
		rec.Column = d.string()
		rec.Ordered = d.byte() != 0
		if d.err == nil && d.off < len(payload) {
			n := d.uvarint()
			if d.err == nil && n > uint64(len(payload)) {
				d.fail("wal: extra index column count %d exceeds payload", n)
			}
			if d.err == nil {
				rec.Columns = make([]string, 0, n)
				for i := uint64(0); i < n && d.err == nil; i++ {
					rec.Columns = append(rec.Columns, d.string())
				}
			}
		}
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", rec.Kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("wal: %d trailing bytes after record", len(payload)-d.off)
	}
	return rec, nil
}
