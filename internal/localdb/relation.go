package localdb

import (
	"context"
	"fmt"
	"strings"

	"myriad/internal/schema"
	"myriad/internal/spill"
	"myriad/internal/sqlparser"
	"myriad/internal/value"
)

// StreamRelation is the pipeline's second leaf beside the heap and
// index scans: a relation whose rows come from a schema.RowStream. It
// takes no lock, has no access path to choose and no statistics to
// compute; EstRows is the one fact the compiler reads (to rank hash-join
// builds). Its stream can be read once: a second scan of the relation
// is an error, never an empty read.
type StreamRelation struct {
	Schema  *schema.Schema
	EstRows float64
	stream  schema.RowStream
	claimed bool
	closed  bool
}

// NewStreamRelation binds stream to the relation named sc.Table. The
// relation owns the stream from here on.
func NewStreamRelation(sc *schema.Schema, estRows float64, stream schema.RowStream) *StreamRelation {
	return &StreamRelation{Schema: sc, EstRows: estRows, stream: stream}
}

// QueryRelations compiles sel against rels, which its FROM entries name
// by Schema.Table, and returns the result as a stream the caller must
// Close. The blocking operators (sort, DISTINCT, GROUP BY) draw on
// budget. The returned stream owns every relation's stream: Close — or
// a failed compile — closes them all, read or not.
func QueryRelations(ctx context.Context, sel *sqlparser.Select, rels []*StreamRelation, budget *spill.Budget) (schema.RowStream, error) {
	db := newDB("residual", budget)
	db.rels = make(map[string]*StreamRelation, len(rels))
	for _, r := range rels {
		db.rels[strings.ToLower(r.Schema.Table)] = r
	}
	closeAll := func() {
		for _, r := range rels {
			r.close()
		}
	}
	rows, err := db.QueryStreamStmt(ctx, sel)
	if err != nil {
		closeAll()
		return nil, err
	}
	return schema.StreamWithCleanup(rows, closeAll), nil
}

// relation returns the stream relation bound to name, or nil when name
// is not one (every engine but a residual's).
func (db *DB) relation(name string) *StreamRelation {
	if db.rels == nil {
		return nil
	}
	return db.rels[strings.ToLower(name)]
}

// scanRelation opens rel as a pipeline leaf bound as qual: read whole,
// once, with no lock and no access path, filtered by the conjuncts that
// refer to it alone (which it marks used).
func (tx *Txn) scanRelation(rel *StreamRelation, qual string, conjuncts []sqlparser.Expr, used []bool, b *rowBinder) (rowIter, error) {
	if rel.claimed {
		return nil, fmt.Errorf("localdb: stream relation %s read twice", rel.Schema.Table)
	}
	rel.claimed = true
	var local []sqlparser.Expr
	for i, c := range conjuncts {
		if !used[i] && refersOnlyTo(c, qual, rel.Schema) {
			local = append(local, c)
			used[i] = true
		}
	}
	b.add(qual, rel.Schema)
	return tx.filterLocal(&streamIter{rel: rel}, local, b)
}

// close closes the relation's stream once, whether the pipeline's leaf
// or the query's teardown gets there first. For a fan-in that
// half-closes every site still shipping.
func (r *StreamRelation) close() {
	if !r.closed {
		r.closed = true
		r.stream.Close()
	}
}

// streamIter yields a stream relation's rows, coerced to its schema the
// way a heap insert would coerce them (rows already of the declared
// kinds pass through uncopied). Close closes the stream.
type streamIter struct {
	rel *StreamRelation
}

func (s *streamIter) Next(ctx context.Context) ([]value.Value, error) {
	if err := schema.Canceled(ctx); err != nil {
		return nil, err
	}
	if s.rel.closed {
		return nil, nil
	}
	r, err := s.rel.stream.Next(ctx)
	if err != nil || r == nil {
		return nil, err
	}
	return schema.ConformRow(s.rel.Schema, r)
}

func (s *streamIter) Close() { s.rel.close() }
