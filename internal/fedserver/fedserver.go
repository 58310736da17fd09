// Package fedserver serves a federation over the comm protocol: the
// network front end of myriadd. Clients (myriadctl, fedclient) pose
// global queries and transactions; DBAs browse and define federated
// schemas remotely — the paper's application-tool interface.
package fedserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	"myriad/internal/catalog"
	"myriad/internal/comm"
	"myriad/internal/core"
	"myriad/internal/executor"
	"myriad/internal/gateway"
	"myriad/internal/gtm"
	"myriad/internal/integration"
	"myriad/internal/schema"
	"myriad/internal/value"
)

// IntegratedDefJSON is the wire form of an integrated relation
// definition (used by OpDefine and the myriadd config file).
type IntegratedDefJSON struct {
	Name    string            `json:"name"`
	Columns []ColumnJSON      `json:"columns"`
	Key     []string          `json:"key,omitempty"`
	Combine string            `json:"combine"` // "union all" | "union" | "merge"
	Sources []SourceJSON      `json:"sources"`
	Resolve map[string]string `json:"resolvers,omitempty"`
}

// ColumnJSON is one integrated column.
type ColumnJSON struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// SourceJSON is one integrated-relation source mapping.
type SourceJSON struct {
	Site   string            `json:"site"`
	Export string            `json:"export"`
	Map    map[string]string `json:"map"`
	Filter string            `json:"filter,omitempty"`
}

// ToDef converts the wire form into a catalog definition.
func (j *IntegratedDefJSON) ToDef() (*catalog.IntegratedDef, error) {
	def := &catalog.IntegratedDef{Name: j.Name, Key: j.Key, Resolvers: j.Resolve}
	for _, c := range j.Columns {
		t, err := schema.ParseType(c.Type)
		if err != nil {
			return nil, err
		}
		def.Columns = append(def.Columns, schema.Column{Name: c.Name, Type: t})
	}
	combine, err := integration.ParseCombine(j.Combine)
	if err != nil {
		return nil, err
	}
	def.Combine = combine
	for _, s := range j.Sources {
		def.Sources = append(def.Sources, catalog.SourceDef{
			Site: s.Site, Export: s.Export, ColumnMap: s.Map, Filter: s.Filter,
		})
	}
	return def, nil
}

// Server adapts a Federation to comm.Handler.
type Server struct {
	fed *core.Federation

	// Logf, when non-nil, receives one line of per-source stream
	// metrics (rows, batches, first-row latency per site) after each
	// streamed global query completes.
	Logf func(format string, v ...any)

	mu   sync.Mutex
	txns map[uint64]*gtm.Txn
}

// New wraps fed for serving.
func New(fed *core.Federation) *Server {
	return &Server{fed: fed, txns: make(map[uint64]*gtm.Txn)}
}

// errKind maps a federation error to the wire error kind that both a
// Response and a streaming trailer carry.
func errKind(err error) comm.ErrKind {
	switch {
	case errors.Is(err, gtm.ErrWounded) || errors.Is(err, gateway.ErrWounded):
		return comm.ErrWounded
	case errors.Is(err, gtm.ErrDeadlockAbort) || errors.Is(err, gateway.ErrTimeout) || errors.Is(err, context.DeadlineExceeded):
		return comm.ErrTimeout
	case errors.Is(err, gtm.ErrInDoubt):
		return comm.ErrInDoubt
	}
	return comm.ErrGeneric
}

func fail(err error) *comm.Response {
	return &comm.Response{Err: err.Error(), Kind: errKind(err)}
}

// streamErr tags a federation error with its wire kind for the trailer.
func streamErr(err error) error { return &comm.KindError{Kind: errKind(err), Err: err} }

// Handle implements comm.Handler for the federation protocol. OpQuery is
// not among its ops: queries are served only by HandleStream.
func (s *Server) Handle(ctx context.Context, req *comm.Request) *comm.Response {
	switch req.Op {
	case comm.OpPing:
		return &comm.Response{}

	case comm.OpExecAt:
		txn, ok := s.txn(req.TxnID)
		if !ok {
			return fail(fmt.Errorf("fedserver: unknown global transaction %d", req.TxnID))
		}
		n, err := txn.ExecSite(ctx, req.Table, req.SQL)
		if err != nil {
			return fail(err)
		}
		return &comm.Response{Affected: n}

	case comm.OpBegin:
		txn := s.fed.Begin()
		s.mu.Lock()
		s.txns[txn.ID()] = txn
		s.mu.Unlock()
		return &comm.Response{TxnID: txn.ID()}

	case comm.OpCommit:
		txn, ok := s.take(req.TxnID)
		if !ok {
			return fail(fmt.Errorf("fedserver: unknown global transaction %d", req.TxnID))
		}
		if err := txn.Commit(ctx); err != nil {
			return fail(err)
		}
		return &comm.Response{}

	case comm.OpAbort:
		txn, ok := s.take(req.TxnID)
		if ok {
			txn.Abort(ctx)
		}
		return &comm.Response{}

	case comm.OpTxnStatus:
		// A recovering site asks for a prepared branch's outcome before
		// releasing its locks (Table = site name, TxnID = branch id).
		return &comm.Response{Status: s.fed.Coordinator().Status(req.Table, req.TxnID)}

	case comm.OpExplain:
		sql, strategy := stripStrategy(req.SQL, core.StrategyCostBased)
		out, err := s.fed.Explain(ctx, sql, strategy)
		if err != nil {
			return fail(err)
		}
		return &comm.Response{Rows: textResult("plan", out)}

	case comm.OpDefine:
		var j IntegratedDefJSON
		if err := json.Unmarshal([]byte(req.SQL), &j); err != nil {
			return fail(fmt.Errorf("fedserver: bad definition: %w", err))
		}
		def, err := j.ToDef()
		if err != nil {
			return fail(err)
		}
		if err := s.fed.DefineIntegrated(def); err != nil {
			return fail(err)
		}
		return &comm.Response{}

	case comm.OpDrop:
		if err := s.fed.Catalog().Drop(req.Table); err != nil {
			return fail(err)
		}
		return &comm.Response{}

	case comm.OpCatalog:
		return &comm.Response{Rows: textResult("catalog", s.renderCatalog())}

	case comm.OpSchema:
		var scs []*schema.Schema
		cat := s.fed.Catalog()
		for _, name := range cat.IntegratedNames() {
			if def, ok := cat.Integrated(name); ok {
				scs = append(scs, def.Schema())
			}
		}
		return &comm.Response{Schemas: scs}

	default:
		return fail(fmt.Errorf("fedserver: unsupported op %q", req.Op))
	}
}

// HandleStream implements comm.StreamHandler and is the only way OpQuery
// is served: global queries — autocommit, or inside the global
// transaction TxnID names — stream their residual rows to the client as
// the federation produces them, completing the pipeline site →
// federation → client. A result that offers encoded batches (a plain
// scan over remote sites) goes out batch by batch, its rows never
// decoded here. Any other result fills each frame in one call, through
// the stream's AppendRows where it has one — a spilled ORDER BY copies
// its run bytes into the frame — and from its rows otherwise. Every
// other op is a Handle request.
func (s *Server) HandleStream(ctx context.Context, req *comm.Request, sink comm.RowSink) error {
	if req.Op != comm.OpQuery {
		return fmt.Errorf("fedserver: op %q does not stream", req.Op)
	}
	sql, strategy := stripStrategy(req.SQL, s.fed.Strategy)
	var (
		rows schema.RowStream
		m    *executor.Metrics
		err  error
	)
	if req.TxnID == 0 {
		rows, m, err = s.fed.QueryStreamMetered(ctx, sql, strategy)
	} else if txn, ok := s.txn(req.TxnID); ok {
		rows, m, err = s.fed.QueryTx(ctx, txn, sql, strategy)
	} else {
		err = fmt.Errorf("fedserver: unknown global transaction %d", req.TxnID)
	}
	if err != nil {
		return streamErr(err)
	}
	// LIFO: the stream closes first (settling the metrics), then the
	// metrics log.
	defer s.logSources(sql, m)
	defer rows.Close()
	if err := sink.Header(rows.Columns()); err != nil {
		return err
	}
	if bs := schema.Batches(rows); bs != nil {
		// The rows are already in the wire's row codec (a plain scan's
		// site batches, checked and filtered where they lie): forward
		// each batch as one frame.
		for {
			b, err := bs.NextBatch(ctx)
			if err != nil {
				return streamErr(err)
			}
			if b.N == 0 {
				return nil
			}
			if err := sink.Batch(b.N, b.Payload); err != nil {
				return err
			}
		}
	}
	appendRows := func(ctx context.Context, dst []byte, room int) ([]byte, int, error) {
		return schema.AppendRows(ctx, rows.Next, dst, room)
	}
	if ra, ok := rows.(schema.RowAppender); ok {
		appendRows = ra.AppendRows
	}
	fill := func(dst []byte, room int) ([]byte, int, error) {
		dst, n, err := appendRows(ctx, dst, room)
		if err != nil {
			err = streamErr(err)
		}
		return dst, n, err
	}
	for {
		n, err := sink.Fill(fill)
		if err != nil || n == 0 {
			return err
		}
	}
}

// logSources emits one line of per-site stream metrics for a completed
// (or torn-down) streamed query. Spill counters are settled by then:
// the result stream has closed before this runs.
func (s *Server) logSources(sql string, m *executor.Metrics) {
	if s.Logf == nil || m == nil || len(m.Sources) == 0 {
		return
	}
	var b strings.Builder
	for _, src := range m.Sources {
		fmt.Fprintf(&b, " [%s rows=%d batches=%d first_row=%s]", src.Site, src.Rows, src.Batches, src.FirstRow)
	}
	s.Logf("fedserver: query sources: bypass=%v shipped=%d spill_runs=%d spilled_bytes=%d%s sql=%q",
		m.ScratchBypassed, m.RowsShipped, m.SpillRuns, m.SpilledBytes, b.String(), sql)
}

func (s *Server) txn(id uint64) (*gtm.Txn, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[id]
	return t, ok
}

func (s *Server) take(id uint64) (*gtm.Txn, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[id]
	delete(s.txns, id)
	return t, ok
}

// stripStrategy interprets an optional "simple:" / "cost:" prefix on
// wire SQL, letting clients override the federation's default strategy
// per query.
func stripStrategy(sql string, def core.Strategy) (string, core.Strategy) {
	lower := strings.ToLower(sql)
	switch {
	case strings.HasPrefix(lower, "simple:"):
		return sql[len("simple:"):], core.StrategySimple
	case strings.HasPrefix(lower, "cost:"):
		return sql[len("cost:"):], core.StrategyCostBased
	default:
		return sql, def
	}
}

func textResult(col, text string) *schema.ResultSet {
	rs := &schema.ResultSet{Columns: []string{col}}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		rs.Rows = append(rs.Rows, schema.Row{value.NewText(line)})
	}
	return rs
}

func (s *Server) renderCatalog() string {
	var b strings.Builder
	cat := s.fed.Catalog()
	fmt.Fprintf(&b, "federation %s\n", cat.Federation())
	for _, site := range s.fed.Sites() {
		fmt.Fprintf(&b, "site %s\n", site)
		for _, sc := range cat.SiteExports(site) {
			fmt.Fprintf(&b, "  export %s\n", sc)
		}
	}
	for _, name := range cat.IntegratedNames() {
		def, _ := cat.Integrated(name)
		fmt.Fprintf(&b, "integrated %s [%s]\n", def.Schema(), def.Combine)
		for _, src := range def.Sources {
			fmt.Fprintf(&b, "  from %s.%s", src.Site, src.Export)
			if src.Filter != "" {
				fmt.Fprintf(&b, " where %s", src.Filter)
			}
			b.WriteByte('\n')
		}
		for col, fn := range def.Resolvers {
			fmt.Fprintf(&b, "  resolve %s with %s\n", col, fn)
		}
	}
	return b.String()
}
