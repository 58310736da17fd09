// Package fedclient is the client library for a myriadd federation
// server: global queries, global transactions, schema browsing and
// definition over the comm protocol.
package fedclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"myriad/internal/comm"
	"myriad/internal/fedserver"
	"myriad/internal/schema"
)

// ErrDeadlockAbort mirrors the server-side timeout abort across the
// wire.
var ErrDeadlockAbort = errors.New("fedclient: global transaction aborted (timeout, presumed deadlock)")

// ErrWounded mirrors a server-side deadlock-victim abort across the
// wire: the transaction lost a deadlock to an older transaction and
// was aborted everywhere; retrying it is the expected response.
var ErrWounded = errors.New("fedclient: global transaction wounded (deadlock victim)")

// Client talks to one federation server.
type Client struct {
	c *comm.Client
}

// Dial connects to a myriadd at addr.
func Dial(addr string, poolSize int) *Client {
	return &Client{c: comm.Dial(addr, poolSize)}
}

// Close releases the connection pool.
func (cl *Client) Close() error { return cl.c.Close() }

func (cl *Client) do(ctx context.Context, req *comm.Request) (*comm.Response, error) {
	resp, err := cl.c.Do(ctx, req)
	if err == nil {
		err = resp.AsError()
	}
	if err != nil {
		return nil, mapWireErr(err)
	}
	return resp, nil
}

// Ping checks liveness.
func (cl *Client) Ping(ctx context.Context) error {
	_, err := cl.do(ctx, &comm.Request{Op: comm.OpPing})
	return err
}

// Query poses a global SELECT (autocommit). The result travels over
// the streaming frame protocol and is materialized client-side.
func (cl *Client) Query(ctx context.Context, sql string) (*schema.ResultSet, error) {
	return cl.query(ctx, 0, sql)
}

// QueryStream poses a global SELECT (autocommit) and returns the
// result as a row stream: the federation ships residual rows in wire
// batches as it produces them. The caller must Close the stream;
// closing early cancels the remaining result.
func (cl *Client) QueryStream(ctx context.Context, sql string) (schema.RowStream, error) {
	return cl.queryStream(ctx, 0, sql)
}

// queryStream poses a global SELECT inside global transaction txn (0 =
// autocommit); queries only ever travel as frame streams.
func (cl *Client) queryStream(ctx context.Context, txn uint64, sql string) (schema.RowStream, error) {
	st, err := cl.c.DoStream(ctx, &comm.Request{Op: comm.OpQuery, TxnID: txn, SQL: sql})
	if err != nil {
		return nil, mapWireErr(err)
	}
	return st.AsRowStream(mapWireErr), nil
}

// query is queryStream materialized client-side.
func (cl *Client) query(ctx context.Context, txn uint64, sql string) (*schema.ResultSet, error) {
	rows, err := cl.queryStream(ctx, txn, sql)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	return schema.DrainStream(ctx, rows)
}

// mapWireErr surfaces server-reported timeouts as deadlock aborts and
// wounds as ErrWounded, on the Response and the stream path alike.
func mapWireErr(err error) error {
	if errors.Is(err, comm.TimeoutError) {
		return fmt.Errorf("%w: %v", ErrDeadlockAbort, err)
	}
	if errors.Is(err, comm.WoundedError) {
		return fmt.Errorf("%w: %v", ErrWounded, err)
	}
	return err
}

// Explain renders the plan (prefix sql with "simple:" for the simple
// strategy).
func (cl *Client) Explain(ctx context.Context, sql string) (string, error) {
	resp, err := cl.do(ctx, &comm.Request{Op: comm.OpExplain, SQL: sql})
	if err != nil {
		return "", err
	}
	return resultText(resp.Rows), nil
}

// Catalog renders the federation catalog.
func (cl *Client) Catalog(ctx context.Context) (string, error) {
	resp, err := cl.do(ctx, &comm.Request{Op: comm.OpCatalog})
	if err != nil {
		return "", err
	}
	return resultText(resp.Rows), nil
}

// IntegratedSchemas lists the federation's integrated relations.
func (cl *Client) IntegratedSchemas(ctx context.Context) ([]*schema.Schema, error) {
	resp, err := cl.do(ctx, &comm.Request{Op: comm.OpSchema})
	if err != nil {
		return nil, err
	}
	return resp.Schemas, nil
}

// Define installs an integrated relation on the federation.
func (cl *Client) Define(ctx context.Context, def *fedserver.IntegratedDefJSON) error {
	payload, err := json.Marshal(def)
	if err != nil {
		return err
	}
	_, err = cl.do(ctx, &comm.Request{Op: comm.OpDefine, SQL: string(payload)})
	return err
}

// Drop removes an integrated relation from the federation.
func (cl *Client) Drop(ctx context.Context, name string) error {
	_, err := cl.do(ctx, &comm.Request{Op: comm.OpDrop, Table: name})
	return err
}

// Txn is a client-side handle on a server-side global transaction.
type Txn struct {
	cl *Client
	id uint64
}

// Begin opens a global transaction.
func (cl *Client) Begin(ctx context.Context) (*Txn, error) {
	resp, err := cl.do(ctx, &comm.Request{Op: comm.OpBegin})
	if err != nil {
		return nil, err
	}
	return &Txn{cl: cl, id: resp.TxnID}, nil
}

// ID returns the global transaction id.
func (t *Txn) ID() uint64 { return t.id }

// Query poses a global SELECT inside the transaction, over the same
// frame stream as an autocommit Query.
func (t *Txn) Query(ctx context.Context, sql string) (*schema.ResultSet, error) {
	return t.cl.query(ctx, t.id, sql)
}

// ExecSite runs DML at one component site inside the transaction.
func (t *Txn) ExecSite(ctx context.Context, site, sql string) (int, error) {
	resp, err := t.cl.do(ctx, &comm.Request{Op: comm.OpExecAt, TxnID: t.id, Table: site, SQL: sql})
	if err != nil {
		return 0, err
	}
	return resp.Affected, nil
}

// Commit runs two-phase commit.
func (t *Txn) Commit(ctx context.Context) error {
	_, err := t.cl.do(ctx, &comm.Request{Op: comm.OpCommit, TxnID: t.id})
	return err
}

// Abort rolls the transaction back.
func (t *Txn) Abort(ctx context.Context) error {
	_, err := t.cl.do(ctx, &comm.Request{Op: comm.OpAbort, TxnID: t.id})
	return err
}

// AliveAfter reports whether the transaction is still usable after err:
// a timeout (presumed global deadlock) or a deadlock wound aborts it
// server-side.
func (t *Txn) AliveAfter(err error) bool {
	return !errors.Is(err, ErrDeadlockAbort) && !errors.Is(err, ErrWounded)
}

func resultText(rs *schema.ResultSet) string {
	if rs == nil {
		return ""
	}
	var b strings.Builder
	for i, r := range rs.Rows {
		if i > 0 {
			b.WriteByte('\n')
		}
		if len(r) > 0 {
			b.WriteString(r[0].Text())
		}
	}
	return b.String()
}
