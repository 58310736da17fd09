package gateway

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"myriad/internal/comm"
	"myriad/internal/schema"
	"myriad/internal/storage"
)

// Conn is the federation's view of a component site. Two
// implementations exist: LocalConn calls the gateway in-process (used by
// tests and the E6 transport baseline) and RemoteConn speaks the comm
// protocol over TCP (the deployment the paper describes).
type Conn interface {
	Site() string
	ExportSchemas(ctx context.Context) ([]*schema.Schema, error)
	Stats(ctx context.Context, export string) (*storage.TableStats, error)
	// Explain renders the access path the site's engine would choose
	// for a canonical SELECT (per base relation: heap / hash probe /
	// ordered range / pk point, with selectivity estimates). Planning
	// only; nothing executes at the site.
	Explain(ctx context.Context, sql string) (string, error)
	// QueryStream runs a canonical SELECT (inside branch txn, or
	// autocommit when txn is 0) and returns the result as a row stream:
	// batches pipeline from the site while the federation consumes, and
	// closing the stream early terminates the remote scan.
	QueryStream(ctx context.Context, txn uint64, sql string) (schema.RowStream, error)
	Exec(ctx context.Context, txn uint64, sql string) (int, error)
	// Begin opens a transaction branch on behalf of global transaction
	// gid (0 = no global transaction). The site tags the branch's locks
	// with the gid so its waits-for edges carry the branch→global
	// mapping the coordinator's deadlock detector stitches on.
	Begin(ctx context.Context, gid uint64) (uint64, error)
	Prepare(ctx context.Context, txn uint64) error
	Commit(ctx context.Context, txn uint64) error
	Abort(ctx context.Context, txn uint64) error
	// WaitGraph snapshots the site's live lock waits-for edges.
	WaitGraph(ctx context.Context) ([]comm.WaitEdge, error)
	Close() error
}

// LocalConn adapts a Gateway to the Conn interface without a wire.
type LocalConn struct {
	G *Gateway
}

var _ Conn = (*LocalConn)(nil)

// Site returns the gateway's site name.
func (c *LocalConn) Site() string { return c.G.Site() }

// ExportSchemas lists the gateway's export relations.
func (c *LocalConn) ExportSchemas(ctx context.Context) ([]*schema.Schema, error) {
	return c.G.ExportSchemas()
}

// Stats fetches optimizer statistics for an export.
func (c *LocalConn) Stats(ctx context.Context, export string) (*storage.TableStats, error) {
	return c.G.Stats(export)
}

// Explain renders the site engine's chosen access paths for sql.
func (c *LocalConn) Explain(ctx context.Context, sql string) (string, error) {
	return c.G.Explain(ctx, sql)
}

// QueryStream runs a canonical SELECT at the site, streaming rows
// straight from the gateway's iterator pipeline (no wire, no copy).
func (c *LocalConn) QueryStream(ctx context.Context, txn uint64, sql string) (schema.RowStream, error) {
	return c.G.QueryStream(ctx, txn, sql)
}

// Exec runs canonical DML at the site.
func (c *LocalConn) Exec(ctx context.Context, txn uint64, sql string) (int, error) {
	return c.G.Exec(ctx, txn, sql)
}

// Begin opens a transaction branch for global transaction gid.
func (c *LocalConn) Begin(ctx context.Context, gid uint64) (uint64, error) {
	return c.G.Begin(ctx, gid)
}

// WaitGraph snapshots the site's live lock waits-for edges.
func (c *LocalConn) WaitGraph(ctx context.Context) ([]comm.WaitEdge, error) {
	return c.G.WaitGraph(), nil
}

// Prepare votes in 2PC phase one.
func (c *LocalConn) Prepare(ctx context.Context, txn uint64) error { return c.G.Prepare(ctx, txn) }

// Commit applies 2PC phase two.
func (c *LocalConn) Commit(ctx context.Context, txn uint64) error { return c.G.Commit(ctx, txn) }

// Abort rolls the branch back.
func (c *LocalConn) Abort(ctx context.Context, txn uint64) error { return c.G.Abort(ctx, txn) }

// Close is a no-op for in-process connections.
func (c *LocalConn) Close() error { return nil }

// RemoteConn speaks the gateway protocol over TCP.
type RemoteConn struct {
	site   string
	client *comm.Client
}

var _ Conn = (*RemoteConn)(nil)

// DialRemote connects to a gatewayd at addr with a connection pool.
func DialRemote(site, addr string, poolSize int) *RemoteConn {
	return &RemoteConn{site: site, client: comm.Dial(addr, poolSize)}
}

// Site returns the remote site's name.
func (c *RemoteConn) Site() string { return c.site }

func (c *RemoteConn) do(ctx context.Context, req *comm.Request) (*comm.Response, error) {
	resp, err := c.client.Do(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("gateway %s: %w", c.site, err)
	}
	if err := resp.AsError(); err != nil {
		return nil, c.wireErr(err)
	}
	return resp, nil
}

// wireErr maps a wire-level error into the gateway error vocabulary,
// surfacing remote timeouts as ErrTimeout (presumed global deadlock)
// and remote wounds as ErrWounded (chosen deadlock victim).
func (c *RemoteConn) wireErr(err error) error {
	if errors.Is(err, comm.TimeoutError) {
		return fmt.Errorf("%w: site %s: %v", ErrTimeout, c.site, err)
	}
	if errors.Is(err, comm.WoundedError) {
		return fmt.Errorf("%w: site %s: %v", ErrWounded, c.site, err)
	}
	return fmt.Errorf("gateway %s: %w", c.site, err)
}

// ExportSchemas lists the remote gateway's export relations.
func (c *RemoteConn) ExportSchemas(ctx context.Context) ([]*schema.Schema, error) {
	resp, err := c.do(ctx, &comm.Request{Op: comm.OpSchema})
	if err != nil {
		return nil, err
	}
	return resp.Schemas, nil
}

// Stats fetches optimizer statistics for an export.
func (c *RemoteConn) Stats(ctx context.Context, export string) (*storage.TableStats, error) {
	resp, err := c.do(ctx, &comm.Request{Op: comm.OpStats, Table: export})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// Explain asks the remote gateway for its engine's chosen access
// paths (one text row per base relation, joined back into lines).
func (c *RemoteConn) Explain(ctx context.Context, sql string) (string, error) {
	resp, err := c.do(ctx, &comm.Request{Op: comm.OpExplain, SQL: sql})
	if err != nil {
		return "", err
	}
	var lines []string
	if resp.Rows != nil {
		for _, r := range resp.Rows.Rows {
			if len(r) > 0 {
				lines = append(lines, r[0].Text())
			}
		}
	}
	return strings.Join(lines, "\n"), nil
}

// QueryStream runs a canonical SELECT at the remote site over the
// streaming frame protocol: the gateway pipelines row batches as its
// scan produces them, and closing the returned stream before exhaustion
// half-closes the connection, which tears the remote scan down.
func (c *RemoteConn) QueryStream(ctx context.Context, txn uint64, sql string) (schema.RowStream, error) {
	st, err := c.client.DoStream(ctx, &comm.Request{Op: comm.OpQuery, TxnID: txn, SQL: sql})
	if err != nil {
		return nil, c.wireErr(err)
	}
	return st.AsRowStream(c.wireErr), nil
}

// Exec runs canonical DML at the remote site.
func (c *RemoteConn) Exec(ctx context.Context, txn uint64, sql string) (int, error) {
	resp, err := c.do(ctx, &comm.Request{Op: comm.OpExec, TxnID: txn, SQL: sql})
	if err != nil {
		return 0, err
	}
	return resp.Affected, nil
}

// Begin opens a transaction branch at the remote site on behalf of
// global transaction gid.
func (c *RemoteConn) Begin(ctx context.Context, gid uint64) (uint64, error) {
	resp, err := c.do(ctx, &comm.Request{Op: comm.OpBegin, GID: gid})
	if err != nil {
		return 0, err
	}
	return resp.TxnID, nil
}

// WaitGraph snapshots the remote site's live lock waits-for edges.
func (c *RemoteConn) WaitGraph(ctx context.Context) ([]comm.WaitEdge, error) {
	resp, err := c.do(ctx, &comm.Request{Op: comm.OpWaitGraph})
	if err != nil {
		return nil, err
	}
	return resp.Waits, nil
}

// Prepare votes in 2PC phase one.
func (c *RemoteConn) Prepare(ctx context.Context, txn uint64) error {
	_, err := c.do(ctx, &comm.Request{Op: comm.OpPrepare, TxnID: txn})
	return err
}

// Commit applies 2PC phase two.
func (c *RemoteConn) Commit(ctx context.Context, txn uint64) error {
	_, err := c.do(ctx, &comm.Request{Op: comm.OpCommit, TxnID: txn})
	return err
}

// Abort rolls the branch back.
func (c *RemoteConn) Abort(ctx context.Context, txn uint64) error {
	_, err := c.do(ctx, &comm.Request{Op: comm.OpAbort, TxnID: txn})
	return err
}

// Close tears down the connection pool.
func (c *RemoteConn) Close() error { return c.client.Close() }
