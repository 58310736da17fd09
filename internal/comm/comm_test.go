package comm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"myriad/internal/schema"
	"myriad/internal/value"
)

// echoHandler answers ping, echoes SQL back as a one-cell result, and
// simulates slow queries and timeouts.
type echoHandler struct{}

func (echoHandler) Handle(ctx context.Context, req *Request) *Response {
	switch req.Op {
	case OpPing:
		return &Response{}
	case OpQuery:
		if req.SQL == "slow" {
			select {
			case <-time.After(2 * time.Second):
			case <-ctx.Done():
				return &Response{Err: "query timed out", Kind: ErrTimeout}
			}
		}
		return &Response{Rows: &schema.ResultSet{
			Columns: []string{"echo"},
			Rows:    []schema.Row{{value.NewText(req.SQL)}},
		}}
	case OpExec:
		return &Response{Affected: len(req.SQL)}
	default:
		return &Response{Err: fmt.Sprintf("bad op %q", req.Op), Kind: ErrGeneric}
	}
}

func startServer(t *testing.T) (string, *Server) {
	t.Helper()
	srv := NewServer(echoHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	return addr, srv
}

func TestRequestResponse(t *testing.T) {
	addr, _ := startServer(t)
	c := Dial(addr, 2)
	defer c.Close()

	resp, err := c.Do(context.Background(), &Request{Op: OpQuery, SQL: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.AsError(); err != nil {
		t.Fatal(err)
	}
	if resp.Rows.Rows[0][0].Text() != "hello" {
		t.Errorf("echo = %v", resp.Rows.Rows[0][0])
	}

	resp, err = c.Do(context.Background(), &Request{Op: OpExec, SQL: "12345"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Affected != 5 {
		t.Errorf("affected = %d", resp.Affected)
	}
}

func TestErrorKinds(t *testing.T) {
	addr, _ := startServer(t)
	c := Dial(addr, 1)
	defer c.Close()

	resp, err := c.Do(context.Background(), &Request{Op: "nope"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.AsError() == nil {
		t.Error("generic error lost")
	}

	// Server-side timeout surfaces as TimeoutError.
	resp, err = c.Do(context.Background(), &Request{Op: OpQuery, SQL: "slow", TimeoutMs: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.AsError(), TimeoutError) {
		t.Errorf("want TimeoutError, got %v", resp.AsError())
	}
}

func TestContextDeadlinePropagates(t *testing.T) {
	addr, _ := startServer(t)
	c := Dial(addr, 1)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	resp, err := c.Do(ctx, &Request{Op: OpQuery, SQL: "slow"})
	elapsed := time.Since(start)
	if err != nil {
		// Socket deadline fired; acceptable but should be fast.
		if elapsed > time.Second {
			t.Fatalf("deadline not enforced: %v", elapsed)
		}
		return
	}
	if !errors.Is(resp.AsError(), TimeoutError) {
		t.Errorf("want timeout, got %v after %v", resp.AsError(), elapsed)
	}
	if elapsed > time.Second {
		t.Errorf("timeout enforcement took %v", elapsed)
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, _ := startServer(t)
	c := Dial(addr, 4)
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sql := fmt.Sprintf("msg-%d", i)
			resp, err := c.Do(context.Background(), &Request{Op: OpQuery, SQL: sql})
			if err != nil {
				errs <- err
				return
			}
			if got := resp.Rows.Rows[0][0].Text(); got != sql {
				errs <- fmt.Errorf("response mismatch: %q != %q (cross-talk?)", got, sql)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestValuesSurviveWire(t *testing.T) {
	addr, _ := startServer(t)
	c := Dial(addr, 1)
	defer c.Close()
	// Round-trip a string containing every tricky character class.
	payload := "nul=\x01 quote=' unicode=héllo 漢字 tab=\t"
	resp, err := c.Do(context.Background(), &Request{Op: OpQuery, SQL: payload})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Rows.Rows[0][0].Text(); got != payload {
		t.Errorf("payload corrupted: %q", got)
	}
}

func TestServerClose(t *testing.T) {
	srv := NewServer(echoHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(addr, 1)
	if _, err := c.Do(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	c.Close()

	// New connections fail after close.
	c2 := Dial(addr, 1)
	defer c2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := c2.Do(ctx, &Request{Op: OpPing}); err == nil {
		t.Error("request succeeded after server close")
	}
}

// TestCloseCancelsParkedHandler: a handler blocked inside the engine —
// here the "slow" query with no timeout, standing in for a statement
// parked on a lock — must not hold Close hostage: the server cancels
// in-flight request contexts so shutdown (and the crash harness's
// kill -9 simulation) returns promptly.
func TestCloseCancelsParkedHandler(t *testing.T) {
	srv := NewServer(echoHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(addr, 1)
	defer c.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(context.Background(), &Request{Op: OpQuery, SQL: "slow"}) //nolint:errcheck
	}()
	time.Sleep(50 * time.Millisecond) // let the request park server-side
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Close blocked %v behind a parked handler", elapsed)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("parked request never returned after server close")
	}
}

func TestDialLazyAndBrokenConnRecovery(t *testing.T) {
	// Dialing a dead address fails only at Do time.
	c := Dial("127.0.0.1:1", 1)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := c.Do(ctx, &Request{Op: OpPing}); err == nil {
		t.Error("Do against dead address succeeded")
	}
	// The pool slot is returned; a later Do against a live server works.
	addr, _ := startServer(t)
	c2 := Dial(addr, 1)
	defer c2.Close()
	if _, err := c2.Do(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
}
