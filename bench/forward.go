package main

import (
	"net"
	"sync"
	"sync/atomic"
)

// forwarder is a counting TCP relay placed between DialGateway and a
// site during the traced run: toClient is the bytes the site sent back,
// which over the rows of a drained stream gives wire_bytes_per_row.
type forwarder struct {
	ln       net.Listener
	target   string
	toClient atomic.Int64
	wg       sync.WaitGroup
	mu       sync.Mutex
	closed   bool
	conns    []net.Conn
}

func newForwarder(target string) (*forwarder, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &forwarder{ln: ln, target: target}
	f.wg.Add(1)
	go f.accept()
	return f, nil
}

func (f *forwarder) addr() string { return f.ln.Addr().String() }

func (f *forwarder) accept() {
	defer f.wg.Done()
	for {
		down, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		up, err := net.Dial("tcp", f.target)
		if err != nil {
			down.Close()
			continue
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			down.Close()
			up.Close()
			return
		}
		f.conns = append(f.conns, down, up)
		f.mu.Unlock()
		f.wg.Add(2)
		go f.pipe(up, down, nil)
		go f.pipe(down, up, &f.toClient)
	}
}

// pipe copies src to dst until either side closes, then closes both so
// the opposite pipe ends too.
func (f *forwarder) pipe(dst, src net.Conn, count *atomic.Int64) {
	defer f.wg.Done()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if count != nil {
				count.Add(int64(n))
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
}

// close stops accepting, closes every relayed connection and waits for
// the relay goroutines to exit.
func (f *forwarder) close() {
	f.ln.Close()
	f.mu.Lock()
	f.closed = true
	for _, c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}
