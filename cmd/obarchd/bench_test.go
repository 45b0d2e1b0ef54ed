package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/word"
	"repro/internal/workload"
)

// benchServer stands up the HTTP face over a tiny one-method image so the
// benchmark measures the HTTP request path — routing, decode, pool
// hand-off, encode — rather than the interpreter.
func benchServer(b *testing.B, fast bool) (*httptest.Server, *serve.Pool) {
	b.Helper()
	sys := obarch.NewSystem(obarch.Options{})
	if err := sys.Load(`extend SmallInt [ method double [ ^self + self ] ]`); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.SendInt(21, "double"); err != nil {
		b.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	pool := serve.NewPool(snap, serve.Config{Workers: 1, GCEvery: -1, Timeout: 10 * time.Second})
	h := newServer(pool, []workload.Program{}, snap, "")
	h.fast = fast
	return httptest.NewServer(h), pool
}

// binaryServer stands up the obwire listener over the same tiny image
// and answers its address; everything is torn down when b ends.
func binaryServer(b *testing.B) string {
	b.Helper()
	sys := obarch.NewSystem(obarch.Options{})
	if err := sys.Load(`extend SmallInt [ method double [ ^self + self ] ]`); err != nil {
		b.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	pool := serve.NewPool(snap, serve.Config{Workers: 1, GCEvery: -1, Timeout: 10 * time.Second})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	s := obwire.Serve(l, pool, obwire.Options{})
	b.Cleanup(func() {
		s.Shutdown(context.Background())
		pool.Close()
	})
	return l.Addr().String()
}

// countingConn counts the Write calls made on a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (w *countingConn) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return w.Conn.Write(p)
}

// BenchmarkBinarySend measures the same tiny send over the obwire binary
// transport: depth=1 is the synchronous round trip (one frame each way
// per op, two syscalls of latency), depth=64 keeps a pipeline window
// full so framing cost is measured with the syscalls amortised away. The
// delta against BenchmarkHTTPSend/codec=fast is the net/http tax; the
// 0-alloc assertion in CI covers client and server loops together,
// since both run in this process. mux-depth=32 is the router's shape:
// 32 goroutines sharing one MuxClient, with writes/send the share of a
// client write syscall each send pays once concurrent sends coalesce.
func BenchmarkBinarySend(b *testing.B) {
	req := serve.Request{Receiver: word.FromInt(21), Selector: "double"}
	for _, depth := range []int{1, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			c, err := obwire.Dial(binaryServer(b))
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()

			// One warm round trip populates the selector cache and the
			// per-connection buffers on both sides.
			if r, err := c.Do(req); err != nil || !r.OK() {
				b.Fatalf("warm send: %v %v", r, err)
			}
			check := func(r obwire.Response, err error) {
				if err != nil || r.Status != obwire.StatusOK {
					b.Fatalf("send: %v %v", r, err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			if depth == 1 {
				for i := 0; i < b.N; i++ {
					r, err := c.Do(req)
					check(r, err)
				}
				return
			}
			for i := 0; i < b.N; i++ {
				if _, err := c.Send(req); err != nil {
					b.Fatal(err)
				}
				for c.InFlight() >= depth {
					r, err := c.Recv()
					check(r, err)
				}
			}
			for c.InFlight() > 0 {
				r, err := c.Recv()
				check(r, err)
			}
		})
	}
	b.Run("mux-depth=32", func(b *testing.B) {
		const callers = 32
		conn, err := net.Dial("tcp", binaryServer(b))
		if err != nil {
			b.Fatal(err)
		}
		wc := &countingConn{Conn: conn}
		m, err := obwire.NewMuxClient(wc)
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		if r, err := m.Do(req); err != nil || !r.OK() {
			b.Fatalf("warm send: %v %v", r, err)
		}
		// The callers start parked, so spawning them is not measured.
		var next atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for next.Add(1) <= int64(b.N) {
					if r, err := m.Do(req); err != nil || r.Status != obwire.StatusOK {
						b.Errorf("send: %v %v", r, err)
						return
					}
				}
			}()
		}
		writes := wc.writes.Load()
		b.ReportAllocs()
		b.ResetTimer()
		close(start)
		wg.Wait()
		b.StopTimer()
		b.ReportMetric(float64(wc.writes.Load()-writes)/float64(b.N), "writes/send")
	})
}

// BenchmarkHTTPSend measures one tiny send through the full HTTP stack,
// with the pooled hand-written codec against the encoding/json fallback.
// The delta between the sub-benches is what the fast lane saves per
// request in decoder reflection, buffer churn and encoder allocation.
func BenchmarkHTTPSend(b *testing.B) {
	for _, mode := range []struct {
		name string
		fast bool
	}{{"fast", true}, {"json", false}} {
		b.Run("codec="+mode.name, func(b *testing.B) {
			ts, pool := benchServer(b, mode.fast)
			defer pool.Close()
			defer ts.Close()
			client := ts.Client()
			const body = `{"receiver": 21, "selector": "double"}`
			url := ts.URL + "/send"
			// One warm request to populate connection and selector caches.
			resp, err := client.Post(url, "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("warm request status %d", resp.StatusCode)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Post(url, "application/json", strings.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		})
	}
}
