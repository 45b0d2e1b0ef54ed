package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/word"
)

// startBenchNode serves the tiny one-method image from a pool of the
// given width, so the benchmarks measure the request path — routing,
// decode, pool hand-off, encode — rather than the interpreter.
func startBenchNode(b *testing.B, workers int) *node.Node {
	b.Helper()
	return startNode(b, doubleSnapshot(b), nil, node.Config{Pool: serve.Config{Workers: workers, GCEvery: -1, Timeout: 10 * time.Second}})
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
// transport, with callers goroutines sharing one MuxClient. depth=1 is
// the synchronous round trip (one frame each way per op, two syscalls of
// latency); depth=64 keeps 64 sends in flight, so framing cost is
// measured with the syscalls amortised away; mux-depth=32 is the
// router's shape. writes/send is the share of a client write syscall
// each send pays once concurrent sends coalesce. The 0-alloc assertion
// in CI covers client and server loops together, since both run in this
// process.
func BenchmarkBinarySend(b *testing.B) {
	req := serve.Request{Receiver: word.FromInt(21), Selector: "double"}
	for _, bc := range []struct {
		name    string
		callers int
	}{{"depth=1", 1}, {"depth=64", 64}, {"mux-depth=32", 32}} {
		b.Run(bc.name, func(b *testing.B) {
			conn, err := net.Dial("tcp", startBenchNode(b, 1).BinaryAddr())
			if err != nil {
				b.Fatal(err)
			}
			wc := &countingConn{Conn: conn}
			m, err := obwire.NewMuxClient(wc)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			// One warm round trip populates the selector cache and the
			// per-connection buffers on both sides.
			if r, err := m.Do(req); err != nil || !r.OK() {
				b.Fatalf("warm send: %v %v", r, err)
			}
			// The callers start parked, so spawning them is not measured.
			var next atomic.Int64
			var wg sync.WaitGroup
			start := make(chan struct{})
			for g := 0; g < bc.callers; g++ {
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
}

// BenchmarkHTTPSend measures one tiny send through the full HTTP stack:
// net/http, the encoding/json codec in internal/httpwire, and the pool
// hand-off. Set against BenchmarkBinarySend/depth=1 it prices the HTTP
// wire; it is informational and not gated.
func BenchmarkHTTPSend(b *testing.B) {
	client := &http.Client{}
	const body = `{"receiver": 21, "selector": "double"}`
	target := url(startBenchNode(b, 1)) + "/send"
	// One warm request to populate connection and selector caches.
	resp, err := client.Post(target, "application/json", strings.NewReader(body))
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
		resp, err := client.Post(target, "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// BenchmarkHTTPBatch measures POST /batch: each op is one HTTP round trip
// carrying batch tiny sends, so ns/send is the per-send cost once the
// HTTP wire is amortised across the batch. It is informational and not
// gated.
func BenchmarkHTTPBatch(b *testing.B) {
	for _, batch := range []int{16, 64} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("batch=%d/workers=%d", batch, workers), func(b *testing.B) {
				client := &http.Client{}
				body := "[" + strings.Repeat(`{"receiver": 21, "selector": "double"},`, batch-1) + `{"receiver": 21, "selector": "double"}]`
				target := url(startBenchNode(b, workers)) + "/batch"
				post := func() {
					resp, err := client.Post(target, "application/json", strings.NewReader(body))
					if err != nil {
						b.Fatal(err)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("status %d", resp.StatusCode)
					}
				}
				post() // warm the connection and selector caches
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					post()
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/send")
			})
		}
	}
}
