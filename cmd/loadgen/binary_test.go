// Refusal round-trip coverage for the binary transport: frame statuses
// coming back over obwire must land in the same retry/pushback counters
// the HTTP path feeds at both depths — synchronous sends driven through
// the retryer, and pipelined lanes counted in-band.
package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/httpwire"
	"repro/internal/node"
	"repro/internal/obwire"
	"repro/internal/serve"
)

// startNode runs a real node on loopback listeners over a one-method
// image (answer = self + 1) and drains it when t ends.
func startNode(t *testing.T, cfg serve.Config) *node.Node {
	t.Helper()
	sys := obarch.NewSystem(obarch.Options{})
	if err := sys.Load(`extend SmallInt [ method answer [ ^self + 1 ] ]`); err != nil {
		t.Fatalf("load: %v", err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	n, err := node.New(snap, nil, node.BootInfo{}, node.Config{Pool: cfg, Addr: "127.0.0.1:0", BinaryAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		n.Shutdown(ctx)
	})
	return n
}

// binCounters is one test run's worth of the shared counters main wires
// into every client goroutine.
type binCounters struct {
	sent, posts, failed, keyed atomic.Int64
	refusals                   refusalCounters
	recorded                   atomic.Int64
}

func testBinRun(addr string, pipeline, rounds, retries int, c *binCounters) binRun {
	rng := rand.New(rand.NewPCG(1, 2))
	return binRun{
		id:       0,
		addr:     addr,
		pipeline: pipeline,
		rounds:   rounds,
		programs: []httpwire.ProgramInfo{{Name: "answer", Entry: "answer", Size: 5, Warm: 5, Check: 6}},
		rng:      rng,
		rt:       &retryer{max: retries, base: time.Microsecond, rng: rng, c: &c.refusals, posts: &c.posts},
		record:   func(time.Duration) { c.recorded.Add(1) },
		sent:     &c.sent, posts: &c.posts, failed: &c.failed, keyed: &c.keyed,
		refusals: &c.refusals,
	}
}

// TestBinaryRunPipelined is the happy path: a pipelined run validates
// every checksum, counts every frame, and records every latency, with
// the pushback counters untouched.
func TestBinaryRunPipelined(t *testing.T) {
	addr := startNode(t, serve.Config{Workers: 1, Timeout: 10 * time.Second}).BinaryAddr()
	var c binCounters
	testBinRun(addr, 3, 8, 0, &c).run()

	if got := c.sent.Load(); got != 8 {
		t.Errorf("sent %d, want 8", got)
	}
	if got := c.posts.Load(); got != 8 {
		t.Errorf("frames %d, want 8", got)
	}
	if got := c.failed.Load(); got != 0 {
		t.Errorf("failed %d, want 0", got)
	}
	if got := c.recorded.Load(); got != 8 {
		t.Errorf("recorded %d latencies, want 8", got)
	}
	if v := c.refusals.rejected.Load() + c.refusals.shed.Load() + c.refusals.transport.Load() + c.refusals.retries.Load(); v != 0 {
		t.Errorf("pushback counters moved on a clean run: %+v", &c.refusals)
	}
}

// TestBinaryOverloadRetryPath drives a depth-1 send against closed
// admission: every StatusOverloaded frame must land in the rejected
// counter and burn a retry, exactly as a 429 does over HTTP.
func TestBinaryOverloadRetryPath(t *testing.T) {
	addr := startNode(t, serve.Config{Workers: 1, MaxInFlight: -1, Timeout: 10 * time.Second}).BinaryAddr()
	var c binCounters
	testBinRun(addr, 1, 1, 2, &c).run()

	if got := c.refusals.rejected.Load(); got != 3 {
		t.Errorf("rejected %d, want 3 (first attempt + 2 retries)", got)
	}
	if got := c.refusals.retries.Load(); got != 2 {
		t.Errorf("retries %d, want 2", got)
	}
	if got := c.posts.Load(); got != 3 {
		t.Errorf("frames %d, want 3", got)
	}
	if got, want := c.sent.Load(), int64(1); got != want {
		t.Errorf("sent %d, want %d", got, want)
	}
	if got := c.failed.Load(); got != 1 {
		t.Errorf("failed %d, want 1 (budget exhausted)", got)
	}
	if got := c.refusals.shed.Load() + c.refusals.transport.Load(); got != 0 {
		t.Errorf("refusals misclassified: shed+transport = %d, want 0", got)
	}
}

// TestBinaryOverloadPipelined drives a pipelined window against closed
// admission: refusals arrive in-band, are classified by frame status,
// and are never retried — the batch-mode contract on the binary wire.
func TestBinaryOverloadPipelined(t *testing.T) {
	addr := startNode(t, serve.Config{Workers: 1, MaxInFlight: -1, Timeout: 10 * time.Second}).BinaryAddr()
	var c binCounters
	testBinRun(addr, 4, 6, 3, &c).run()

	if got := c.sent.Load(); got != 6 {
		t.Errorf("sent %d, want 6", got)
	}
	if got := c.refusals.rejected.Load(); got != 6 {
		t.Errorf("rejected %d, want 6 (every send refused in-band)", got)
	}
	if got := c.refusals.retries.Load(); got != 0 {
		t.Errorf("retries %d, want 0 (pipelined refusals are not retried)", got)
	}
	if got := c.failed.Load(); got != 6 {
		t.Errorf("failed %d, want 6", got)
	}
}

// cutFirstConn listens in front of the obwire server at addr. It hangs
// up the first connection as soon as n frames have arrived on it, and
// relays every later connection to addr. It answers its own address and
// a count of the connections it accepted.
func cutFirstConn(t *testing.T, addr string, n int) (string, *atomic.Int64) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var accepted atomic.Int64
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			if accepted.Add(1) == 1 {
				go func() {
					defer c.Close()
					br := bufio.NewReader(c)
					io.CopyN(io.Discard, br, int64(len(obwire.Magic)))
					var hdr [4]byte
					for range n {
						if _, err := io.ReadFull(br, hdr[:]); err != nil {
							return
						}
						io.CopyN(io.Discard, br, int64(binary.LittleEndian.Uint32(hdr[:])))
					}
				}()
				continue
			}
			up, err := net.Dial("tcp", addr)
			if err != nil {
				c.Close()
				continue
			}
			go func() { io.Copy(up, c); up.Close() }()
			go func() { io.Copy(c, up); c.Close() }()
		}
	}()
	return l.Addr().String(), &accepted
}

// loadgenGoroutines counts live goroutines running loadgen's binary
// client: its lanes and the MuxClient's reader.
func loadgenGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "main.binRun.") || strings.Contains(g, "(*MuxClient).readLoop") {
			n++
		}
	}
	return n
}

// TestBinaryLanesRedialOnce kills the shared connection under four
// pipelined lanes, each with its frame in flight. Each lane loses its
// own send, every send is counted exactly once, the lanes redial once
// between them rather than once each, and no goroutine of the client
// outlives run.
func TestBinaryLanesRedialOnce(t *testing.T) {
	const lanes, rounds = 4, 40
	n := startNode(t, serve.Config{Workers: 1, Timeout: 10 * time.Second})
	front, accepted := cutFirstConn(t, n.BinaryAddr(), lanes)
	var c binCounters
	testBinRun(front, lanes, rounds, 0, &c).run()

	ok := int64(n.Pool().Metrics().Requests)
	if sent, failed := c.sent.Load(), c.failed.Load(); sent != rounds || sent != ok+failed {
		t.Errorf("sent %d, ok %d, failed %d: want sent %d == ok + failed", sent, ok, failed, rounds)
	}
	if got := c.failed.Load(); got != lanes {
		t.Errorf("failed %d, want %d (one in-flight send per lane)", got, lanes)
	}
	if got := c.refusals.transport.Load(); got != lanes {
		t.Errorf("transport failures %d, want %d", got, lanes)
	}
	if got := c.recorded.Load(); got != rounds {
		t.Errorf("recorded %d latencies, want %d", got, rounds)
	}
	if got := accepted.Load(); got != 2 {
		t.Errorf("%d connections dialed, want 2 (the lanes redial once between them)", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for loadgenGoroutines() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d client goroutines outlived run", loadgenGoroutines())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBinClientRedialBackoff pins the reconnect pacing: the first dial
// goes straight out, every attempt after a failure waits out the capped
// exponential ladder first, and one success resets the schedule — so a
// client facing a restarting server never spins a tight connect loop.
func TestBinClientRedialBackoff(t *testing.T) {
	var dials, sleeps int
	var slept []time.Duration
	alive := false
	bc := &binClient{
		addr: "test",
		dial: func(string) (*obwire.MuxClient, error) {
			dials++
			if !alive {
				return nil, context.DeadlineExceeded
			}
			return &obwire.MuxClient{}, nil // never used: conn only stores it
		},
		delay: func(fails int) time.Duration {
			d := time.Millisecond << (fails - 1)
			if d > 10*time.Millisecond {
				d = 10 * time.Millisecond
			}
			return d
		},
		sleep: func(d time.Duration) { sleeps++; slept = append(slept, d) },
	}

	// First dial: immediate, no sleep.
	if _, err := bc.conn(); err == nil {
		t.Fatal("dial against a dead server succeeded")
	}
	if dials != 1 || sleeps != 0 {
		t.Fatalf("first attempt: dials=%d sleeps=%d, want 1/0", dials, sleeps)
	}
	// Failures 2..5: each waits the ladder first, doubling then capping.
	for i := 0; i < 4; i++ {
		bc.conn()
	}
	want := []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond}
	if len(slept) != 4 {
		t.Fatalf("slept %d times, want 4", len(slept))
	}
	for i, d := range want {
		if slept[i] != d {
			t.Errorf("backoff %d = %v, want %v", i, slept[i], d)
		}
	}
	// Recovery: one successful dial resets the ladder...
	alive = true
	if _, err := bc.conn(); err != nil {
		t.Fatalf("dial after recovery: %v", err)
	}
	if bc.fails != 0 {
		t.Fatalf("fails = %d after success, want 0", bc.fails)
	}
	// ...so the next failure starts from an immediate dial again.
	alive, bc.c = false, nil
	sleeps = 0
	bc.conn()
	if sleeps != 0 {
		t.Fatal("first dial after a success slept; ladder was not reset")
	}
}

// TestBinClientSharesRetryerLadder pins that the production wiring
// paces redials off the retryer's own backoffDelay — one schedule for
// refused sends and dead connections alike.
func TestBinClientSharesRetryerLadder(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	rt := &retryer{max: 0, base: 8 * time.Millisecond, rng: rng, c: &refusalCounters{}, posts: &atomic.Int64{}}
	bc := newBinClient("127.0.0.1:1", rt)
	for fails := 1; fails <= 12; fails++ {
		ceil := 8 * time.Millisecond << (fails - 1)
		if ceil > time.Second || ceil <= 0 {
			ceil = time.Second
		}
		for i := 0; i < 50; i++ {
			if d := bc.delay(fails); d <= 0 || d > ceil {
				t.Fatalf("fails=%d: delay %v outside (0, %v]", fails, d, ceil)
			}
		}
	}
}

// TestClassifyStatus pins the frame-status half of the classification
// contract: overload and shed count by kind, everything else is a real
// failure and stays unclassified.
func TestClassifyStatus(t *testing.T) {
	var c refusalCounters
	c.classifyStatus(obwire.StatusOverloaded)
	c.classifyStatus(obwire.StatusShed)
	c.classifyStatus(obwire.StatusShed)
	c.classifyStatus(obwire.StatusMachineError)
	c.classifyStatus(obwire.StatusOK)
	if got := c.rejected.Load(); got != 1 {
		t.Errorf("rejected %d, want 1", got)
	}
	if got := c.shed.Load(); got != 2 {
		t.Errorf("shed %d, want 2", got)
	}
	if got := c.transport.Load() + c.retries.Load(); got != 0 {
		t.Errorf("transport+retries = %d, want 0", got)
	}
}
