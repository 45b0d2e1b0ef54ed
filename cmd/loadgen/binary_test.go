// Lane coverage on both wires against real nodes: frame statuses coming
// back over obwire land in the retry/pushback counters at both depths
// (depth-1 sends retried, pipelined lanes counted in-band), and HTTP
// lanes run the same loop.
package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
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

// testClient is one client replaying a one-program suite (answer 5 → 6)
// on pipeline lanes, feeding c.
func testClient(pipeline, rounds, retries int, c *binCounters) *client {
	return &client{
		pipeline: pipeline,
		retries:  retries,
		rounds:   rounds,
		programs: []httpwire.ProgramInfo{{Name: "answer", Entry: "answer", Size: 5, Warm: 5, Check: 6}},
		rng:      rand.New(rand.NewPCG(1, 2)),
		rt:       retryer{base: time.Microsecond, c: &c.refusals, posts: &c.posts},
		record:   func(time.Duration) { c.recorded.Add(1) },
		sent:     &c.sent, failed: &c.failed, keyed: &c.keyed,
	}
}

// TestBinaryRunPipelined is the happy path: a pipelined run validates
// every checksum, counts every frame, and records every latency, with
// the pushback counters untouched.
func TestBinaryRunPipelined(t *testing.T) {
	addr := startNode(t, serve.Config{Workers: 1, Timeout: 10 * time.Second}).BinaryAddr()
	var c binCounters
	testClient(3, 8, 0, &c).runBinary(addr)

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

// TestHTTPLanesPipelined runs three lanes over HTTP against a real node:
// the same loop as the binary lanes, every checksum valid, every send
// one POST /send.
func TestHTTPLanesPipelined(t *testing.T) {
	const rounds = 8
	n := startNode(t, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	// Three lanes can leave a dialed connection that never carried a
	// request; the node's drain waits on such a connection for seconds
	// unless the client hangs it up first.
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	var c binCounters
	cl := testClient(3, rounds, 3, &c)
	cl.programs = append(cl.programs, httpwire.ProgramInfo{Name: "answer41", Entry: "answer", Size: 41, Warm: 41, Check: 42})
	cl.run(httpSender("http://" + n.Addr()))

	want := int64(rounds * len(cl.programs))
	if sent, posts := c.sent.Load(), c.posts.Load(); sent != want || posts != want {
		t.Errorf("sent %d, posts %d, want both %d", sent, posts, want)
	}
	if got := c.failed.Load(); got != 0 {
		t.Errorf("failed %d, want 0 (every checksum valid)", got)
	}
	if got := c.recorded.Load(); got != want {
		t.Errorf("recorded %d latencies, want %d", got, want)
	}
	if got := int64(n.Pool().Metrics().Requests); got != want {
		t.Errorf("node served %d requests, want %d", got, want)
	}
}

// TestBinaryOverloadRetryPath drives a depth-1 send against closed
// admission: every StatusOverloaded frame must land in the rejected
// counter and burn a retry, exactly as a 429 does over HTTP.
func TestBinaryOverloadRetryPath(t *testing.T) {
	addr := startNode(t, serve.Config{Workers: 1, MaxInFlight: -1, Timeout: 10 * time.Second}).BinaryAddr()
	var c binCounters
	testClient(1, 1, 2, &c).runBinary(addr)

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
	testClient(4, 6, 3, &c).runBinary(addr)

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

// loadgenGoroutines counts live goroutines running a loadgen client:
// its lanes and, over obwire, the MuxClient's reader.
func loadgenGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "loadgen.(*client).lane(") || strings.Contains(g, "(*MuxClient).readLoop") {
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
	cl := testClient(lanes, rounds, 0, &c)
	// The first latency is recorded on a lane while the run is in flight:
	// no lane can exit before every send has been handed out, so the leak
	// check below must see all of them here, or it proves nothing.
	var inFlight int
	record := cl.record
	cl.record = func(d time.Duration) {
		if c.recorded.Load() == 0 {
			inFlight = loadgenGoroutines()
		}
		record(d)
	}
	cl.runBinary(front)
	if inFlight < lanes {
		t.Errorf("counted %d client goroutines mid-run, want at least %d lanes", inFlight, lanes)
	}

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
	rt := &retryer{base: 8 * time.Millisecond, rng: rng, c: &refusalCounters{}, posts: &atomic.Int64{}}
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

// TestClassifyStatus pins the one classifier both wires share: overload
// and shed count by frame status, a transport error counts as such, and
// those three are retryable; everything else is a real failure and stays
// unclassified.
func TestClassifyStatus(t *testing.T) {
	var c refusalCounters
	for _, tc := range []struct {
		status uint8
		err    error
		retry  bool
	}{
		{obwire.StatusOverloaded, nil, true},
		{obwire.StatusShed, nil, true},
		{obwire.StatusShed, nil, true},
		{obwire.StatusMachineError, nil, false},
		{obwire.StatusOK, nil, false},
		{obwire.StatusOK, io.ErrUnexpectedEOF, true},
	} {
		if got := c.refused(tc.status, tc.err); got != tc.retry {
			t.Errorf("refused(%d, %v) = %v, want %v", tc.status, tc.err, got, tc.retry)
		}
	}
	if got := c.rejected.Load(); got != 1 {
		t.Errorf("rejected %d, want 1", got)
	}
	if got := c.shed.Load(); got != 2 {
		t.Errorf("shed %d, want 2", got)
	}
	if got := c.transport.Load(); got != 1 {
		t.Errorf("transport %d, want 1", got)
	}
	if got := c.retries.Load(); got != 0 {
		t.Errorf("retries %d, want 0 (classifying takes no retry)", got)
	}
}
