package obwire

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/word"
)

// withProcs runs the rest of the test at n Ps — one is how obbench and a
// node on a one-vCPU host run — and restores GOMAXPROCS when it ends.
// Pools record their P count at NewPool, so it must run before the
// test's pools are built.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// countingListener counts the server's writes: it wraps each connection
// it hands out in a writeCounter and keeps the last one.
type countingListener struct {
	net.Listener
	last atomic.Pointer[writeCounter]
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	wc := &writeCounter{Conn: c}
	l.last.Store(wc)
	return wc, nil
}

// sendBurst buffers n answer sends on c, keyed by turns with keys (none:
// keyless), and answers the value each should come back with, in
// request order.
func sendBurst(c *rawConn, n int, keys ...uint64) []int32 {
	want := make([]int32, n)
	for i := range want {
		req := serve.Request{Receiver: word.FromInt(int32(c.next % 1000)), Selector: "answer"}
		if len(keys) > 0 {
			req.Key = keys[i%len(keys)]
		}
		c.send(req)
		want[i] = req.Receiver.Int() + 1
	}
	return want
}

// recvInOrder reads one answer per entry of want and requires each to
// carry the next id after first and its wanted value.
func recvInOrder(t *testing.T, c *rawConn, first uint64, want []int32) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	defer c.SetReadDeadline(time.Time{})
	for i, w := range want {
		r, pong, err := c.recv()
		if err != nil {
			t.Fatalf("answer %d of %d: %v", i, len(want), err)
		}
		if pong || r.ID != first+uint64(i) || !r.OK() || r.Value.Int() != w {
			t.Fatalf("answer %d: %+v (pong %v), want id %d value %d", i, r, pong, first+uint64(i), w)
		}
	}
}

// TestOnePBurstInline: at one P, a 32-frame burst written in one write
// to an idle two-worker pool is answered by the connection's reader, in
// order, in one write — no frame is handed to a worker that could only
// run once the reader stopped.
func TestOnePBurstInline(t *testing.T) {
	withProcs(t, 1)
	pool := serve.NewPool(answerSnapshot(t, 1), serve.Config{Workers: 2})
	defer pool.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: l}
	s := Serve(cl, pool, Options{})
	defer s.Shutdown(context.Background())
	c := dialRaw(t, s.Addr().String())

	// A first, larger burst grows the connection's buffers to full size,
	// so the measured burst lands in one read.
	first := c.next
	want := sendBurst(c, 128)
	c.flush(t)
	recvInOrder(t, c, first, want)

	const burst = 32
	wc := cl.last.Load()
	inline, writes := s.Stats().FramesInline, wc.writes.Load()
	first = c.next
	want = sendBurst(c, burst)
	c.flush(t)
	recvInOrder(t, c, first, want)
	if n := s.Stats().FramesInline - inline; n != burst {
		t.Errorf("frames_inline grew by %d over the burst, want %d", n, burst)
	}
	if n := wc.writes.Load() - writes; n != 1 {
		t.Errorf("the server answered the burst in %d writes, want 1", n)
	}
}

// TestAnswersNeverWaitOnPartialFrame writes a burst followed by the
// first half of one more frame, and requires every answer of the burst
// before it sends the second half: a reader that answers frames itself
// flushes before it blocks on a read, and a writer flushes when its
// pipeline runs dry.
func TestAnswersNeverWaitOnPartialFrame(t *testing.T) {
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("procs=%d/workers=%d", procs, workers), func(t *testing.T) {
				withProcs(t, procs)
				s, _ := startServer(t, serve.Config{Workers: workers}, Options{})
				c := dialRaw(t, s.Addr().String())
				const burst = 8
				want := sendBurst(c, burst)
				half := len(c.out)
				want = append(want, sendBurst(c, 1)...)
				half += (len(c.out) - half) / 2
				tail := append([]byte(nil), c.out[half:]...)
				c.out = c.out[:half]
				c.flush(t)
				recvInOrder(t, c, 0, want[:burst])
				c.out = append(c.out, tail...)
				c.flush(t)
				recvInOrder(t, c, burst, want[burst:])
				if st := s.Stats(); st.FramesIn != burst+1 || st.FramesOut != burst+1 {
					t.Errorf("stats %+v, want %d frames in and out", st, burst+1)
				}
			})
		}
	}
}

// TestOnePBurstYieldsToHeldShard: at one P, bursts keyed to shards 0 and
// 1 by turns while live captures and rotations keep taking shard 0's
// lock. A frame that finds its shard held falls back to the queue, the
// frames behind it follow it there even when their own shard is idle,
// and every answer still comes back in order.
func TestOnePBurstYieldsToHeldShard(t *testing.T) {
	withProcs(t, 1)
	s, pool := startServer(t, serve.Config{Workers: 2, QueueDepth: 64, Timeout: 30 * time.Second}, Options{})
	c := dialRaw(t, s.Addr().String())

	stop := make(chan struct{})
	var captures, rotations atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := pool.SnapshotLive()
			if err != nil {
				t.Errorf("live capture: %v", err)
				return
			}
			captures.Add(1)
			if err := pool.Rotate(snap); err != nil {
				t.Errorf("rotate: %v", err)
				return
			}
			rotations.Add(1)
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	const burst = 32
	deadline := time.Now().Add(10 * time.Second)
	for bursts := 0; ; bursts++ {
		st := s.Stats()
		if bursts >= 8 && st.FramesInline > 0 && st.FramesInline < st.FramesIn && rotations.Load() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d bursts, %d captures and %d rotations: stats %+v, want frames both inline and queued",
				bursts, captures.Load(), rotations.Load(), st)
		}
		first := c.next
		want := sendBurst(c, burst, 2, 1) // shard 0, shard 1, ...
		c.flush(t)
		recvInOrder(t, c, first, want)
	}
}

// TestOnePDecodeSpanExcludesWait: at one P the reader starts a frame's
// decode at the reading that ended the previous answer's encode only
// while that frame was already buffered. A send and a ping written
// together, then a send written after a wait: the ping is buffered
// behind the first answer, but the last send is not, so its decode span
// must not take in the wait.
func TestOnePDecodeSpanExcludesWait(t *testing.T) {
	withProcs(t, 1)
	var dec, enc stats.ConcurrentHistogram
	s, _ := startServer(t, serve.Config{Workers: 1}, Options{DecodeLat: &dec, EncodeLat: &enc})
	c := dialRaw(t, s.Addr().String())
	want := sendBurst(c, 1)
	c.ping(pingBase)
	c.flush(t)
	recvInOrder(t, c, 0, want)
	if r, pong, err := c.recv(); err != nil || !pong || r.ID != pingBase {
		t.Fatalf("pong: %+v (pong %v), %v", r, pong, err)
	}
	const wait = 200 * time.Millisecond
	time.Sleep(wait)
	want = sendBurst(c, 1)
	c.flush(t)
	recvInOrder(t, c, 1, want)
	if h := dec.Snapshot(); h.Count() != 2 || h.CumulativeLE(int64(wait/2)) != 2 {
		t.Fatalf("decode spans: %d samples, %d under %v; want 2 and 2", h.Count(), h.CumulativeLE(int64(wait/2)), wait/2)
	}
}
