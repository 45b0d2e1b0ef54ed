package obwire

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/word"
)

// stallingServer starts a two-worker server whose pool sleeps for stall
// before every every-th execution on a shard, and warms the shard that
// answers key 1 so that its next execution stalls. It returns the pool
// held (Pool.Quiesce), so the first frame sent with key 1 queues however
// many Ps run the test; the caller releases the pool once the server has
// read that frame. Its execution stalls on the shard's worker, and every
// later frame queues behind it, because the connection has a frame
// outstanding. The shard's queue holds every frame up to the next stall.
func stallingServer(t *testing.T, every int, stall time.Duration) (*Server, serve.Request, func()) {
	t.Helper()
	s, pool := startServer(t, serve.Config{Workers: 2, QueueDepth: every, Timeout: 30 * time.Second,
		Faults: &serve.Faults{StallEvery: every, Stall: stall}}, Options{})
	req := serve.Request{Receiver: word.FromInt(1), Selector: "answer", Key: 1}
	for i := 1; i < every; i++ {
		if res := pool.Do(req); res.Err != nil {
			t.Fatalf("warm-up send %d: %v", i, res.Err)
		}
	}
	return s, req, pool.Quiesce()
}

// waitFramesIn waits until the server has read at least n request
// frames, failing once the deadline passes.
func waitFramesIn(t *testing.T, s *Server, n uint64, deadline time.Time) {
	t.Helper()
	for s.Stats().FramesIn < n {
		if time.Now().After(deadline) {
			t.Fatalf("the server read %d of %d frames", s.Stats().FramesIn, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMuxWindowFull grows a MuxClient to exactly DefaultWindow sends in
// flight behind a stalled execution. The next Do and the next Ping are
// each refused with ErrWindowFull; once the stall lifts, every caller
// gets its own answer and the connection still serves.
func TestMuxWindowFull(t *testing.T) {
	const stall = 3 * time.Second
	s, req, release := stallingServer(t, 2*DefaultWindow, stall)
	m, err := DialMux(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < DefaultWindow; i++ {
		wg.Add(1)
		go func(recv int32) {
			defer wg.Done()
			r := req
			r.Receiver = word.FromInt(recv)
			if resp, err := m.Do(r); err != nil || !resp.OK() || resp.Value.Int() != recv+1 {
				t.Errorf("send %d: %+v, %v; want %d", recv, resp, err, recv+1)
			}
		}(int32(i))
	}
	// A waiter is queued before its frame is written, and the server
	// answers nothing while the first frame it read is stalled: once it
	// has read DefaultWindow frames, exactly DefaultWindow are in flight.
	waitFramesIn(t, s, 1, start.Add(stall))
	release()
	waitFramesIn(t, s, DefaultWindow, start.Add(stall))
	if _, err := m.Do(req); !errors.Is(err, ErrWindowFull) {
		t.Errorf("send into a full window: err = %v, want ErrWindowFull", err)
	}
	if _, _, err := m.Ping(time.Second); !errors.Is(err, ErrWindowFull) {
		t.Errorf("ping into a full window: err = %v, want ErrWindowFull", err)
	}
	if elapsed := time.Since(start); elapsed >= stall {
		t.Fatalf("the window was refused %v in, after the %v stall had lifted", elapsed, stall)
	}
	wg.Wait()
	if r, err := m.Do(req); err != nil || !r.OK() || r.Value.Int() != 2 {
		t.Fatalf("send after the stall: %+v, %v; want 2", r, err)
	}
}

// TestServerWindowFull pipelines DefaultWindow+16 frames on one raw
// connection behind a stalled execution. The server's reader stops at
// its window until the stall lifts: it has read DefaultWindow+2 frames —
// the stalled one, whose answer the writer awaits, DefaultWindow queued
// behind it, and the one the reader decoded and is parked with — and no
// more. Then every frame is answered, in order.
func TestServerWindowFull(t *testing.T) {
	const stall, extra = 2 * time.Second, 16
	s, req, release := stallingServer(t, 2*DefaultWindow, stall)
	c := dialRaw(t, s.Addr().String())
	start := time.Now()
	for i := 0; i < DefaultWindow+extra; i++ {
		r := req
		r.Receiver = word.FromInt(int32(i))
		c.send(r)
	}
	c.flush(t)
	waitFramesIn(t, s, 1, start.Add(stall))
	release()

	const capped = DefaultWindow + 2
	waitFramesIn(t, s, capped, start.Add(stall))
	// Only the absence of further reads is left to see; give the reader
	// time it would use to read on.
	time.Sleep(200 * time.Millisecond)
	if n := s.Stats().FramesIn; n != capped {
		t.Fatalf("the server read %d frames behind the stall, want %d", n, capped)
	}
	if elapsed := time.Since(start); elapsed >= stall {
		t.Fatalf("the reader was checked %v in, after the %v stall had lifted", elapsed, stall)
	}
	for i := 0; i < DefaultWindow+extra; i++ {
		r, pong, err := c.recv()
		if err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		if pong || r.ID != uint64(i) || !r.OK() || r.Value.Int() != int32(i)+1 {
			t.Fatalf("answer %d: %+v (pong %v), want id %d value %d", i, r, pong, i, i+1)
		}
	}
	if n := s.Stats().FramesIn; n != DefaultWindow+extra {
		t.Fatalf("the server read %d frames in all, want %d", n, DefaultWindow+extra)
	}
}
