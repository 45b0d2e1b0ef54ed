package obwire

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/word"
)

// TestMuxConcurrentSends hammers one shared connection from many
// goroutines: every send must come back with its own answer (receiver+1
// on the fixture image), which pins the FIFO waiter matching — a single
// crossed response would fail a checksum. Run under -race this is also
// the mux write-path data-race check.
func TestMuxConcurrentSends(t *testing.T) {
	s, _ := startServer(t, serve.Config{Workers: 2, Timeout: 30 * time.Second}, Options{})
	m, err := DialMux(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const goroutines, sends = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < sends; i++ {
				recv := int32(g*1000 + i)
				resp, err := m.Do(serve.Request{Receiver: word.FromInt(recv), Selector: "answer"})
				if err != nil {
					t.Errorf("goroutine %d send %d: %v", g, i, err)
					return
				}
				if !resp.OK() {
					t.Errorf("goroutine %d send %d: status %d: %s", g, i, resp.Status, resp.Err)
					return
				}
				if v, ok := resp.Value.IntOK(); !ok || v != recv+1 {
					t.Errorf("goroutine %d send %d: got %v, want %d (responses crossed)", g, i, resp.Value, recv+1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMuxPing proves the ping frame round-trips through the server's
// ordered write loop — interleaved with real sends — and ticks the
// server's ping counter without touching the frame counters.
func TestMuxPing(t *testing.T) {
	s, _ := startServer(t, serve.Config{Workers: 1, Timeout: 30 * time.Second}, Options{})
	m, err := DialMux(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Each send is followed by a ping: the server's writer counts a
	// response only after writing it, so the last pong, written after
	// that count, is what makes the counters below final.
	for i := 0; i < 3; i++ {
		resp, err := m.Do(serve.Request{Receiver: word.FromInt(int32(i)), Selector: "answer"})
		if err != nil || !resp.OK() {
			t.Fatalf("send %d: %v (status %d)", i, err, resp.Status)
		}
		if depth, notReady, err := m.Ping(time.Second); err != nil || depth != 0 || notReady != "" {
			t.Fatalf("ping %d: depth %d, reason %q, %v; want an idle, ready pool", i, depth, notReady, err)
		}
	}
	st := s.Stats()
	if st.Pings != 3 {
		t.Errorf("pings = %d, want 3", st.Pings)
	}
	if st.FramesIn != 3 || st.FramesOut != 3 {
		t.Errorf("frames in/out = %d/%d, want 3/3 (pings must not count as frames)", st.FramesIn, st.FramesOut)
	}
}

// TestMuxRefusalsInBand pins that a pool refusal arrives as an in-band
// status on the mux client, not a connection error: the connection
// stays usable afterwards.
func TestMuxRefusalsInBand(t *testing.T) {
	s, _ := startServer(t, serve.Config{Workers: 1, MaxInFlight: -1, Timeout: 30 * time.Second}, Options{})
	m, err := DialMux(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	resp, err := m.Do(serve.Request{Receiver: word.FromInt(1), Selector: "answer"})
	if err != nil {
		t.Fatalf("refused send must not error the connection: %v", err)
	}
	if resp.Status != StatusOverloaded {
		t.Fatalf("status = %d, want %d (maintenance mode refuses everything)", resp.Status, StatusOverloaded)
	}
	if _, _, err := m.Ping(time.Second); err != nil {
		t.Fatalf("connection unusable after in-band refusal: %v", err)
	}
}

// TestMuxDeadConnectionFailsFast kills the server side mid-flight and
// asserts every parked caller is drained with ErrClientClosed and later
// sends fail fast instead of hanging.
func TestMuxDeadConnectionFailsFast(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	m, err := DialMux(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srvConn := <-accepted

	const parked = 4
	var wg sync.WaitGroup
	errs := make([]error, parked)
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = m.Do(serve.Request{Receiver: word.FromInt(1), Selector: "answer"})
		}(i)
	}
	// Give the senders a moment to park, then hang up on them.
	time.Sleep(50 * time.Millisecond)
	srvConn.Close()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrClientClosed) {
			t.Errorf("parked send %d: err = %v, want ErrClientClosed", i, err)
		}
	}
	if _, err := m.Do(serve.Request{Receiver: word.FromInt(1), Selector: "answer"}); !errors.Is(err, ErrClientClosed) {
		t.Errorf("post-mortem send: err = %v, want fast ErrClientClosed", err)
	}
}

// TestMuxPingTimeout points a ping at a server that accepts but never
// answers: the deadline must fire, kill the connection, and surface an
// error rather than hanging the prober.
func TestMuxPingTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			defer c.Close()
			time.Sleep(5 * time.Second) // never answer
		}
	}()
	m, err := DialMux(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	start := time.Now()
	if _, _, err := m.Ping(100 * time.Millisecond); err == nil {
		t.Fatal("ping against a mute server returned nil")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("ping took %v to fail, want ~100ms", elapsed)
	}
}

// writeCounter counts the Write calls a MuxClient makes on its
// connection: one per syscall's worth of frames.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (w *writeCounter) Write(b []byte) (int, error) {
	w.writes.Add(1)
	return w.Conn.Write(b)
}

func dialCounted(t *testing.T, addr string) (*MuxClient, *writeCounter) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wc := &writeCounter{Conn: c}
	m, err := NewMuxClient(wc)
	if err != nil {
		t.Fatal(err)
	}
	return m, wc
}

// TestMuxCoalescesBursts pins the burst write: with 32 callers sharing
// one connection on one P, the first appender of each burst yields and
// the others' frames ride its flush, so the connection sees several
// times fewer writes than sends — and every answer still matches its
// caller.
func TestMuxCoalescesBursts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, _ := startServer(t, serve.Config{Workers: 2, Timeout: 30 * time.Second}, Options{})
	m, wc := dialCounted(t, s.Addr().String())
	defer m.Close()

	const goroutines, sends = 32, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < sends; i++ {
				recv := int32(g*1000 + i)
				resp, err := m.Do(serve.Request{Receiver: word.FromInt(recv), Selector: "answer"})
				if err != nil {
					t.Errorf("goroutine %d send %d: %v", g, i, err)
					return
				}
				if v, ok := resp.Value.IntOK(); !resp.OK() || !ok || v != recv+1 {
					t.Errorf("goroutine %d send %d: status %d value %v, want %d", g, i, resp.Status, resp.Value, recv+1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	total, writes := int64(goroutines*sends), wc.writes.Load()
	t.Logf("%d sends in %d writes (%.1f sends/write)", total, writes, float64(total)/float64(writes))
	if writes*4 > total {
		t.Errorf("%d writes for %d sends, want at most %d (a quarter)", writes, total, total/4)
	}
}

// TestMuxLoneSendWritesOnce pins that coalescing costs a lone caller
// nothing: with nothing else in flight a send is flushed at once, in
// exactly one write, and only then does Do wait for the answer.
func TestMuxLoneSendWritesOnce(t *testing.T) {
	s, _ := startServer(t, serve.Config{Workers: 1, Timeout: 30 * time.Second}, Options{})
	m, wc := dialCounted(t, s.Addr().String())
	defer m.Close()

	for i := 0; i < 10; i++ {
		before := wc.writes.Load()
		resp, err := m.Do(serve.Request{Receiver: word.FromInt(int32(i)), Selector: "answer"})
		if err != nil || !resp.OK() {
			t.Fatalf("send %d: %v (status %d)", i, err, resp.Status)
		}
		if n := wc.writes.Load() - before; n != 1 {
			t.Fatalf("send %d: %d writes, want exactly 1", i, n)
		}
	}
}

// TestMuxCloseWhileFlusherYields closes the client mid-burst, over and
// over, with pings mixed into the send stream. On one P the closer gets
// to run while a burst's flusher is yielding; whenever it lands, every
// parked caller must be answered with ErrClientClosed and none may hang.
func TestMuxCloseWhileFlusherYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, _ := startServer(t, serve.Config{Workers: 2, Timeout: 30 * time.Second}, Options{})

	for round := 0; round < 20; round++ {
		m, err := DialMux(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		const goroutines = 32
		var done atomic.Int64
		started := make(chan struct{})
		var once sync.Once
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					var err error
					if (g+i)%5 == 0 {
						_, _, err = m.Ping(10 * time.Second)
					} else {
						var resp Response
						recv := int32(g*100000 + i)
						resp, err = m.Do(serve.Request{Receiver: word.FromInt(recv), Selector: "answer"})
						if v, _ := resp.Value.IntOK(); err == nil && (!resp.OK() || v != recv+1) {
							t.Errorf("goroutine %d send %d: status %d value %v, want %d", g, i, resp.Status, resp.Value, recv+1)
							return
						}
					}
					if err != nil {
						if !errors.Is(err, ErrClientClosed) {
							t.Errorf("goroutine %d op %d: err = %v, want ErrClientClosed", g, i, err)
						}
						return
					}
					if done.Add(1) >= int64(50+round*40) {
						once.Do(func() { close(started) })
					}
				}
			}(g)
		}
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: callers stalled before the close", round)
		}
		m.Close()
		finished := make(chan struct{})
		go func() {
			wg.Wait()
			close(finished)
		}()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: callers still parked 10s after Close", round)
		}
	}
}
