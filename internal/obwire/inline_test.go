package obwire

import (
	"context"
	"errors"
	"math/rand/v2"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/word"
	"repro/internal/workload"
)

// pingBase keeps the ping ids the ordering test writes apart from the
// send ids rawConn allocates.
const pingBase = 1 << 40

// wireItem is one answer the ordering test expects, in wire order: a
// response to send id with value want, or a pong to ping id.
type wireItem struct {
	id   uint64
	want int32
	ping bool
}

// TestInlineLaneOrdering mixes lone sends (which an idle pool runs on
// the connection's reader), bursts of 64 flushed in ragged pieces (which
// mostly take the pipelined path, with lone arrivals landing while
// earlier frames are still outstanding), bursts of 128 — over 6 KiB of
// frames, more than the connection's 4 KiB buffers, flushed in pieces
// that often straddle them — and pings on one connection, and requires
// every answer back in request order with the right value.
func TestInlineLaneOrdering(t *testing.T) {
	for _, workers := range []int{1, 2} {
		s, _ := startServer(t, serve.Config{Workers: workers, QueueDepth: 256, Timeout: 30 * time.Second}, Options{})
		c := dialRaw(t, s.Addr().String())
		rng := rand.New(rand.NewPCG(uint64(workers), 14))
		var want []wireItem
		send := func() {
			v := int32(rng.IntN(1000))
			id := c.send(serve.Request{Receiver: word.FromInt(v), Selector: "answer"})
			want = append(want, wireItem{id: id, want: v + 1})
		}
		ping := func() {
			id := pingBase + uint64(len(want))
			c.ping(id)
			want = append(want, wireItem{id: id, ping: true})
		}
		check := func() {
			c.flush(t)
			for _, w := range want {
				r, pong, err := c.recv()
				if err != nil {
					t.Fatalf("workers=%d: read: %v", workers, err)
				}
				if pong != w.ping || r.ID != w.id {
					t.Fatalf("workers=%d: got frame id %d (pong %v), want %+v", workers, r.ID, pong, w)
				}
				if !w.ping && (!r.OK() || r.Value.Int() != w.want) {
					t.Fatalf("workers=%d: send %d answered %+v, want %d", workers, w.id, r, w.want)
				}
			}
			want = want[:0]
		}
		burst := func(frames, ragged int) {
			for i := 0; i < frames; i++ {
				send()
				if i%16 == 7 {
					ping()
				}
				if rng.IntN(ragged) == 0 {
					c.flush(t)
				}
			}
		}
		for round := 0; round < 80; round++ {
			switch round % 4 {
			case 0:
				send()
			case 1:
				ping()
			case 2:
				burst(64, 6)
			default:
				burst(128, 48)
			}
			check()
		}
		c.Close()
		st := s.Stats()
		if workers == 1 && st.FramesInline == 0 {
			t.Errorf("workers=1: no frame took the inline lane (stats %+v)", st)
		}
	}
}

// TestInlineLaneLoneSend pins where a lone send into an idle one-worker
// pool runs: on the reader, counted in frames_inline, and recorded in
// the shard's flight ring as exec_start with no enqueue or dispatch.
func TestInlineLaneLoneSend(t *testing.T) {
	s, pool := startServer(t, serve.Config{Workers: 1}, Options{})
	c, err := DialMux(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Do(serve.Request{Receiver: word.FromInt(4), Selector: "answer"})
	if err != nil || !r.OK() || r.Value.Int() != 5 {
		t.Fatalf("answer: %+v, %v", r, err)
	}
	if st := s.Stats(); st.FramesIn != 1 || st.FramesInline != 1 {
		t.Fatalf("stats %+v, want frames_in 1, frames_inline 1", st)
	}
	kinds := map[flight.Kind]int{}
	for _, ev := range pool.FlightRecorder().Ring(0).Snapshot(nil) {
		kinds[ev.Kind]++
	}
	if kinds[flight.KindExecStart] != 1 || kinds[flight.KindEnqueue] != 0 || kinds[flight.KindDispatch] != 0 {
		t.Fatalf("flight events %v, want one exec_start and no enqueue or dispatch", kinds)
	}
}

// TestSpansOnePerFrame pins the transport spans on both paths: every
// request frame leaves exactly one DecodeLat and one EncodeLat sample,
// whether the reader ran it inline or the writer answered it after the
// pool's queue — the stage boundaries share clock readings with the pool,
// and with one P a burst the reader answers itself shares one reading
// between each answer's encode and the next frame's decode, but no span
// is dropped or counted twice.
func TestSpansOnePerFrame(t *testing.T) {
	var dec, enc stats.ConcurrentHistogram
	s, pool := startServer(t, serve.Config{Workers: 1, QueueDepth: 64}, Options{DecodeLat: &dec, EncodeLat: &enc})
	c := dialRaw(t, s.Addr().String())
	req := serve.Request{Receiver: word.FromInt(4), Selector: "answer"}
	recv := func(n int) {
		for i := 0; i < n; i++ {
			if r, _, err := c.recv(); err != nil || !r.OK() || r.Value.Int() != 5 {
				t.Fatalf("answer %d: %+v, %v", i, r, err)
			}
		}
	}
	// A lone frame on an idle connection runs inline.
	c.send(req)
	c.flush(t)
	recv(1)
	if st := s.Stats(); st.FramesInline != 1 {
		t.Fatalf("stats %+v, want the lone frame inline", st)
	}
	// Frames written in one go while the pool is held queue, however
	// many Ps run the test: the first finds its shard busy, and the rest
	// find a frame outstanding ahead of them.
	const burst = 8
	burstOf := func() {
		for i := 0; i < burst; i++ {
			c.send(req)
		}
		c.flush(t)
	}
	release := pool.Quiesce()
	burstOf()
	waitFramesIn(t, s, 1+burst, time.Now().Add(5*time.Second))
	release()
	recv(burst)
	if st := s.Stats(); st.FramesInline != 1 {
		t.Fatalf("a burst frame ran inline on a held pool (stats %+v)", st)
	}
	// The same burst into an idle pool: with one P the reader answers
	// every frame itself; with two, a frame with others buffered behind
	// it or outstanding ahead of it queues.
	burstOf()
	recv(burst)
	frames := uint64(1 + 2*burst)
	if st := s.Stats(); st.FramesIn != frames || st.FramesOut != frames {
		t.Fatalf("stats %+v, want %d frames in and out", st, frames)
	}
	// An encode sample lands just after its answer is flushed, so the
	// last one may trail the client's read by a moment.
	for wait := time.Now().Add(5 * time.Second); time.Now().Before(wait); time.Sleep(time.Millisecond) {
		if e := enc.Snapshot(); e.Count() >= frames {
			break
		}
	}
	if d, e := dec.Snapshot(), enc.Snapshot(); d.Count() != frames || e.Count() != frames {
		t.Fatalf("decode samples %d, encode samples %d, want %d each", d.Count(), e.Count(), frames)
	}
}

// TestInlineLaneKeepsParallelism: two heavy sends pipelined on one
// connection into an idle two-worker pool must run on both workers at
// once. The first arrives alone on an idle connection, but the pool's
// other shard is idle too, so the reader must not run it itself.
func TestInlineLaneKeepsParallelism(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two Ps to run two workers at once")
	}
	m := core.New(core.Config{})
	progs, err := workload.LoadSuite(m)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pool := serve.NewPool(snap, serve.Config{Workers: 2, Timeout: 30 * time.Second})
	defer pool.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(l, pool, Options{})
	defer s.Shutdown(context.Background())
	c := dialRaw(t, s.Addr().String())
	do := func(req serve.Request) Response {
		c.send(req)
		c.flush(t)
		r, _, err := c.recv()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// The heaviest program, priced on this host.
	p := progs[0]
	var most time.Duration
	for _, q := range progs {
		r := do(serve.Request{Receiver: word.FromInt(q.Size), Selector: q.Entry})
		if !r.OK() {
			t.Fatalf("%s: %+v", q.Name, r)
		}
		if r.Latency > most {
			p, most = q, r.Latency
		}
	}
	req := serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry}
	start := time.Now()
	c.send(req)
	c.flush(t)
	time.Sleep(time.Millisecond) // the first frame lands alone
	c.send(req)
	c.flush(t)
	a, _, err := c.recv()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := c.recv()
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	for _, r := range []Response{a, b} {
		if !r.OK() || r.Value.Int() != p.Check {
			t.Fatalf("%s: %+v, want %d", p.Name, r, p.Check)
		}
	}
	if a.Worker == b.Worker {
		t.Fatalf("both sends ran on worker %d", a.Worker)
	}
	if sum := time.Duration(a.Latency + b.Latency); wall >= sum {
		t.Fatalf("wall %v >= the sends' summed service %v: they ran one after the other", wall, sum)
	}
}

// TestShutdownDuringInlineSend: Shutdown while the reader is executing a
// frame itself answers that frame and drains the connection cleanly.
func TestShutdownDuringInlineSend(t *testing.T) {
	pool := serve.NewPool(answerSnapshot(t, 1), serve.Config{
		Workers: 1,
		Faults:  &serve.Faults{StallEvery: 1, Stall: 100 * time.Millisecond},
	})
	defer pool.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(l, pool, Options{})
	c := dialRaw(t, s.Addr().String())
	c.send(serve.Request{Receiver: word.FromInt(6), Selector: "answer"})
	c.flush(t)
	// Pending counts an inline execution: wait until the stalled send
	// is on the machine.
	deadline := time.Now().Add(5 * time.Second)
	for pool.QueueDepths()[0] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("send never started executing")
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	r, _, err := c.recv()
	if err != nil || !r.OK() || r.Value.Int() != 7 {
		t.Fatalf("inline send across Shutdown: %+v, %v", r, err)
	}
	<-done
	st := s.Stats()
	if st.FramesInline != 1 || st.FramesOut != 1 || st.ConnsActive != 0 || st.ProtoErrors != 0 {
		t.Fatalf("stats after drain %+v, want the one frame inline and answered, no conns left", st)
	}
}

// failWriter fails every write, as a connection whose peer vanished does.
type failWriter struct{ net.Conn }

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("injected write failure") }

// failFirstListener hands out its first connection with writes failing.
type failFirstListener struct {
	net.Listener
	n int
}

func (l *failFirstListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil && l.n == 0 {
		c = failWriter{c}
	}
	l.n++
	return c, err
}

// TestInlineWriteErrorPoisonsOwnConn: a write error on the reader's own
// answer closes that connection, not the server or its neighbours.
func TestInlineWriteErrorPoisonsOwnConn(t *testing.T) {
	pool := serve.NewPool(answerSnapshot(t, 1), serve.Config{Workers: 1})
	defer pool.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(&failFirstListener{Listener: l}, pool, Options{})
	defer s.Shutdown(context.Background())

	bad, err := DialMux(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Do(serve.Request{Receiver: word.FromInt(1), Selector: "answer"}); err == nil {
		t.Fatal("send on the broken connection was answered")
	}

	good, err := DialMux(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	for i := int32(0); i < 3; i++ {
		r, err := good.Do(serve.Request{Receiver: word.FromInt(i), Selector: "answer"})
		if err != nil || !r.OK() || r.Value.Int() != i+1 {
			t.Fatalf("neighbour send %d: %+v, %v", i, r, err)
		}
	}
	// The pong follows every earlier answer's count.
	if _, _, err := good.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	// The broken connection's answer counts as out: it reached the
	// buffer, and the flush behind it failed.
	if st.FramesIn != 4 || st.FramesInline != 4 || st.FramesOut != 4 || st.ProtoErrors != 0 {
		t.Fatalf("stats %+v, want 4 frames in (all inline) and out, no protocol errors", st)
	}
}
