package obwire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/smalltalk"
	"repro/internal/word"
)

// answerSnapshot compiles an image whose answer method adds val — the
// same fixture the serve tests use.
func answerSnapshot(t testing.TB, val int) *core.Snapshot {
	t.Helper()
	m := core.New(core.Config{})
	c, err := smalltalk.Compile(fmt.Sprintf(`
extend SmallInt [
	method answer [ ^self + %d ]
]`, val))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := smalltalk.LoadCOM(m, c); err != nil {
		t.Fatalf("load: %v", err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return snap
}

// startServer boots a pool on the answer image and serves it over
// obwire on a loopback listener.
func startServer(t testing.TB, cfg serve.Config, opts Options) (*Server, *serve.Pool) {
	t.Helper()
	pool := serve.NewPool(answerSnapshot(t, 1), cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(l, pool, opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		pool.Close()
	})
	return s, pool
}

// rawConn speaks obwire frame by frame, for tests that must control
// exactly which bytes reach the server and when: frames are buffered
// until flush writes them in one go, and answers are read one at a time.
type rawConn struct {
	net.Conn
	br   *bufio.Reader
	out  []byte
	next uint64
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{Conn: c, br: bufio.NewReader(c), out: []byte(Magic)}
}

// send buffers one send frame and answers its id.
func (c *rawConn) send(req serve.Request) uint64 {
	id := c.next
	c.next++
	c.out = appendRequest(c.out, id, req)
	return id
}

// ping buffers one ping frame.
func (c *rawConn) ping(id uint64) { c.out = appendPing(c.out, id) }

// flush writes every buffered frame.
func (c *rawConn) flush(t *testing.T) {
	t.Helper()
	if _, err := c.Write(c.out); err != nil {
		t.Fatal(err)
	}
	c.out = c.out[:0]
}

// recv reads the next answer: a result, or a pong whose id lands in ID.
func (c *rawConn) recv() (r Response, pong bool, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return r, false, err
	}
	b := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(c.br, b); err != nil {
		return r, false, err
	}
	if len(b) > 0 && b[0] == framePong {
		id, _, _, err := decodePong(b)
		return Response{ID: id}, true, err
	}
	r, err = decodeResponse(b)
	return r, false, err
}

// TestRequestFrameRoundTrip pins the request codec: every field —
// receiver, selector, args, key, step budget, timeout — survives
// encode/decode, and the id comes back.
func TestRequestFrameRoundTrip(t *testing.T) {
	in := serve.Request{
		Receiver: word.FromInt(-7),
		Selector: "with:args:",
		Args:     []word.Word{word.FromInt(3), word.FromFloat(2.5), word.FromAtom(9)},
		Key:      42,
		MaxSteps: 1 << 20,
		Timeout:  1500 * time.Millisecond,
	}
	b := appendRequest(nil, 99, in)
	s := &Server{}
	sels := map[string]string{}
	id, out, err := s.decodeRequest(b[4:], sels) // past the length prefix
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if id != 99 {
		t.Fatalf("id = %d, want 99", id)
	}
	if out.Receiver != in.Receiver || out.Selector != in.Selector || out.Key != in.Key ||
		out.MaxSteps != in.MaxSteps || out.Timeout != in.Timeout || len(out.Args) != len(in.Args) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	for i := range in.Args {
		if out.Args[i] != in.Args[i] {
			t.Fatalf("arg %d: got %v, want %v", i, out.Args[i], in.Args[i])
		}
	}
	// The selector was interned: decoding again reuses the map entry.
	_, out2, err := s.decodeRequest(b[4:], sels)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Selector != out.Selector || len(sels) != 1 {
		t.Fatalf("selector not interned (map holds %d entries)", len(sels))
	}
}

// TestResponseFrameRoundTrip pins the response codec for both the OK
// and the error shape, including the status mapping.
func TestResponseFrameRoundTrip(t *testing.T) {
	ok := serve.Result{Value: word.FromInt(8), Worker: 3, Steps: 11, Cycles: 29, Latency: 1200}
	b := appendResponse(nil, 7, ok)
	r, err := decodeResponse(b[4:])
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() || r.ID != 7 || r.Value != ok.Value || r.Worker != 3 || r.Steps != 11 || r.Cycles != 29 || r.Latency != 1200 || r.Err != "" {
		t.Fatalf("ok round trip: %+v", r)
	}

	for _, tc := range []struct {
		err    error
		status uint8
		retry  bool
	}{
		{serve.ErrOverloaded, StatusOverloaded, true},
		{serve.ErrExpired, StatusShed, true},
		{errors.New("doesNotUnderstand: answer"), StatusMachineError, false},
		{serve.ErrClosed, StatusMachineError, false},
	} {
		b = appendResponse(b[:0], 1, serve.Result{Err: tc.err})
		r, err := decodeResponse(b[4:])
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != tc.status || r.Err != tc.err.Error() {
			t.Fatalf("%v: status %d err %q, want %d %q", tc.err, r.Status, r.Err, tc.status, tc.err.Error())
		}
		if Retryable(r.Status) != tc.retry {
			t.Fatalf("%v: Retryable = %v, want %v", tc.err, Retryable(r.Status), tc.retry)
		}
	}
}

// TestDoRoundTrip is the end-to-end smoke: a real pool behind a real
// listener answers a send, with the pool's accounting attached.
func TestDoRoundTrip(t *testing.T) {
	s, pool := startServer(t, serve.Config{Workers: 2}, Options{})
	c, err := DialMux(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r, err := c.Do(serve.Request{Receiver: word.FromInt(4), Selector: "answer"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() || r.Value.Int() != 5 {
		t.Fatalf("answer: %+v, want 5", r)
	}
	if r.Steps == 0 || r.Latency <= 0 {
		t.Fatalf("accounting missing from response: %+v", r)
	}
	if met := pool.Metrics(); met.Requests != 1 {
		t.Fatalf("pool served %d requests, want 1", met.Requests)
	}
	st := s.Stats()
	if st.FramesIn != 1 || st.FramesOut != 1 || st.ConnsAccepted != 1 || st.ProtoErrors != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestPipelinedOrdering drives a deep pipeline through one connection:
// every response arrives in send order with the right answer.
func TestPipelinedOrdering(t *testing.T) {
	s, _ := startServer(t, serve.Config{Workers: 4}, Options{})
	c := dialRaw(t, s.Addr().String())

	const depth, total = 32, 512
	sent := 0
	for recv := 0; recv < total; recv++ {
		for ; sent < total && sent < recv+depth; sent++ {
			c.send(serve.Request{Receiver: word.FromInt(int32(sent)), Selector: "answer"})
		}
		c.flush(t)
		r, _, err := c.recv()
		if err != nil {
			t.Fatalf("recv %d: %v", recv, err)
		}
		if r.ID != uint64(recv) || !r.OK() || r.Value.Int() != int32(recv)+1 {
			t.Fatalf("response %d: %+v, want id %d value %d", recv, r, recv, recv+1)
		}
	}
}

// TestRefusalStatus pins the in-band refusal path: a pool that admits
// nothing answers StatusOverloaded frames — retryable, message carried —
// and the connection stays healthy for when capacity returns.
func TestRefusalStatus(t *testing.T) {
	s, _ := startServer(t, serve.Config{Workers: 1, MaxInFlight: -1}, Options{})
	c, err := DialMux(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 3; i++ {
		r, err := c.Do(serve.Request{Receiver: word.FromInt(1), Selector: "answer"})
		if err != nil {
			t.Fatalf("refusal %d should be in-band, not a transport error: %v", i, err)
		}
		if r.Status != StatusOverloaded || !Retryable(r.Status) || r.Err == "" {
			t.Fatalf("refusal %d: %+v, want retryable StatusOverloaded with message", i, r)
		}
	}
}

// TestMachineErrorStatus: a send the image does not understand is a
// non-retryable machine error with the diagnostic attached, and the
// connection survives it.
func TestMachineErrorStatus(t *testing.T) {
	s, _ := startServer(t, serve.Config{Workers: 1}, Options{})
	c, err := DialMux(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r, err := c.Do(serve.Request{Receiver: word.FromInt(1), Selector: "nonesuch"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusMachineError || Retryable(r.Status) || r.Err == "" {
		t.Fatalf("unknown selector: %+v, want non-retryable StatusMachineError", r)
	}
	if r, err = c.Do(serve.Request{Receiver: word.FromInt(1), Selector: "answer"}); err != nil || !r.OK() {
		t.Fatalf("connection did not survive a machine error: %+v, %v", r, err)
	}
}

// TestPoisonedConnections is the hostile-input matrix: a bad magic, an
// oversized length prefix, a truncated frame, and a garbage payload each
// kill exactly their own connection — counted as protocol errors — while
// the daemon keeps serving new connections.
func TestPoisonedConnections(t *testing.T) {
	s, _ := startServer(t, serve.Config{Workers: 1}, Options{})

	probe := func(when string) {
		t.Helper()
		c, err := DialMux(s.Addr().String())
		if err != nil {
			t.Fatalf("%s: dial: %v", when, err)
		}
		defer c.Close()
		if r, err := c.Do(serve.Request{Receiver: word.FromInt(1), Selector: "answer"}); err != nil || !r.OK() {
			t.Fatalf("%s: daemon no longer serves: %+v, %v", when, r, err)
		}
	}

	hostile := []struct {
		name  string
		bytes []byte
	}{
		{"bad magic", []byte("GET / HTTP/1.1\r\n\r\n")},
		{"oversized frame", append([]byte(Magic), 0xff, 0xff, 0xff, 0x7f)},
		{"zero-length frame", append([]byte(Magic), 0, 0, 0, 0)},
		{"garbage payload", append([]byte(Magic), 5, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 0x99)},
		{"truncated frame", append([]byte(Magic), 100, 0, 0, 0, 1, 2, 3)},
	}
	for _, h := range hostile {
		t.Run(h.name, func(t *testing.T) {
			before := s.Stats().ProtoErrors
			raw, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := raw.Write(h.bytes); err != nil {
				t.Fatal(err)
			}
			if h.name == "truncated frame" {
				// Half a frame then hangup: the server must treat the
				// unexpected EOF as this connection's problem only.
				raw.(*net.TCPConn).CloseWrite()
			}
			// The server must hang up on us.
			raw.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 64)
			for {
				if _, err := raw.Read(buf); err != nil {
					break
				}
			}
			raw.Close()
			deadline := time.Now().Add(5 * time.Second)
			for s.Stats().ProtoErrors == before {
				if time.Now().After(deadline) {
					t.Fatalf("protocol error never counted (stats %+v)", s.Stats())
				}
				time.Sleep(time.Millisecond)
			}
			probe("after " + h.name)
		})
	}
	if st := s.Stats(); st.ProtoErrors != uint64(len(hostile)) {
		t.Fatalf("proto_errors = %d, want %d", st.ProtoErrors, len(hostile))
	}
}

// TestPeerResetIsHangUp: a client that resets its connection — it closes
// with SO_LINGER 0, leaving its answer unread — has hung up, not broken the
// protocol. The server counts no protocol error and logs no read failure.
func TestPeerResetIsHangUp(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	s, _ := startServer(t, serve.Config{Workers: 1}, Options{Logf: func(format string, v ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, v...))
	}})
	c := dialRaw(t, s.Addr().String())
	c.send(serve.Request{Receiver: word.FromInt(1), Selector: "answer"})
	c.flush(t)
	// Once the answer reaches the client the server is back reading.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.br.Peek(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Conn.(*net.TCPConn).SetLinger(0); err != nil {
		t.Fatal(err)
	}
	c.Close() // sends RST
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().ConnsActive != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server never dropped the reset connection (stats %+v)", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.ProtoErrors != 0 {
		t.Errorf("proto_errors = %d after a peer reset, want 0", st.ProtoErrors)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logged {
		if strings.Contains(line, "read") {
			t.Errorf("peer reset logged: %s", line)
		}
	}
}

// TestShutdownAnswersInFlight pins the drain contract: frames dispatched
// before Shutdown are answered and flushed, the listener refuses new
// connections, and Shutdown returns.
func TestShutdownAnswersInFlight(t *testing.T) {
	pool := serve.NewPool(answerSnapshot(t, 1), serve.Config{Workers: 1})
	defer pool.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(l, pool, Options{})
	addr := s.Addr().String()

	c := dialRaw(t, addr)
	const n = 16
	for i := 0; i < n; i++ {
		c.send(serve.Request{Receiver: word.FromInt(int32(i)), Selector: "answer"})
	}
	c.flush(t)
	// Give the reader a moment to dispatch, then drain.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)

	got := 0
	for i := 0; i < n; i++ {
		r, _, err := c.recv()
		if err != nil {
			break // frames past the drain cut are allowed to be lost
		}
		if !r.OK() || r.Value.Int() != int32(i)+1 {
			t.Fatalf("drained response %d: %+v", i, r)
		}
		got++
	}
	if got == 0 {
		t.Fatal("no dispatched frame was answered across the drain")
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("listener still accepting after Shutdown")
	}
}
