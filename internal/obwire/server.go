package obwire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/word"
)

// Options tunes a Server. The zero value serves with no span sinks and
// no diagnostics. Frames are capped at DefaultMaxFrame bytes (a length
// prefix beyond the cap poisons the connection before a payload byte is
// read) and DefaultWindow in flight per connection (the reader parks at
// the cap, so a runaway pipeliner is throttled by TCP backpressure);
// Shutdown lets readers consume in-transit frames for DefaultDrainGrace.
type Options struct {
	// DecodeLat and EncodeLat, when set, receive the per-frame decode
	// and encode+write spans — internal/node passes its HTTP /stats
	// histograms so both transports share one family. Both count on
	// core.Monotonic, the clock the pool stamps requests with, and share
	// readings with the pool at their boundaries: decode runs from the
	// frame's first decoded byte to the reading that stamps its enqueue
	// (queued) or starts its execution (inline lane); encode runs from
	// the writer's reading after the answer is ready (queued) or the
	// pool's exec-end reading (inline lane) until the answer is in the
	// connection's write buffer and, when due, flushed. An inline
	// frame's encode span therefore also covers three steps before the
	// encode: TryDo's release of the request's in-flight and admission
	// slots, the framesInline count, and the wait for the connection's
	// write lock. When the reader answered a frame with the next one
	// already buffered, the reading that ends the answer's encode also
	// starts the next frame's decode.
	DecodeLat *stats.ConcurrentHistogram
	EncodeLat *stats.ConcurrentHistogram
	// Logf, when set, receives connection-level diagnostics (protocol
	// errors, accept failures). Per-frame refusals are not logged; they
	// are answered in-band and counted by the pool like HTTP refusals.
	Logf func(format string, v ...any)
}

// DefaultDrainGrace bounds how long a draining reader waits for in-transit
// frames to land. Long enough for anything already written by a client to
// cross a real network; short enough that shutdown stays snappy. Kicking
// readers off the socket at once would strand frames a pipelining client
// had already sent — and closing with unread data RSTs the connection,
// clobbering even the responses already flushed back.
const DefaultDrainGrace = 200 * time.Millisecond

// Stats is a point-in-time snapshot of the transport counters, exported
// by a node into the /stats "binary" block and the obarch_binary_*
// Prometheus family. FramesOut counts responses once they are in a
// connection's write buffer, ahead of the flush that sends them.
// FramesInline counts the request frames a connection's reader answered
// itself on the pool's inline lane (see Server for when it does); the
// rest of FramesIn went through the pool's queues and the writer.
type Stats struct {
	ConnsAccepted uint64 `json:"conns_accepted"`
	ConnsActive   uint64 `json:"conns_active"`
	FramesIn      uint64 `json:"frames_in"`
	FramesOut     uint64 `json:"frames_out"`
	FramesInline  uint64 `json:"frames_inline"`
	Pings         uint64 `json:"pings"`
	ProtoErrors   uint64 `json:"proto_errors"`
}

// Server accepts obwire connections and feeds their frames to a
// serve.Pool. Every connection runs one reader goroutine, which decodes
// each frame in place in its input buffer, and one writer goroutine;
// both encode answers into the connection's one output buffer. The
// reader offers every frame that finds its connection with nothing
// outstanding to Pool.TryDo, which runs it on the reader when no worker
// could run it sooner: with two or more Ps, only when no further bytes
// are buffered behind the frame and no other shard is idle; with one P,
// whenever the frame's shard is idle, so the reader serves a whole
// burst itself. Such a frame is run to completion by the reader:
// execute, encode, write — one goroutine per send. The reader flushes
// its answers once no complete frame is buffered behind them, so no
// answer waits on a read for the rest of a partial frame, and a burst
// that arrived in one read is answered in one write. Every other frame
// takes the pipelined path: the reader submits it with Pool.GoAt and
// queues its future on an ordered in-flight window, and the writer
// awaits each future in turn, encodes and writes. Either way responses
// go out in request order, many requests deep.
type Server struct {
	pool *serve.Pool
	ln   net.Listener
	opts Options

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	closed atomic.Bool
	wg     sync.WaitGroup

	connsAccepted atomic.Uint64
	connsActive   atomic.Int64
	framesIn      atomic.Uint64
	framesOut     atomic.Uint64
	framesInline  atomic.Uint64
	pings         atomic.Uint64
	protoErrors   atomic.Uint64
}

// Serve starts accepting obwire connections on l, serving them from
// pool, and returns immediately; Shutdown stops it. The listener is
// owned by the Server from here on.
func Serve(l net.Listener, pool *serve.Pool, opts Options) *Server {
	s := &Server{pool: pool, ln: l, opts: opts, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr answers the listener's address — handy when it was bound to :0.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Stats snapshots the transport counters.
func (s *Server) Stats() Stats {
	active := s.connsActive.Load()
	if active < 0 {
		active = 0
	}
	return Stats{
		ConnsAccepted: s.connsAccepted.Load(),
		ConnsActive:   uint64(active),
		FramesIn:      s.framesIn.Load(),
		FramesOut:     s.framesOut.Load(),
		FramesInline:  s.framesInline.Load(),
		Pings:         s.pings.Load(),
		ProtoErrors:   s.protoErrors.Load(),
	}
}

// Shutdown closes the accept loop and drains live connections: each
// reader gets DefaultDrainGrace to finish consuming frames already in
// transit (then its blocking read is cut off), already-dispatched frames
// are answered and flushed, and the writers close their connections. If
// ctx expires first the stragglers are closed hard.
func (s *Server) Shutdown(ctx context.Context) {
	s.closed.Store(true)
	s.ln.Close()
	deadline := time.Now().Add(DefaultDrainGrace)
	s.mu.Lock()
	for c := range s.conns {
		// Not time.Now(): frames a client pipelined before the drain may
		// still be in the socket buffer, and cutting the reader off this
		// instant would strand them — the close-with-unread-data RST then
		// destroys even the answers already flushed.
		c.SetReadDeadline(deadline)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
}

func (s *Server) logf(format string, v ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, v...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return
			}
			s.logf("obwire: accept: %v", err)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connsAccepted.Add(1)
		s.connsActive.Add(1)
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// pending is one dispatched frame awaiting its response write: 16
// bytes, so a connection's window costs 64 B at its windowInit slots and
// 16 KiB grown to DefaultWindow. A ping has a nil future; the writer
// answers it with a pong in its queued order, which is exactly what
// makes a pong a proof of loop liveness.
type pending struct {
	id  uint64
	fut *serve.Future
}

// connOut is one connection's write side, shared by its reader and
// writer. pend is the window of dispatched frames the writer answers in
// order. mu serialises use of w. outstanding counts the frames and pings
// the reader has put on pend whose answers are not yet in w; while it is
// zero every earlier answer has been written and flushed, so an answer
// the reader writes itself still goes out in request order. broken is
// set by the first write error: nothing more is written.
type connOut struct {
	c           net.Conn
	pend        window[pending]
	mu          sync.Mutex
	w           frameWriter
	broken      bool
	outstanding atomic.Int64
}

// put takes back o.w's buffer with one more frame appended, b, counting
// the frame in n (when set) as soon as it is in the buffer — so no
// client ever holds an answer the counters have not seen — and writing
// the buffer out when flush is set or it is full. Callers hold o.mu and
// encode nothing once o.broken is set.
func (s *Server) put(o *connOut, b []byte, n *atomic.Uint64, flush bool) bool {
	if n != nil {
		n.Add(1)
	}
	if err := o.w.put(b, flush); err != nil {
		o.broken = true
		s.logf("obwire: %s: write: %v", o.c.RemoteAddr(), err)
		return false
	}
	return true
}

// respond encodes and writes one response, counted in framesOut and
// timed into EncodeLat from t0, the core.Monotonic reading encoding
// starts at. It answers the reading encoding ended at, 0 when EncodeLat
// is unset and no reading was taken. Callers hold o.mu.
func (s *Server) respond(o *connOut, id uint64, res serve.Result, flush bool, t0 int64) (end int64, ok bool) {
	if o.broken {
		return 0, false
	}
	ok = s.put(o, appendResponse(o.w.frame(), id, res), &s.framesOut, flush)
	if s.opts.EncodeLat != nil {
		end = core.Monotonic()
		s.opts.EncodeLat.Observe(time.Duration(end - t0))
	}
	return end, ok
}

// serveConn is the per-connection reader: validate the magic, then read
// frames and decode them. A frame the reader can run to completion (see
// Server) it answers itself; the rest it hands to the writer as pool
// futures, in order. A protocol error, or a write error on the reader's
// own answer, stops the reading — poisoning exactly this connection —
// while the writer drains and answers everything already dispatched.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.connsActive.Add(-1)
	}()

	// A connection accepted in the same instant Shutdown swept the conn
	// map would never have been handed a drain deadline — give it one
	// here so it cannot hold the drain open past the grace.
	if s.closed.Load() {
		c.SetReadDeadline(time.Now().Add(DefaultDrainGrace))
	}

	writerDone := make(chan struct{})
	out := &connOut{c: c, w: newFrameWriter(c)}
	out.pend.init()
	go s.writeLoop(out, writerDone)

	fr := newFrameReader(c)
	if magic, err := fr.read(len(Magic)); err != nil || string(magic) != Magic {
		if err == nil {
			s.protoErrors.Add(1)
			s.logf("obwire: %s: bad magic %q", c.RemoteAddr(), magic)
		}
		out.pend.close()
		<-writerDone
		return
	}

	// Selectors are interned so repeat sends of the same message cost no
	// allocation.
	sels := make(map[string]string)
	// next is the reading that starts the next frame's decode when the
	// reader's last answer was encoded with that frame already buffered;
	// 0 otherwise.
	var next int64

	for {
		buf, err := fr.next()
		if err != nil {
			// EOF or a reset is the client hanging up; a read cut off
			// during Shutdown is the drain kicking us out. Neither is a
			// protocol error; a length prefix out of range always is.
			hungUp := err == io.EOF || errors.Is(err, syscall.ECONNRESET)
			if !hungUp && (!s.closed.Load() || errors.Is(err, errFrameLength)) {
				s.protoErrors.Add(1)
				s.logf("obwire: %s: read: %v", c.RemoteAddr(), err)
			}
			break
		}

		if len(buf) == 9 && buf[0] == framePing {
			next = 0 // the frame after this one may not be buffered yet
			s.pings.Add(1)
			out.outstanding.Add(1)
			out.pend.push(pending{id: binary.LittleEndian.Uint64(buf[1:])})
			continue
		}

		t0 := next
		if t0 == 0 {
			t0 = core.Monotonic()
		}
		next = 0
		id, req, err := s.decodeRequest(buf, sels)
		// One reading ends decode and starts the next stage: the
		// enqueue stamp, or exec start on the inline lane.
		t1 := core.Monotonic()
		if s.opts.DecodeLat != nil {
			s.opts.DecodeLat.Observe(time.Duration(t1 - t0))
		}
		if err != nil {
			s.protoErrors.Add(1)
			s.logf("obwire: %s: %v", c.RemoteAddr(), err)
			break
		}
		s.framesIn.Add(1)
		// Nothing else in flight on this connection: run the frame to
		// completion here if no worker could run it sooner. Flush unless
		// a whole frame waits behind it, whose answer can join this one.
		if out.outstanding.Load() == 0 {
			if res, done, ok := s.pool.TryDo(req, t1, fr.buffered() != 0); ok {
				s.framesInline.Add(1)
				more := fr.framed()
				out.mu.Lock()
				end, ok := s.respond(out, id, res, !more, done)
				out.mu.Unlock()
				if !ok {
					break
				}
				if more {
					next = end
				}
				continue
			}
		}
		// Dispatch. Go never blocks: a full queue or in-flight ceiling
		// completes the future immediately with ErrOverloaded, which the
		// writer answers as StatusOverloaded — the same admission story
		// as HTTP, over a cheaper wire.
		out.outstanding.Add(1)
		out.pend.push(pending{id: id, fut: s.pool.GoAt(req, t1)})
	}
	out.pend.close()
	<-writerDone
}

// decodeRequest decodes one send frame. The selector is interned in
// sels — stable across the connection, so steady-state traffic never
// allocates for it; args, when present, cost one slice (they outlive
// the frame buffer in the pool's queue).
func (s *Server) decodeRequest(b []byte, sels map[string]string) (uint64, serve.Request, error) {
	d := dec{b: b}
	if t := d.u8(); t != frameSend && !d.bad {
		return 0, serve.Request{}, fmt.Errorf("obwire: unknown frame type 0x%02x", t)
	}
	id := d.u64()
	req := serve.Request{
		Receiver: d.word(),
		Key:      d.u64(),
		MaxSteps: d.u64(),
		Timeout:  time.Duration(d.u64()),
	}
	selRaw := d.bytes(int(d.u16()))
	nargs := int(d.u16())
	if nargs > 0 {
		args := make([]word.Word, nargs)
		for i := range args {
			args[i] = d.word()
		}
		req.Args = args
	}
	if err := d.done(); err != nil {
		return 0, serve.Request{}, err
	}
	if len(selRaw) == 0 {
		return 0, serve.Request{}, errEmptySelector
	}
	sel, ok := sels[string(selRaw)]
	if !ok {
		sel = string(selRaw)
		if len(sels) < 4096 { // bound a hostile selector flood
			sels[sel] = sel
		}
	}
	req.Selector = sel
	return id, req, nil
}

// writeLoop is the writer half of the pipelined path: await each
// dispatched future in order, encode its response into the connection's
// output buffer, and write it out, flushing only when the pipeline
// runs dry — pipelined clients get batched syscalls for free. An answer
// leaves outstanding only once it is in the buffer (and flushed, if it
// was the last), which is what lets the reader answer the next frame
// itself. A write error stops writing but not waiting: the loop keeps
// draining futures so the reader can finish and pooled result cells are
// always recycled.
func (s *Server) writeLoop(o *connOut, done chan<- struct{}) {
	defer close(done)
	defer o.c.Close()
	for {
		p, ok := o.pend.pop()
		if !ok {
			break
		}
		var res serve.Result
		if p.fut != nil {
			res = p.fut.Wait()
		}
		last := o.pend.len() == 0
		o.mu.Lock()
		if p.fut == nil {
			if !o.broken {
				depth, notReady := s.health()
				s.put(o, appendPong(o.w.frame(), p.id, depth, notReady), nil, last)
			}
		} else {
			s.respond(o, p.id, res, last, core.Monotonic())
		}
		o.outstanding.Add(-1)
		o.mu.Unlock()
	}
	// The reader has exited, so the buffer is the writer's alone.
	if !o.broken {
		o.w.flush()
	}
}

// health answers what a pong carries: the pool's queue depths summed
// and its not-ready reason, "draining" instead once Shutdown begins.
func (s *Server) health() (depth int64, notReady string) {
	for _, d := range s.pool.QueueDepths() {
		depth += int64(d)
	}
	if notReady = s.pool.NotReady(); s.closed.Load() {
		notReady = "draining"
	}
	return depth, notReady
}

var errEmptySelector = errors.New("obwire: empty selector")
