// The client: MuxClient, many goroutines sharing one pipelined obwire
// connection. Do is safe from any goroutine; each call appends its frame
// under a short lock and waits for its own answer, so the pipeline depth
// is however many callers are in flight at once. A burst of concurrent
// sends shares one write, a lone send is written at once, and a single
// reader goroutine delivers responses back to their callers in the
// server's strict request order. The cluster router keeps ConnsPerNode
// of these per node for sends and one more for its health pings;
// loadgen's binary transport shares one per client across its -pipeline
// lanes.
package obwire

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/serve"
)

// ErrClientClosed is returned by Do and Ping on a MuxClient whose
// connection has died or been closed. The underlying cause — the first
// error the connection saw — is wrapped alongside it.
var ErrClientClosed = errors.New("obwire: client closed")

// ErrWindowFull is returned by Do and Ping when DefaultWindow sends are
// already in flight on the connection. It is a refusal, not a failure:
// the connection is healthy but saturated, and the caller should treat
// it like an overload — back off, or route the send somewhere else.
// (Blocking instead would wedge a writer against the reader's error
// path; refusing keeps the failure mode visible and retryable.)
var ErrWindowFull = errors.New("obwire: connection window full")

// muxReply is one delivered answer: the decoded result frame, or a
// pong's depth and reason, or the connection-level error that killed the
// send.
type muxReply struct {
	resp     Response
	depth    int64
	notReady string
	err      error
}

// muxWaiter is one in-flight send awaiting its response: 16 bytes, so a
// connection's window costs 64 B at its windowInit slots and 16 KiB
// grown to DefaultWindow. The reader matches waiters to responses FIFO —
// valid because the server answers strictly in request order, pongs
// included — and counts the id it expects next instead of storing one
// per waiter, which holds because waiters are queued under wmu in id
// order.
type muxWaiter struct {
	ch   chan muxReply
	ping bool
}

// MuxClient is a goroutine-safe pipelined obwire connection. Writers
// serialise briefly to append their frame and enqueue a waiter; the
// reader goroutine pairs responses with waiters in order. Depth is
// whatever the callers' concurrency makes it — the cluster router's
// natural pipelining. A send with nothing else in flight is flushed at
// once; while other sends are in flight, the first to append yields so
// the rest can append behind it, then writes the whole burst in one
// syscall. Frames are encoded straight into the connection's output
// buffer, and the reader decodes responses in place in its input buffer;
// both buffers, and the window of waiters, grow only as deep as the
// traffic goes (see the package doc's Memory section).
type MuxClient struct {
	c net.Conn

	wmu      sync.Mutex
	out      frameWriter // under wmu
	nextID   uint64
	flushing bool  // under wmu: a burst's flusher is yielding and will flush what out holds
	dead     error // set once, under wmu; all later sends fail fast

	waiters window[muxWaiter]
	chPool  sync.Pool

	readerDone chan struct{}
}

// DialMux connects a MuxClient to an obwire server.
func DialMux(addr string) (*MuxClient, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewMuxClient(c)
}

// NewMuxClient wraps an established connection, sending the opening
// magic and starting the reader.
func NewMuxClient(c net.Conn) (*MuxClient, error) {
	m := &MuxClient{
		c:          c,
		out:        newFrameWriter(c),
		readerDone: make(chan struct{}),
	}
	m.waiters.init()
	m.chPool.New = func() any { return make(chan muxReply, 1) }
	// The magic rides the first frame's write.
	m.out.buf = append(m.out.buf, Magic...)
	go m.readLoop()
	return m, nil
}

// Close tears the connection down; every in-flight and future send
// fails with ErrClientClosed.
func (m *MuxClient) Close() error {
	m.fail(ErrClientClosed)
	<-m.readerDone
	return nil
}

// Err answers the terminal error once the connection has died, nil
// while it is live — the cluster tier's cheap "is this conn still
// worth routing to" check.
func (m *MuxClient) Err() error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return m.dead
}

// fail marks the connection dead (keeping the first cause) and closes
// the socket, kicking the reader out of its blocking read.
func (m *MuxClient) fail(err error) {
	m.wmu.Lock()
	if m.dead == nil {
		m.dead = err
	}
	m.wmu.Unlock()
	m.c.Close()
}

// enqueue appends one frame and its waiter under the write lock, in one
// critical section, so wire order is waiter order. The waiter is queued
// before the flush so the reader can never see a response without its
// waiter. With other sends in flight their callers are likely about to
// send again, so the first appender of a burst yields once before
// flushing and later appenders leave their frames to it: the burst goes
// out in one write instead of one per send.
func (m *MuxClient) enqueue(ping bool, req serve.Request) (chan muxReply, error) {
	ch := m.chPool.Get().(chan muxReply)
	m.wmu.Lock()
	if m.dead != nil {
		err := m.dead
		m.wmu.Unlock()
		m.chPool.Put(ch)
		return nil, fmt.Errorf("%w: %w", ErrClientClosed, err)
	}
	// The waiter slot is claimed non-blockingly: parking here while
	// holding wmu would deadlock against the reader's drain path, and a
	// saturated window is better answered as a retryable refusal anyway.
	if !m.waiters.tryPush(muxWaiter{ch: ch, ping: ping}) {
		m.wmu.Unlock()
		m.chPool.Put(ch)
		return nil, ErrWindowFull
	}
	id := m.nextID
	m.nextID++
	b := m.out.frame()
	if ping {
		b = appendPing(b, id)
	} else {
		b = appendRequest(b, id, req)
	}
	err := m.out.put(b, false)
	// While a burst's flusher is yielding, this frame goes out in its write.
	if err == nil && !m.flushing {
		if m.waiters.len() > 1 {
			m.flushing = true
			m.wmu.Unlock()
			runtime.Gosched()
			m.wmu.Lock()
			m.flushing = false
		}
		err = m.out.flush()
	}
	m.wmu.Unlock()
	if err != nil {
		// The reader will drain our waiter (and everyone else's) with
		// the terminal error once fail closes the socket.
		m.fail(err)
	}
	return ch, nil
}

// Do executes one send over the shared connection: safe from any
// goroutine, pipelined with every other caller's frames. A returned
// error is connection-level (the send may or may not have executed);
// in-band refusals come back as the Response's status.
func (m *MuxClient) Do(req serve.Request) (Response, error) {
	ch, err := m.enqueue(false, req)
	if err != nil {
		return Response{}, err
	}
	r := <-ch
	m.chPool.Put(ch)
	return r.resp, r.err
}

// Ping round-trips one ping frame through the server's whole
// read→dispatch→write loop, ordered behind every send already in
// flight — so a pong bounds the loop's current backlog, not just the
// socket's liveness. It answers what the pong carries: the server pool's
// summed queue depth and its not-ready reason, "" while it is ready. The
// deadline caps the wait; a timeout kills the connection (its pong can
// no longer be matched FIFO).
func (m *MuxClient) Ping(timeout time.Duration) (depth int64, notReady string, err error) {
	ch, err := m.enqueue(true, serve.Request{})
	if err != nil {
		return 0, "", err
	}
	var expired <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		expired = timer.C
	}
	var r muxReply
	select {
	case r = <-ch:
	case <-expired:
		m.fail(fmt.Errorf("obwire: ping timed out after %v", timeout))
		r = <-ch // the reader always drains every waiter
	}
	m.chPool.Put(ch)
	return r.depth, r.notReady, r.err
}

// readLoop pairs responses with waiters in FIFO order and, on any
// connection error, fails the client and drains every parked waiter so
// no caller hangs.
func (m *MuxClient) readLoop() {
	defer close(m.readerDone)
	fr := newFrameReader(m.c)
	var next uint64 // the id of the oldest waiter
	for {
		rbuf, err := fr.next()
		if err != nil {
			m.drain(err)
			return
		}
		var reply muxReply
		var id uint64
		pong := rbuf[0] == framePong
		if pong {
			id, reply.depth, reply.notReady, reply.err = decodePong(rbuf)
		} else {
			reply.resp, reply.err = decodeResponse(rbuf)
			id = reply.resp.ID
		}
		w, ok := m.waiters.tryPop()
		if !ok {
			m.drain(fmt.Errorf("obwire: unsolicited response id %d", id))
			return
		}
		if reply.err == nil && (id != next || w.ping != pong) {
			reply.err = fmt.Errorf("obwire: response id %d, want %d (responses must arrive in send order)", id, next)
		}
		next++
		if reply.err != nil {
			w.ch <- reply
			m.drain(reply.err)
			return
		}
		w.ch <- reply
	}
}

// drain fails the connection and answers every parked waiter with the
// terminal error. New sends are already refused by the dead flag (set
// before waiters are drained), so none can slip in behind the drain.
func (m *MuxClient) drain(err error) {
	m.fail(err)
	m.wmu.Lock()
	terminal := m.dead
	m.wmu.Unlock()
	for {
		w, ok := m.waiters.tryPop()
		if !ok {
			return
		}
		w.ch <- muxReply{err: fmt.Errorf("%w: %w", ErrClientClosed, terminal)}
	}
}
