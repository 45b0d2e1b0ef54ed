// Per-node state: the obwire connections a node is reached through —
// ConnsPerNode for sends and one for health pings — and the health state
// machine + circuit breaker that decide whether it should be reached at
// all.
//
// A node's health is a four-state machine:
//
//	healthy ──fail──▶ suspect ──fails ≥ threshold──▶ down
//	   ▲                 │ ok                          │ cooldown
//	   │ ok              ▼                             ▼
//	   └────────────── healthy ◀──probe ok──────── probing
//
// Failure signals come from two directions. The poller drives the slow
// loop: a ping whose pong says ready is an ok; no pong at all is a fail,
// and so is a pong with a reason other than draining or rotating (see
// pollNotReady). The data path drives the fast loop: a transport
// error on a forward is a fail the moment it happens — a dead node is
// suspected on the first lost send, not half a second later when the
// poller notices. In-band refusals (status 2 overloaded, status 3
// shed) are softer: they mark a healthy node suspect and tick their
// counters — steering the balancer — but only sustained hard failures
// open the breaker, because a node that answers "no" quickly is
// degraded, not gone.
//
// Down is the breaker open: the router stops sending anything, so a
// failing node never accumulates a queue of doomed requests. After
// Cooldown the poller moves the node to probing (half-open) and sends
// one ping: a pong that says ready — served by the node's obwire loop
// itself, so the data plane is proven, not just the socket — closes the
// breaker (healthy); anything else re-arms it (down, fresh cooldown).
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obwire"
	"repro/internal/serve"
)

// State is one position in the node health machine.
type State int32

const (
	// StateHealthy: fully routable.
	StateHealthy State = iota
	// StateSuspect: recently failed or refused; still routable (it may
	// just be busy) but on notice — the next poll or sustained failures
	// resolve it one way or the other.
	StateSuspect
	// StateDown: the circuit breaker is open. Nothing is routed here.
	StateDown
	// StateProbing: half-open. The cooldown elapsed and one probe is in
	// flight; traffic still flows elsewhere until it succeeds.
	StateProbing
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	case StateProbing:
		return "probing"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Node is one obarchd backend: its two addresses, its obwire
// connections, its health machine, and its counters. All methods are
// safe for concurrent use; the data path touches only atomics and a
// short per-slot dial lock.
type Node struct {
	// HTTPAddr is the node's HTTP control plane (host:port), which
	// obrouter proxies /programs to. BinAddr is its obwire listener,
	// which carries the sends and the health pings.
	HTTPAddr string
	BinAddr  string

	cfg *Config

	state       atomic.Int32
	mu          sync.Mutex // guards transitions and the fields below
	consecFails int
	downSince   time.Time
	notReady    string // last pong's not-ready reason ("" when ready)

	draining atomic.Bool

	slots []*connSlot
	rr    atomic.Uint64
	ctl   connSlot // the health pings' own connection

	// polledDepth is the node's queue backlog from the last pong (its
	// queue depths summed); outstanding is the router's own
	// in-flight count against this node. Their sum is the JSQ load
	// signal: the poll supplies the node's view, outstanding keeps it
	// current between polls.
	polledDepth atomic.Int64
	outstanding atomic.Int64

	// Counters, exported into the router's /stats cluster block.
	forwards   atomic.Uint64 // attempts dispatched over obwire
	completed  atomic.Uint64 // answered StatusOK or machine error (executed)
	rejected   atomic.Uint64 // answered StatusOverloaded
	shed       atomic.Uint64 // answered StatusShed
	transport  atomic.Uint64 // attempts lost to connection errors
	opens      atomic.Uint64 // breaker openings (entered StateDown)
	probes     atomic.Uint64 // half-open probes attempted
	recoveries atomic.Uint64 // breaker closings (probe succeeded)
	pollFails  atomic.Uint64 // polls that got no pong or a not-ready one
}

// connSlot is one persistent mux connection to the node, lazily dialed
// and redialed with a capped backoff so a dead node is not hammered by
// every forward that lands on the slot.
type connSlot struct {
	mu       sync.Mutex
	c        *obwire.MuxClient
	fails    int
	nextDial time.Time
}

func newNode(httpAddr, binAddr string, cfg *Config) *Node {
	n := &Node{HTTPAddr: httpAddr, BinAddr: binAddr, cfg: cfg}
	n.slots = make([]*connSlot, cfg.ConnsPerNode)
	for i := range n.slots {
		n.slots[i] = &connSlot{}
	}
	return n
}

// State answers the node's current health state.
func (n *Node) State() State { return State(n.state.Load()) }

// Routable reports whether the router may send this node new work:
// healthy or merely suspect, and not draining. Down and probing nodes
// receive nothing (the probe itself goes around this).
func (n *Node) Routable() bool {
	if n.draining.Load() {
		return false
	}
	s := State(n.state.Load())
	return s == StateHealthy || s == StateSuspect
}

// depth is the JSQ load signal: last polled backlog plus the router's
// own outstanding forwards.
func (n *Node) depth() int64 {
	return n.polledDepth.Load() + n.outstanding.Load()
}

// signalOK records a success from the data path: failures stop being
// consecutive, and a suspect node is vindicated. Breaker states are
// left to the prober — a stray late success must not close a breaker
// the poller just opened.
func (n *Node) signalOK() {
	if State(n.state.Load()) == StateHealthy {
		// Fast path: nothing to reset racing against matters — a
		// concurrent fail() re-checks state under mu anyway.
		return
	}
	n.mu.Lock()
	n.consecFails = 0
	if State(n.state.Load()) == StateSuspect {
		n.state.Store(int32(StateHealthy))
	}
	n.mu.Unlock()
}

// signalTransport records a lost forward: the hard failure signal.
func (n *Node) signalTransport() {
	n.transport.Add(1)
	n.fail()
}

// signalRefused records an in-band refusal (overload or shed): the
// node is alive but pushing back. It marks a healthy node suspect —
// steering keyless traffic away — without charging the breaker.
func (n *Node) signalRefused(status uint8) {
	if status == obwire.StatusShed {
		n.shed.Add(1)
	} else {
		n.rejected.Add(1)
	}
	n.mu.Lock()
	if State(n.state.Load()) == StateHealthy {
		n.state.Store(int32(StateSuspect))
	}
	n.mu.Unlock()
}

// fail is the shared hard-failure transition: healthy → suspect on the
// first, suspect → down (breaker opens) at the threshold, probing →
// down (probe failed, cooldown re-arms).
func (n *Node) fail() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.consecFails++
	switch State(n.state.Load()) {
	case StateHealthy:
		n.state.Store(int32(StateSuspect))
	case StateSuspect:
		if n.consecFails >= n.cfg.FailThreshold {
			n.open()
		}
	case StateProbing:
		n.open()
	}
}

// open opens the breaker (mu held): the node goes down and the
// cooldown clock starts.
func (n *Node) open() {
	n.state.Store(int32(StateDown))
	n.downSince = time.Now()
	n.opens.Add(1)
}

// pollOK records a ready pong or a successful probe: the machine
// returns to healthy from anywhere, closing the breaker if it was
// half-open.
func (n *Node) pollOK() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.consecFails = 0
	n.notReady = ""
	n.draining.Store(false)
	switch State(n.state.Load()) {
	case StateHealthy:
	case StateProbing, StateDown:
		// Down → healthy directly happens only when a poll that began
		// pre-open lands late; either way the node proved itself.
		n.recoveries.Add(1)
		n.state.Store(int32(StateHealthy))
	default:
		n.state.Store(int32(StateHealthy))
	}
}

// pollNotReady records a pong's not-ready reason. Draining and
// rotating nodes are leaving or mid-swap: unroutable, but deliberately
// so — the breaker is not charged. Every other reason (overloaded,
// quarantine-heavy, or anything new) is a failure signal.
func (n *Node) pollNotReady(reason string) {
	n.pollFails.Add(1)
	n.mu.Lock()
	n.notReady = reason
	n.mu.Unlock()
	switch reason {
	case "draining", "rotating":
		n.draining.Store(true)
	default:
		n.fail()
	}
}

// pollFailed records a poll that got no pong at all.
func (n *Node) pollFailed() {
	n.pollFails.Add(1)
	n.fail()
}

// beginProbe moves a down node whose cooldown has elapsed into the
// half-open state, claiming the single probe slot. It reports whether
// the caller now owns the probe.
func (n *Node) beginProbe() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if State(n.state.Load()) != StateDown || time.Since(n.downSince) < n.cfg.Cooldown {
		return false
	}
	n.state.Store(int32(StateProbing))
	n.probes.Add(1)
	return true
}

// Do forwards one request over the node's connection pool. A returned
// error is transport-level: the send may or may not have executed, and
// the slot it used has been dropped for redial. In-band refusals come
// back in the Response, and so does a full connection window: nothing
// was sent on a healthy connection, so it is answered StatusOverloaded
// and the connection kept.
func (n *Node) Do(req serve.Request) (obwire.Response, error) {
	n.outstanding.Add(1)
	defer n.outstanding.Add(-1)
	n.forwards.Add(1)
	slot := n.slots[n.rr.Add(1)%uint64(len(n.slots))]
	c, err := slot.client(n.BinAddr)
	if err != nil {
		return obwire.Response{}, err
	}
	resp, err := c.Do(req)
	if errors.Is(err, obwire.ErrWindowFull) {
		return obwire.Response{Status: obwire.StatusOverloaded, Err: err.Error()}, nil
	}
	if err != nil {
		slot.dropped(c)
		return obwire.Response{}, err
	}
	return resp, nil
}

// ping sends one health ping on the node's control connection, dialing
// it if needed, and answers the pong's queue depth and not-ready reason.
// The connection carries nothing else, so a ping never waits behind
// sends, and a failed ping drops only it.
func (n *Node) ping(timeout time.Duration) (int64, string, error) {
	c, err := n.ctl.client(n.BinAddr)
	if err != nil {
		return 0, "", err
	}
	depth, reason, err := c.Ping(timeout)
	if err != nil {
		n.ctl.dropped(c)
	}
	return depth, reason, err
}

// client hands out the slot's connection, dialing when there is none.
// Redials back off exponentially (capped at 2s): within the backoff
// window the slot fails fast instead of re-hammering a dead address.
func (s *connSlot) client(addr string) (*obwire.MuxClient, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.c != nil {
		if s.c.Err() == nil {
			return s.c, nil
		}
		s.c.Close()
		s.c = nil
	}
	if !s.nextDial.IsZero() && time.Now().Before(s.nextDial) {
		return nil, fmt.Errorf("cluster: %s: redial backing off", addr)
	}
	c, err := obwire.DialMux(addr)
	if err != nil {
		s.fails++
		d := time.Duration(50*time.Millisecond) << min(s.fails-1, 5)
		if d > 2*time.Second {
			d = 2 * time.Second
		}
		s.nextDial = time.Now().Add(d)
		return nil, err
	}
	s.fails = 0
	s.nextDial = time.Time{}
	s.c = c
	return c, nil
}

// dropped discards a connection after a transport error, unless the
// slot already moved on to a fresh one.
func (s *connSlot) dropped(c *obwire.MuxClient) {
	s.mu.Lock()
	if s.c == c {
		s.c = nil
	}
	s.mu.Unlock()
	c.Close()
}

// closeConns tears the connections down (node removed or router
// stopping).
func (n *Node) closeConns() {
	for _, s := range n.slots {
		s.close()
	}
	n.ctl.close()
}

// close closes the slot's connection, if it holds one.
func (s *connSlot) close() {
	s.mu.Lock()
	if s.c != nil {
		s.c.Close()
		s.c = nil
	}
	s.mu.Unlock()
}

// NodeStats is one node's row in the router's /stats cluster block.
type NodeStats struct {
	HTTPAddr       string `json:"http_addr"`
	BinAddr        string `json:"bin_addr"`
	State          string `json:"state"`
	NotReadyReason string `json:"not_ready_reason,omitempty"`
	QueueDepth     int64  `json:"queue_depth"`
	Outstanding    int64  `json:"outstanding"`
	Forwards       uint64 `json:"forwards"`
	Completed      uint64 `json:"completed"`
	Rejected       uint64 `json:"rejected"`
	Shed           uint64 `json:"shed"`
	TransportErrs  uint64 `json:"transport_errors"`
	BreakerOpens   uint64 `json:"breaker_opens"`
	Probes         uint64 `json:"probes"`
	Recoveries     uint64 `json:"recoveries"`
	PollFails      uint64 `json:"poll_failures"`
}

// Stats snapshots the node for the cluster block.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	reason := n.notReady
	n.mu.Unlock()
	return NodeStats{
		HTTPAddr:       n.HTTPAddr,
		BinAddr:        n.BinAddr,
		State:          n.State().String(),
		NotReadyReason: reason,
		QueueDepth:     n.polledDepth.Load(),
		Outstanding:    n.outstanding.Load(),
		Forwards:       n.forwards.Load(),
		Completed:      n.completed.Load(),
		Rejected:       n.rejected.Load(),
		Shed:           n.shed.Load(),
		TransportErrs:  n.transport.Load(),
		BreakerOpens:   n.opens.Load(),
		Probes:         n.probes.Load(),
		Recoveries:     n.recoveries.Load(),
		PollFails:      n.pollFails.Load(),
	}
}
