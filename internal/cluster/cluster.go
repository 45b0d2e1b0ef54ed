// Package cluster is the fault-tolerant front tier over a set of
// obarchd nodes: a consistent-hash ring for affinity keys, cluster-wide
// power-of-two-choices JSQ for keyless sends, per-node health machines
// with circuit breakers, and budget-bounded failover of retryable
// refusals — so one node dying mid-traffic is a routing event, not a
// client-visible outage.
//
// The Router reaches its backends over obwire alone: a small pool of
// multiplexed connections per node for sends, and one control connection
// per node that it pings every PollInterval. The pong carries the node's
// queue depth and not-ready reason. Signals from the data path
// (transport errors, in-band refusals) feed the same health machine, so
// a killed node is suspected on the first lost frame rather than at the
// next poll tick.
//
// Failover policy follows the refusal taxonomy end to end: transport
// errors and shed responses (StatusShed — the work expired unexecuted)
// fail over to the next candidate; overload refusals (StatusOverloaded
// — refused at admission, nothing ran) likewise, and a full connection
// window (obwire.ErrWindowFull — nothing was sent) counts as one,
// keeping its healthy connection; machine errors never do (the send
// executed and failed — retrying it elsewhere would be a correctness
// bug, not resilience). The failover budget, one attempt per node and
// at least two, bounds the walk, so a cluster-wide brownout degrades
// into fast refusals instead of retry storms.
//
// Delivery contract: Router.Send is at-least-once under transport
// failover. A transport error leaves unknown whether the node ran the
// frame before its connection died, and the send moves on to the next
// candidate, so one request can execute on two nodes
// (TestRouterFailoverOnKill and ci/clusterkill.sh drive this path). A
// refusal ran nothing, so failing it over runs the request at most once
// (TestRouterShedFailsOver). Successes and machine errors are returned
// as they are and never resent.
package cluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obwire"
	"repro/internal/serve"
)

// ErrNoBackends is returned by Send when no routable node exists (all
// down, draining, or removed). It is a retryable condition: the router
// surfaces it as 503 + Retry-After, and recovery needs only one
// half-open probe to succeed.
var ErrNoBackends = errors.New("cluster: no routable backends")

// ErrInvalidNode is wrapped by Join's refusal of a NodeSpec whose
// addresses are not both host:port with a numeric port in 1–65535: a node
// that can never be reached must not join and count against the quorum.
var ErrInvalidNode = errors.New("cluster: invalid node address")

// NodeSpec names one backend: its HTTP control plane address, which
// the router itself never dials (obrouter proxies /programs to it), and
// its obwire address, which carries the sends and the health pings.
type NodeSpec struct {
	HTTPAddr string
	BinAddr  string
}

// Validate reports whether both addresses are host:port with a non-empty
// host and a numeric port in 1–65535; a refusal wraps ErrInvalidNode.
func (s NodeSpec) Validate() error {
	for _, a := range [...]struct{ name, addr string }{{"http_addr", s.HTTPAddr}, {"bin_addr", s.BinAddr}} {
		if err := checkHostPort(a.addr); err != nil {
			return fmt.Errorf("%w: %s %q: %v", ErrInvalidNode, a.name, a.addr, err)
		}
	}
	return nil
}

func checkHostPort(addr string) error {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return err
	}
	if host == "" {
		return errors.New("missing host")
	}
	if n, err := strconv.ParseUint(port, 10, 16); err != nil || n == 0 {
		return fmt.Errorf("port %q is not a number in 1-65535", port)
	}
	return nil
}

const (
	// pingTimeout bounds every health check: each poll and each
	// half-open probe is one obwire ping.
	pingTimeout = time.Second
	// minFailoverBudget is the least number of routing attempts per
	// send; a send may try every node, and at least this many.
	minFailoverBudget = 2
)

// Config tunes a Router. Zero values take the documented defaults.
type Config struct {
	// Nodes is the initial membership.
	Nodes []NodeSpec
	// ConnsPerNode sizes each node's mux connection pool (default 2:
	// one connection saturates far beyond a node's serving capacity,
	// the second rides through a single conn dying).
	ConnsPerNode int
	// PollInterval spaces the per-node health pings (default 500ms).
	PollInterval time.Duration
	// FailThreshold is how many consecutive hard failures move a
	// suspect node down (default 3).
	FailThreshold int
	// Cooldown is how long a breaker stays open before the half-open
	// probe (default 2s).
	Cooldown time.Duration
	// Vnodes is the consistent-hash points per node (default 64).
	Vnodes int
	// Logf, when set, receives health transitions and probe errors.
	Logf func(format string, v ...any)
}

func (c *Config) withDefaults() {
	if c.ConnsPerNode <= 0 {
		c.ConnsPerNode = 2
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 500 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.Vnodes <= 0 {
		c.Vnodes = 64
	}
}

// membership is one immutable view of the node set; Join/Leave swap in
// a new one, in-flight sends finish against the one they loaded.
type membership struct {
	ring  *ring
	nodes []*Node
}

// Router routes sends across the cluster. Safe for concurrent use.
type Router struct {
	cfg Config

	view atomic.Pointer[membership]

	mu      sync.Mutex // guards membership changes and pollers
	pollers map[*Node]chan struct{}
	closed  bool

	sends              atomic.Uint64
	failoversRefusal   atomic.Uint64 // in-band refusal routed to the next node
	failoversTransport atomic.Uint64 // transport error routed to the next node
	exhausted          atomic.Uint64 // budget ran out; refusal surfaced to client
	noBackend          atomic.Uint64 // no routable node at send time
}

// New builds a Router over the configured nodes and starts their health
// pollers.
func New(cfg Config) *Router {
	cfg.withDefaults()
	r := &Router{cfg: cfg, pollers: make(map[*Node]chan struct{})}
	nodes := make([]*Node, len(cfg.Nodes))
	for i, spec := range cfg.Nodes {
		nodes[i] = newNode(spec.HTTPAddr, spec.BinAddr, &r.cfg)
	}
	r.view.Store(&membership{ring: newRing(nodes, cfg.Vnodes), nodes: nodes})
	r.mu.Lock()
	for _, n := range nodes {
		r.startPoller(n)
	}
	r.mu.Unlock()
	return r
}

// Close stops the pollers and tears down every node's connections.
// In-flight Sends may fail; callers stop sending first.
func (r *Router) Close() {
	r.mu.Lock()
	r.closed = true
	for _, stop := range r.pollers {
		close(stop)
	}
	r.pollers = make(map[*Node]chan struct{})
	r.mu.Unlock()
	for _, n := range r.view.Load().nodes {
		n.closeConns()
	}
}

func (r *Router) logf(format string, v ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, v...)
	}
}

// Nodes answers the current membership's node list.
func (r *Router) Nodes() []*Node { return r.view.Load().nodes }

// Ready reports whether the cluster can still be called up: the
// router's own /readyz answer. Ready unless a strict majority of the
// membership is unroutable — one dead node of three (or one of two)
// must not take the front tier out with it.
func (r *Router) Ready() (ok bool, routable, total int) {
	nodes := r.view.Load().nodes
	for _, n := range nodes {
		if n.Routable() {
			routable++
		}
	}
	total = len(nodes)
	return total > 0 && 2*routable >= total, routable, total
}

// Send routes one request: by ring successor order when it carries an
// affinity key, by power-of-two-choices JSQ when keyless. Retryable
// outcomes — transport errors, overload refusals, sheds — fail over to
// the next candidate within the failover budget; executed sends
// (success or machine error) return immediately. The returned error is
// ErrNoBackends or a terminal transport error; refusals that survive
// the budget come back in-band as the Response's status.
func (r *Router) Send(req serve.Request) (obwire.Response, error) {
	r.sends.Add(1)
	view := r.view.Load()
	candidates := r.order(view, req.Key)
	if len(candidates.nodes) == 0 {
		r.noBackend.Add(1)
		return obwire.Response{}, ErrNoBackends
	}
	budget := max(len(view.nodes), minFailoverBudget)
	var lastResp obwire.Response
	var lastErr error
	attempts := 0
	for k := range candidates.nodes {
		if attempts >= budget {
			break
		}
		n := candidates.at(k)
		if !n.Routable() {
			continue
		}
		attempts++
		resp, err := n.Do(req)
		if err != nil {
			n.signalTransport()
			lastErr, lastResp = err, obwire.Response{}
			r.failoversTransport.Add(1)
			r.logf("cluster: %s: transport error, failing over: %v", n.BinAddr, err)
			continue
		}
		if obwire.Retryable(resp.Status) {
			n.signalRefused(resp.Status)
			lastResp, lastErr = resp, nil
			if attempts < budget {
				r.failoversRefusal.Add(1)
				continue
			}
			break
		}
		// Executed: success or machine error. Either way the send ran;
		// there is nothing to fail over.
		n.signalOK()
		n.completed.Add(1)
		return resp, nil
	}
	if lastErr == nil && lastResp == (obwire.Response{}) {
		// Every candidate was unroutable.
		r.noBackend.Add(1)
		return obwire.Response{}, ErrNoBackends
	}
	if lastErr == nil {
		// A refusal survived the budget: hand it to the client in-band,
		// exactly as a single node would have.
		r.exhausted.Add(1)
		return lastResp, nil
	}
	r.exhausted.Add(1)
	return obwire.Response{}, lastErr
}

// candidates is one send's routing and failover order, walked by index
// so that building it allocates nothing.
type candidates struct {
	nodes []*Node // keyed: ring successors in order; keyless: the membership
	first int     // keyless: the P2C pick; -1 when nodes is already in order
	off   int     // keyless: where the walk over the other nodes starts
}

// at answers the k'th candidate. For a keyless send that is the P2C
// pick, then every other node once, in rotation from off.
func (c candidates) at(k int) *Node {
	if c.first < 0 {
		return c.nodes[k]
	}
	if k == 0 {
		return c.nodes[c.first]
	}
	i := (c.off + k - 1) % (len(c.nodes) - 1)
	if i >= c.first {
		i++
	}
	return c.nodes[i]
}

// order answers the candidates for one send: ring successors for a
// keyed request; for a keyless one, the shorter-queued of two random
// nodes (power of two choices over polled depth plus our own
// outstanding counts), then the rest from a random offset, so a dead
// pick's failovers spread over the survivors instead of herding onto
// one neighbour.
func (r *Router) order(view *membership, key uint64) candidates {
	if key != 0 {
		return candidates{nodes: view.ring.successors(key), first: -1}
	}
	nodes := view.nodes
	if len(nodes) < 2 {
		return candidates{nodes: nodes, first: -1}
	}
	a, b := rand.IntN(len(nodes)), rand.IntN(len(nodes)-1)
	if b >= a {
		b++
	}
	if nodes[b].depth() < nodes[a].depth() {
		a = b
	}
	return candidates{nodes: nodes, first: a, off: rand.IntN(len(nodes) - 1)}
}

// Join adds a node to the membership and starts its poller. The ring
// reshapes, and keys that move land on the new node at once: a node
// joins healthy, and its first poll, which runs immediately, takes it
// out again if its pong says it is not ready. In-flight sends finish on
// the membership they loaded.
// A spec that fails Validate, a BinAddr already in the membership and a
// closed router are refused with the membership unchanged.
func (r *Router) Join(spec NodeSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return errors.New("cluster: router closed")
	}
	old := r.view.Load()
	for _, n := range old.nodes {
		if n.BinAddr == spec.BinAddr {
			return fmt.Errorf("cluster: node %s already joined", spec.BinAddr)
		}
	}
	n := newNode(spec.HTTPAddr, spec.BinAddr, &r.cfg)
	nodes := append(append([]*Node(nil), old.nodes...), n)
	r.view.Store(&membership{ring: newRing(nodes, r.cfg.Vnodes), nodes: nodes})
	r.startPoller(n)
	r.logf("cluster: joined %s (%s)", spec.BinAddr, spec.HTTPAddr)
	return nil
}

// Leave removes a node. In-flight sends against it finish (the node
// object and its connections outlive the membership), new sends stop
// immediately, and the connections close once the outstanding count
// drains.
func (r *Router) Leave(binAddr string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.view.Load()
	var gone *Node
	nodes := make([]*Node, 0, len(old.nodes))
	for _, n := range old.nodes {
		if n.BinAddr == binAddr {
			gone = n
			continue
		}
		nodes = append(nodes, n)
	}
	if gone == nil {
		return fmt.Errorf("cluster: node %s not in membership", binAddr)
	}
	r.view.Store(&membership{ring: newRing(nodes, r.cfg.Vnodes), nodes: nodes})
	if stop, ok := r.pollers[gone]; ok {
		close(stop)
		delete(r.pollers, gone)
	}
	// Close the pool once in-flight work drains — without dropping it.
	go func(n *Node) {
		deadline := time.Now().Add(30 * time.Second)
		for n.outstanding.Load() > 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		n.closeConns()
	}(gone)
	r.logf("cluster: left %s", binAddr)
	return nil
}

// startPoller spins up the node's health poll loop (mu held).
func (r *Router) startPoller(n *Node) {
	stop := make(chan struct{})
	r.pollers[n] = stop
	go r.pollLoop(n, stop)
}

// pollLoop drives the node's slow health signal: a ping on every tick
// while the node is up, and the half-open probe once a down node's
// cooldown elapses. The first poll runs immediately so a fresh router
// converges before its first send. The loop closes the control
// connection when it stops, in case a poll redialed it after Leave or
// Close tore the node's connections down.
func (r *Router) pollLoop(n *Node, stop chan struct{}) {
	t := time.NewTicker(r.cfg.PollInterval)
	defer t.Stop()
	defer n.ctl.close()
	for {
		r.pollOnce(n)
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// pollOnce runs one health check, one ping. Any pong refreshes the JSQ
// load signal. Down nodes are probed (half-open) only after the cooldown
// — no traffic, not even polls, hammers an open breaker — and only a pong
// that says ready closes the breaker: a process that accepts TCP but
// cannot serve frames stays down.
func (r *Router) pollOnce(n *Node) {
	probe := n.State() == StateDown
	if probe && !n.beginProbe() {
		return
	}
	depth, reason, err := n.ping(pingTimeout)
	if err == nil {
		n.polledDepth.Store(depth)
	}
	switch {
	case probe && err == nil && reason == "":
		n.pollOK()
		r.logf("cluster: %s: probe succeeded, breaker closed", n.BinAddr)
	case probe:
		n.fail()
		if err == nil {
			err = errors.New("not ready: " + reason)
		}
		r.logf("cluster: %s: probe: %v", n.BinAddr, err)
	case err != nil:
		n.pollFailed()
	case reason != "":
		n.pollNotReady(reason)
	default:
		n.pollOK()
	}
}

// Stats is the router's cluster block: per-node rows plus the routing
// counters.
type Stats struct {
	Nodes              []NodeStats `json:"nodes"`
	Routable           int         `json:"routable"`
	Quorum             bool        `json:"quorum"`
	Sends              uint64      `json:"sends"`
	FailoversRefusal   uint64      `json:"failovers_refusal"`
	FailoversTransport uint64      `json:"failovers_transport"`
	Exhausted          uint64      `json:"exhausted"`
	NoBackend          uint64      `json:"no_backend"`
}

// Stats snapshots the router.
func (r *Router) Stats() Stats {
	quorum, routable, _ := r.Ready()
	nodes := r.view.Load().nodes
	s := Stats{
		Nodes:              make([]NodeStats, len(nodes)),
		Routable:           routable,
		Quorum:             quorum,
		Sends:              r.sends.Load(),
		FailoversRefusal:   r.failoversRefusal.Load(),
		FailoversTransport: r.failoversTransport.Load(),
		Exhausted:          r.exhausted.Load(),
		NoBackend:          r.noBackend.Load(),
	}
	for i, n := range nodes {
		s.Nodes[i] = n.Stats()
	}
	return s
}
