package cluster

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/smalltalk"
	"repro/internal/word"
)

// testNode is one in-process backend: a pool on the answer image and
// its obwire listener. Its HTTP address is a closed port, so every
// health signal the router reads comes over obwire.
type testNode struct {
	pool     *serve.Pool
	srv      *obwire.Server
	binAddr  string
	httpAddr string
}

func answerSnapshot(t *testing.T) *core.Snapshot {
	t.Helper()
	m := core.New(core.Config{})
	c, err := smalltalk.Compile(`
extend SmallInt [
	method answer [ ^self + 1 ]
]`)
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

func startTestNode(t *testing.T, snap *core.Snapshot, cfg serve.Config) *testNode {
	t.Helper()
	n := &testNode{pool: serve.NewPool(snap, cfg), httpAddr: closedAddr(t)}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.srv = obwire.Serve(l, n.pool, obwire.Options{})
	n.binAddr = l.Addr().String()
	t.Cleanup(func() { n.stop(t) })
	return n
}

// closedAddr answers a loopback address nothing listens on.
func closedAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

func (n *testNode) stop(t *testing.T) {
	t.Helper()
	if n.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		n.srv.Shutdown(ctx)
		cancel()
		n.srv = nil
		n.pool.Close()
	}
}

// kill simulates SIGKILL: the listener vanishes, nothing drains
// gracefully.
func (n *testNode) kill() {
	if n.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		n.srv.Shutdown(ctx)
		cancel()
		n.srv = nil
		n.pool.Close()
	}
}

func (n *testNode) spec() NodeSpec { return NodeSpec{HTTPAddr: n.httpAddr, BinAddr: n.binAddr} }

func testRouter(t *testing.T, backends []*testNode, tune func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		PollInterval:  25 * time.Millisecond,
		FailThreshold: 2,
		Cooldown:      100 * time.Millisecond,
		Vnodes:        16,
	}
	for _, b := range backends {
		cfg.Nodes = append(cfg.Nodes, b.spec())
	}
	if tune != nil {
		tune(&cfg)
	}
	r := New(cfg)
	t.Cleanup(r.Close)
	return r
}

func waitState(t *testing.T, r *Router, binAddr string, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, n := range r.Nodes() {
			if n.BinAddr == binAddr && n.State() == want {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	var states []string
	for _, n := range r.Nodes() {
		states = append(states, fmt.Sprintf("%s=%s", n.BinAddr, n.State()))
	}
	t.Fatalf("node %s never reached %s (states: %v)", binAddr, want, states)
}

// TestRingDeterministic pins that key→node assignment is a pure
// function of the membership: two rings over the same nodes agree on
// every key, and successor lists hit each node exactly once.
func TestRingDeterministic(t *testing.T) {
	cfg := &Config{ConnsPerNode: 1}
	var nodes []*Node
	for i := 0; i < 5; i++ {
		nodes = append(nodes, newNode(fmt.Sprintf("h%d", i), fmt.Sprintf("b%d", i), cfg))
	}
	r1, r2 := newRing(nodes, 64), newRing(nodes, 64)
	for key := uint64(1); key <= 1000; key++ {
		if r1.owner(key) != r2.owner(key) {
			t.Fatalf("key %d: owner differs between identical rings", key)
		}
		succ := r1.successors(key)
		if len(succ) != len(nodes) {
			t.Fatalf("key %d: %d successors, want %d", key, len(succ), len(nodes))
		}
		seen := map[*Node]bool{}
		for _, n := range succ {
			if seen[n] {
				t.Fatalf("key %d: duplicate node in successor order", key)
			}
			seen[n] = true
		}
		if succ[0] != r1.owner(key) {
			t.Fatalf("key %d: successors[0] is not the owner", key)
		}
	}
}

// walkSuccessors is the successor order as the walk defines it, built
// per call: the reference the ring's precomputed table must match.
func walkSuccessors(r *ring, key uint64) []*Node {
	if len(r.points) == 0 {
		return nil
	}
	h := splitmix64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]*Node, 0, len(r.nodes))
	seen := make(map[*Node]struct{}, len(r.nodes))
	for k := 0; k < len(r.points) && len(out) < len(r.nodes); k++ {
		p := r.points[(i+k)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}

// TestRingSuccessorsMatchWalk pins the precomputed successor table to
// the clockwise walk it replaces: the same order for every key, over
// one to five nodes.
func TestRingSuccessorsMatchWalk(t *testing.T) {
	cfg := &Config{ConnsPerNode: 1}
	for size := 1; size <= 5; size++ {
		var nodes []*Node
		for i := 0; i < size; i++ {
			nodes = append(nodes, newNode(fmt.Sprintf("h%d", i), fmt.Sprintf("b%d", i), cfg))
		}
		r := newRing(nodes, 64)
		for key := uint64(1); key <= 1000; key++ {
			got, want := r.successors(key), walkSuccessors(r, key)
			if !slices.Equal(got, want) {
				t.Fatalf("size %d key %d: successors differ from the walk", size, key)
			}
		}
	}
}

// TestRingSpread sanity-checks the vnode spread: over many keys every
// node owns a non-trivial share — no node starves, no node hoards.
func TestRingSpread(t *testing.T) {
	cfg := &Config{ConnsPerNode: 1}
	var nodes []*Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, newNode(fmt.Sprintf("h%d", i), fmt.Sprintf("b%d", i), cfg))
	}
	r := newRing(nodes, 64)
	counts := map[*Node]int{}
	const keys = 30000
	for key := uint64(1); key <= keys; key++ {
		counts[r.owner(key)]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / keys
		if share < 0.15 || share > 0.55 {
			t.Errorf("node %s owns %.1f%% of keys, want a sane share of 1/3", n.BinAddr, share*100)
		}
	}
}

// TestRingMinimalReshape pins the consistent part of consistent
// hashing: removing one of three nodes must not move keys between the
// two survivors.
func TestRingMinimalReshape(t *testing.T) {
	cfg := &Config{ConnsPerNode: 1}
	var nodes []*Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, newNode(fmt.Sprintf("h%d", i), fmt.Sprintf("b%d", i), cfg))
	}
	full := newRing(nodes, 64)
	reduced := newRing(nodes[:2], 64)
	for key := uint64(1); key <= 5000; key++ {
		before := full.owner(key)
		after := reduced.owner(key)
		if before != nodes[2] && after != before {
			t.Fatalf("key %d moved from surviving node %s to %s when an unrelated node left",
				key, before.BinAddr, after.BinAddr)
		}
	}
}

// TestHealthMachine drives the state machine directly through its
// transitions: healthy → suspect on first failure, down at the
// threshold, half-open probe after cooldown, healthy on probe success
// — and in-band refusals mark suspect without charging the breaker.
func TestHealthMachine(t *testing.T) {
	cfg := &Config{ConnsPerNode: 1, FailThreshold: 2, Cooldown: 20 * time.Millisecond}
	n := newNode("h", "b", cfg)

	if got := n.State(); got != StateHealthy {
		t.Fatalf("initial state %v, want healthy", got)
	}
	n.signalRefused(obwire.StatusShed)
	if got := n.State(); got != StateSuspect {
		t.Fatalf("after shed: %v, want suspect (refusals steer, not break)", got)
	}
	if n.opens.Load() != 0 {
		t.Fatal("a shed opened the breaker")
	}
	n.signalOK()
	if got := n.State(); got != StateHealthy {
		t.Fatalf("after success: %v, want healthy", got)
	}

	n.signalTransport()
	if got := n.State(); got != StateSuspect {
		t.Fatalf("after 1 transport error: %v, want suspect", got)
	}
	if !n.Routable() {
		t.Fatal("suspect node must stay routable")
	}
	n.signalTransport()
	if got := n.State(); got != StateDown {
		t.Fatalf("after %d transport errors: %v, want down", cfg.FailThreshold, got)
	}
	if n.Routable() {
		t.Fatal("down node must not be routable")
	}
	if n.opens.Load() != 1 {
		t.Fatalf("breaker opens = %d, want 1", n.opens.Load())
	}

	if n.beginProbe() {
		t.Fatal("probe began before cooldown elapsed")
	}
	time.Sleep(cfg.Cooldown + 5*time.Millisecond)
	if !n.beginProbe() {
		t.Fatal("probe refused after cooldown")
	}
	if got := n.State(); got != StateProbing {
		t.Fatalf("during probe: %v, want probing", got)
	}
	if n.beginProbe() {
		t.Fatal("second concurrent probe admitted")
	}
	n.pollOK()
	if got := n.State(); got != StateHealthy {
		t.Fatalf("after probe success: %v, want healthy", got)
	}
	if n.recoveries.Load() != 1 {
		t.Fatalf("recoveries = %d, want 1", n.recoveries.Load())
	}

	// A failed probe re-arms the breaker for another cooldown.
	n.signalTransport()
	n.signalTransport()
	time.Sleep(cfg.Cooldown + 5*time.Millisecond)
	if !n.beginProbe() {
		t.Fatal("second down cycle: probe refused")
	}
	n.fail()
	if got := n.State(); got != StateDown {
		t.Fatalf("after failed probe: %v, want down", got)
	}
	if n.opens.Load() != 3 {
		t.Fatalf("breaker opens = %d, want 3 (two cycles + re-arm)", n.opens.Load())
	}
}

// TestDrainingUnroutableNotBroken pins the readyz reason taxonomy: a
// draining node leaves the routable set without its breaker opening,
// and rejoins the moment it reports ready.
func TestDrainingUnroutableNotBroken(t *testing.T) {
	cfg := &Config{ConnsPerNode: 1, FailThreshold: 2, Cooldown: time.Minute}
	n := newNode("h", "b", cfg)
	for i := 0; i < 10; i++ {
		n.pollNotReady("draining")
	}
	if n.Routable() {
		t.Fatal("draining node still routable")
	}
	if got := n.State(); got == StateDown {
		t.Fatal("draining opened the breaker")
	}
	n.pollOK()
	if !n.Routable() {
		t.Fatal("node did not rejoin after drain ended")
	}

	// "overloaded" is a real failure signal and does open the breaker.
	for i := 0; i < 10; i++ {
		n.pollNotReady("overloaded")
	}
	if got := n.State(); got != StateDown {
		t.Fatalf("sustained overloaded readyz: %v, want down", got)
	}
}

// TestRouterSendsSpread runs keyless traffic through two live backends
// and checks both serve some of it.
func TestRouterSendsSpread(t *testing.T) {
	snap := answerSnapshot(t)
	a := startTestNode(t, snap, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	b := startTestNode(t, snap, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	r := testRouter(t, []*testNode{a, b}, nil)

	for i := 0; i < 200; i++ {
		resp, err := r.Send(serve.Request{Receiver: word.FromInt(int32(i)), Selector: "answer"})
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if !resp.OK() {
			t.Fatalf("send %d: status %d: %s", i, resp.Status, resp.Err)
		}
		if v, _ := resp.Value.IntOK(); v != int32(i)+1 {
			t.Fatalf("send %d: got %v", i, resp.Value)
		}
	}
	st := r.Stats()
	for _, ns := range st.Nodes {
		if ns.Completed == 0 {
			t.Errorf("node %s completed nothing; keyless spread is broken", ns.BinAddr)
		}
	}
}

// TestKeylessOrder pins the keyless candidate walk: the first candidate
// is the shallower of two distinct nodes, so the deepest never leads,
// and the walk then visits every other node exactly once. Over many
// draws every non-deepest node leads and, from three nodes up, every
// node is tried second.
func TestKeylessOrder(t *testing.T) {
	cfg := Config{ConnsPerNode: 1}
	for size := 1; size <= 5; size++ {
		nodes := make([]*Node, size)
		for i := range nodes {
			nodes[i] = newNode("", fmt.Sprintf("node%d", i), &cfg)
			nodes[i].polledDepth.Store(int64(i)) // node size-1 is the deepest
		}
		r := &Router{}
		view := &membership{nodes: nodes}
		led := make(map[*Node]bool)
		second := make(map[*Node]bool)
		for draw := 0; draw < 500; draw++ {
			c := r.order(view, 0)
			if len(c.nodes) != size {
				t.Fatalf("size %d: %d candidates", size, len(c.nodes))
			}
			seen := make(map[*Node]bool)
			for k := range c.nodes {
				n := c.at(k)
				if seen[n] {
					t.Fatalf("size %d: %s visited twice", size, n.BinAddr)
				}
				seen[n] = true
			}
			first := c.at(0)
			if size > 1 && first == nodes[size-1] {
				t.Fatalf("size %d: the deepest node led a P2C pick", size)
			}
			led[first] = true
			if size > 1 {
				second[c.at(1)] = true
			}
		}
		if want := max(size-1, 1); len(led) != want {
			t.Errorf("size %d: %d distinct leaders, want %d", size, len(led), want)
		}
		if size > 2 && len(second) != size {
			t.Errorf("size %d: %d distinct second candidates, want %d", size, len(second), size)
		}
	}
}

// TestKeylessSendNoAlloc pins that routing a keyless send allocates
// nothing: candidate selection, the mux connection and the backend's
// obwire loop all run in this process and are all counted.
func TestKeylessSendNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool reuse; allocation bar is enforced by the bench gate")
	}
	snap := answerSnapshot(t)
	a := startTestNode(t, snap, serve.Config{Workers: 1, GCEvery: -1, Timeout: 10 * time.Second})
	b := startTestNode(t, snap, serve.Config{Workers: 1, GCEvery: -1, Timeout: 10 * time.Second})
	// Polls allocate; after the first one, keep them out of the window.
	r := testRouter(t, []*testNode{a, b}, func(c *Config) { c.PollInterval = time.Hour })
	deadline := time.Now().Add(5 * time.Second)
	for ok, _, _ := r.Ready(); !ok; ok, _, _ = r.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("router never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req := serve.Request{Receiver: word.FromInt(20), Selector: "answer"}
	send := func() {
		resp, err := r.Send(req)
		if err != nil || !resp.OK() {
			t.Fatalf("send: %v %v", resp, err)
		}
	}
	// Warm: dial every node's connections and fill the per-connection
	// buffers and selector caches on both sides.
	for i := 0; i < 64; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Errorf("keyless Router.Send: %v allocs/op, want 0", allocs)
	}
}

// TestKeyedSendNoAlloc is TestKeylessSendNoAlloc for keyed sends: the
// ring lookup that orders a keyed send's candidates allocates nothing.
func TestKeyedSendNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool reuse; allocation bar is enforced by the bench gate")
	}
	snap := answerSnapshot(t)
	a := startTestNode(t, snap, serve.Config{Workers: 1, GCEvery: -1, Timeout: 10 * time.Second})
	b := startTestNode(t, snap, serve.Config{Workers: 1, GCEvery: -1, Timeout: 10 * time.Second})
	r := testRouter(t, []*testNode{a, b}, func(c *Config) { c.PollInterval = time.Hour })
	deadline := time.Now().Add(5 * time.Second)
	for ok, _, _ := r.Ready(); !ok; ok, _, _ = r.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("router never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
	key := uint64(0)
	send := func() {
		key = key%8 + 1
		resp, err := r.Send(serve.Request{Receiver: word.FromInt(20), Selector: "answer", Key: key})
		if err != nil || !resp.OK() {
			t.Fatalf("send: %v %v", resp, err)
		}
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Errorf("keyed Router.Send: %v allocs/op, want 0", allocs)
	}
}

// TestRouterKeyedAffinity pins that a keyed send lands on its ring
// owner every time while the owner is healthy.
func TestRouterKeyedAffinity(t *testing.T) {
	snap := answerSnapshot(t)
	a := startTestNode(t, snap, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	b := startTestNode(t, snap, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	r := testRouter(t, []*testNode{a, b}, nil)

	const key = 424242
	owner := r.view.Load().ring.owner(key)
	for i := 0; i < 50; i++ {
		resp, err := r.Send(serve.Request{Receiver: word.FromInt(1), Selector: "answer", Key: key})
		if err != nil || !resp.OK() {
			t.Fatalf("keyed send %d: %v (status %d)", i, err, resp.Status)
		}
	}
	if owner.completed.Load() != 50 {
		t.Fatalf("owner completed %d of 50 keyed sends; affinity leaked", owner.completed.Load())
	}
}

// TestRouterFailoverOnKill is the in-process node-kill drill: kill one
// of two backends mid-traffic and require every send to keep
// succeeding (failover makes the kill invisible), the dead node's
// breaker to open, and — after the node returns on the same address —
// the half-open probe to close the breaker and traffic to flow to it
// again.
func TestRouterFailoverOnKill(t *testing.T) {
	snap := answerSnapshot(t)
	a := startTestNode(t, snap, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	b := startTestNode(t, snap, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	r := testRouter(t, []*testNode{a, b}, nil)

	send := func(i int) {
		t.Helper()
		resp, err := r.Send(serve.Request{Receiver: word.FromInt(int32(i)), Selector: "answer"})
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if !resp.OK() {
			t.Fatalf("send %d: status %d: %s", i, resp.Status, resp.Err)
		}
	}

	for i := 0; i < 50; i++ {
		send(i)
	}

	// SIGKILL node b: its listener vanishes, in-flight conns break.
	binAddr := b.binAddr
	b.kill()
	for i := 0; i < 200; i++ {
		send(1000 + i) // every send must still succeed via failover
	}
	waitState(t, r, binAddr, StateDown)
	if ok, routable, total := r.Ready(); !ok || routable != 1 || total != 2 {
		t.Fatalf("Ready() = %v (%d/%d), want quorum with 1 of 2", ok, routable, total)
	}

	// While the corpse is down, keyed sends homed on it must fail over.
	for i := 0; i < 50; i++ {
		resp, err := r.Send(serve.Request{Receiver: word.FromInt(1), Selector: "answer", Key: uint64(i) + 1})
		if err != nil || !resp.OK() {
			t.Fatalf("keyed send during outage: %v (status %d)", err, resp.Status)
		}
	}

	// Resurrect the node on its old address (the drill's restart).
	l, err := net.Listen("tcp", binAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", binAddr, err)
	}
	pool2 := serve.NewPool(snap, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	srv2 := obwire.Serve(l, pool2, obwire.Options{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv2.Shutdown(ctx)
		pool2.Close()
		cancel()
	})

	waitState(t, r, binAddr, StateHealthy)
	st := r.Stats()
	var row NodeStats
	for _, ns := range st.Nodes {
		if ns.BinAddr == binAddr {
			row = ns
		}
	}
	if row.BreakerOpens == 0 || row.Probes == 0 || row.Recoveries == 0 {
		t.Fatalf("recovery not via half-open probe: opens=%d probes=%d recoveries=%d",
			row.BreakerOpens, row.Probes, row.Recoveries)
	}

	// The rejoined node must receive traffic again.
	before := row.Completed
	for i := 0; i < 400; i++ {
		send(2000 + i)
	}
	var after uint64
	for _, ns := range r.Stats().Nodes {
		if ns.BinAddr == binAddr {
			after = ns.Completed
		}
	}
	if after == before {
		t.Fatal("rejoined node received no traffic")
	}
}

// TestRouterJoinLeave reshapes the membership under light traffic: a
// third node joins and starts serving; leaving it returns its keys to
// the survivors without a failed send.
func TestRouterJoinLeave(t *testing.T) {
	snap := answerSnapshot(t)
	a := startTestNode(t, snap, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	b := startTestNode(t, snap, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	c := startTestNode(t, snap, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	r := testRouter(t, []*testNode{a, b}, nil)

	if err := r.Join(c.spec()); err != nil {
		t.Fatal(err)
	}
	if err := r.Join(c.spec()); err == nil {
		t.Fatal("duplicate join accepted")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		var done int
		for i := 0; i < 60; i++ {
			resp, err := r.Send(serve.Request{Receiver: word.FromInt(1), Selector: "answer"})
			if err != nil || !resp.OK() {
				t.Fatalf("send during join: %v (status %d)", err, resp.Status)
			}
			done++
		}
		_ = done
		var joined uint64
		for _, ns := range r.Stats().Nodes {
			if ns.BinAddr == c.binAddr {
				joined = ns.Completed
			}
		}
		if joined > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("joined node never served a send")
		}
	}

	if err := r.Leave(c.binAddr); err != nil {
		t.Fatal(err)
	}
	if err := r.Leave(c.binAddr); err == nil {
		t.Fatal("double leave accepted")
	}
	if len(r.Nodes()) != 2 {
		t.Fatalf("membership size %d after leave, want 2", len(r.Nodes()))
	}
	for i := 0; i < 100; i++ {
		resp, err := r.Send(serve.Request{Receiver: word.FromInt(1), Selector: "answer", Key: uint64(i) + 1})
		if err != nil || !resp.OK() {
			t.Fatalf("send after leave: %v (status %d)", err, resp.Status)
		}
	}
}

// TestRouterNoBackends pins the all-dead answer: ErrNoBackends, not a
// hang or a panic — and quorum lost on the readiness surface.
func TestRouterNoBackends(t *testing.T) {
	snap := answerSnapshot(t)
	a := startTestNode(t, snap, serve.Config{Workers: 1, Timeout: 10 * time.Second})
	r := testRouter(t, []*testNode{a}, nil)
	a.kill()
	// Sends themselves push the health machine: after enough transport
	// errors the breaker opens and ErrNoBackends surfaces.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := r.Send(serve.Request{Receiver: word.FromInt(1), Selector: "answer"})
		if err == ErrNoBackends {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never reached ErrNoBackends after killing the only node")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ok, routable, _ := r.Ready(); ok || routable != 0 {
		t.Fatalf("Ready() = %v with %d routable, want quorum lost", ok, routable)
	}
	if r.Stats().NoBackend == 0 {
		t.Fatal("no_backend counter never ticked")
	}
}

// TestRouterShedFailsOver pins the refusal taxonomy at cluster level: a
// backend refusing at admission (maintenance mode) costs a failover to
// the healthy node, and the client sees success.
func TestRouterShedFailsOver(t *testing.T) {
	snap := answerSnapshot(t)
	refusing := startTestNode(t, snap, serve.Config{Workers: 1, MaxInFlight: -1, Timeout: 10 * time.Second})
	healthy := startTestNode(t, snap, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	// The refusing node's pongs say overloaded, and sustained overloaded
	// polls do open the breaker (TestReadinessOverObwire). Only the first
	// poll runs here, so the breaker sees the data path's refusals alone.
	r := testRouter(t, []*testNode{refusing, healthy}, func(c *Config) { c.PollInterval = time.Hour })

	for i := 0; i < 100; i++ {
		resp, err := r.Send(serve.Request{Receiver: word.FromInt(int32(i)), Selector: "answer"})
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if !resp.OK() {
			t.Fatalf("send %d: status %d (the healthy node should have absorbed it)", i, resp.Status)
		}
	}
	st := r.Stats()
	var refused uint64
	for _, ns := range st.Nodes {
		if ns.BinAddr == refusing.binAddr {
			refused = ns.Rejected
			if ns.BreakerOpens != 0 {
				t.Errorf("in-band refusals opened the breaker (%d opens)", ns.BreakerOpens)
			}
		}
	}
	if refused == 0 {
		t.Skip("P2C steered every send away from the refusing node before it refused once")
	}
	if st.FailoversRefusal == 0 {
		t.Fatal("refusals happened but failovers_refusal never ticked")
	}
}

// TestRouterWindowFullIsRefusal: with one connection per node, a slow
// send holds DefaultWindow-1 answers behind it, so one more send finds
// the connection's window full. That send is a refusal on a healthy
// connection, not a dead node: it fails over as a refusal, the
// connection stays up, every in-flight send is answered by its own node,
// no transport failover happens and the node stays routable.
func TestRouterWindowFullIsRefusal(t *testing.T) {
	snap := answerSnapshot(t)
	// Executions are counted per shard: after warm-1 warm-up sends on
	// the key's shard, the router's first send is its warm'th execution
	// and stalls; the window's other sends run before the next stall.
	const warm, stall = 2048, 3 * time.Second
	slow := startTestNode(t, snap, serve.Config{Workers: 2, QueueDepth: 2 * obwire.DefaultWindow, Timeout: 30 * time.Second,
		Faults: &serve.Faults{StallEvery: warm, Stall: stall}})
	other := startTestNode(t, snap, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	r := testRouter(t, []*testNode{slow, other}, func(c *Config) { c.ConnsPerNode = 1 })
	node := r.Nodes()[0]
	if node.BinAddr != slow.binAddr {
		node = r.Nodes()[1]
	}
	conn := func() *obwire.MuxClient {
		node.slots[0].mu.Lock()
		defer node.slots[0].mu.Unlock()
		return node.slots[0].c
	}
	key := uint64(1) // 0 is keyless
	for r.view.Load().ring.owner(key) != node {
		key++
	}
	for i := 1; i < warm; i++ {
		if res := slow.pool.Do(serve.Request{Receiver: word.FromInt(1), Selector: "answer", Key: key}); res.Err != nil {
			t.Fatalf("warm-up send %d: %v", i, res.Err)
		}
	}
	waitFramesIn := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(stall)
		for slow.srv.Stats().FramesIn < n {
			if time.Now().After(deadline) {
				t.Fatalf("the node read %d of %d frames", slow.srv.Stats().FramesIn, n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	var wg sync.WaitGroup
	send := func(recv int32) {
		defer wg.Done()
		resp, err := r.Send(serve.Request{Receiver: word.FromInt(recv), Selector: "answer", Key: key})
		if err != nil || !resp.OK() || resp.Value.Int() != recv+1 {
			t.Errorf("send %d: %+v, %v; want %d", recv, resp, err, recv+1)
		}
	}
	// The pool is held until the node has read the first send, so that
	// send queues however many Ps run the test, and its stall runs on a
	// worker, not on the connection's reader.
	release := slow.pool.Quiesce()
	start := time.Now()
	wg.Add(1)
	go send(0)
	waitFramesIn(1)
	release()
	for i := int32(1); i < obwire.DefaultWindow; i++ {
		wg.Add(1)
		go send(i)
	}
	waitFramesIn(obwire.DefaultWindow)
	full := conn()

	wg.Add(1)
	send(-1) // finds the window full and fails over
	if time.Since(start) >= stall {
		t.Fatalf("the window filled after the %v stall had ended: the host is too slow for this test", stall)
	}
	wg.Wait()

	st := r.Stats()
	if st.FailoversTransport != 0 || st.FailoversRefusal != 1 {
		t.Errorf("failovers: transport %d, refusal %d; want 0 and 1", st.FailoversTransport, st.FailoversRefusal)
	}
	if ns := node.Stats(); !node.Routable() || ns.TransportErrs != 0 || ns.BreakerOpens != 0 || ns.Rejected != 1 || ns.Completed != obwire.DefaultWindow {
		t.Errorf("window-full node: routable %v, %+v; want 1 rejected and %d completed", node.Routable(), ns, obwire.DefaultWindow)
	}
	if conn() != full || full.Err() != nil {
		t.Errorf("the window-full connection was replaced or closed (err %v)", full.Err())
	}
	for _, ns := range st.Nodes {
		if ns.BinAddr == other.binAddr && ns.Completed != 1 {
			t.Errorf("the other node completed %d sends, want the 1 that failed over", ns.Completed)
		}
	}
}

// TestProbeCooldownPacing pins that an open breaker is probed once per
// cooldown, not once per poll tick: a failed half-open probe must
// re-arm the cooldown clock, or a long outage turns into a poll-rate
// hammer against the dead node.
func TestProbeCooldownPacing(t *testing.T) {
	// A dead address: bind a port, then close it so every connection is
	// refused instantly.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	r := New(Config{
		Nodes:         []NodeSpec{{HTTPAddr: addr, BinAddr: addr}},
		PollInterval:  20 * time.Millisecond,
		FailThreshold: 1,
		Cooldown:      300 * time.Millisecond,
		Vnodes:        16,
	})
	defer r.Close()
	waitState(t, r, addr, StateDown)

	// Over ~1.2s a correctly re-armed cooldown allows at most ~5 probes
	// (1.2s / 300ms, plus slack); a broken one probes at the 20ms poll
	// rate — dozens.
	time.Sleep(1200 * time.Millisecond)
	row := r.Stats().Nodes[0]
	if row.Probes == 0 {
		t.Fatal("cooldown elapsed but the node was never probed")
	}
	if row.Probes > 8 {
		t.Fatalf("%d probes in 1.2s with a 300ms cooldown: failed probes are not re-arming the breaker", row.Probes)
	}
	if row.BreakerOpens < row.Probes {
		t.Fatalf("opens %d < probes %d: a failed probe should re-open the breaker", row.BreakerOpens, row.Probes)
	}
}

// waitRow polls the router's row for the node at binAddr until ok holds,
// and answers that row.
func waitRow(t *testing.T, r *Router, binAddr, what string, ok func(NodeStats) bool) NodeStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, row := range r.Stats().Nodes {
			if row.BinAddr == binAddr && ok(row) {
				return row
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s never %s: %+v", binAddr, what, r.Stats().Nodes)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReadinessOverObwire drives every not-ready reason from a real pool
// and obwire server to the router. The node's HTTP address is a closed
// port, so each reason and the queue depth can reach the router only in
// a pong, and each is sorted as pollNotReady's taxonomy says: overloaded
// and quarantine-heavy open the breaker, draining and rotating make the
// node unroutable without opening it.
func TestReadinessOverObwire(t *testing.T) {
	snap := answerSnapshot(t)
	req := serve.Request{Receiver: word.FromInt(1), Selector: "answer"}
	down := StateDown.String()
	only := func(t *testing.T, cfg serve.Config, tune func(*Config)) (*testNode, *Router, *Node) {
		t.Helper()
		b := startTestNode(t, snap, cfg)
		r := testRouter(t, []*testNode{b}, tune)
		return b, r, r.Nodes()[0]
	}

	t.Run("overloaded", func(t *testing.T) {
		b, r, n := only(t, serve.Config{Workers: 1, MaxInFlight: -1, Timeout: 10 * time.Second}, nil)
		row := waitRow(t, r, b.binAddr, "down", func(row NodeStats) bool { return row.State == down })
		if row.NotReadyReason != "overloaded" || row.BreakerOpens == 0 || n.Routable() {
			t.Fatalf("overloaded node: routable %v, %+v; want reason overloaded and the breaker open", n.Routable(), row)
		}
	})

	t.Run("draining", func(t *testing.T) {
		// Shutdown closes the control connection DefaultDrainGrace after
		// it begins, so this case polls by hand instead of waiting on
		// the poll loop's ticks.
		b, r, n := only(t, serve.Config{Workers: 1, Timeout: 10 * time.Second}, func(c *Config) { c.PollInterval = time.Hour })
		r.pollOnce(n)
		if !n.Routable() {
			t.Fatalf("ready node unroutable: %+v", n.Stats())
		}
		deadline := time.Now().Add(obwire.DefaultDrainGrace)
		done := make(chan struct{})
		go func() {
			defer close(done)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			b.srv.Shutdown(ctx)
		}()
		defer func() { <-done }()
		for n.Stats().NotReadyReason != "draining" {
			if time.Now().After(deadline) {
				t.Fatalf("no pong said draining within the drain grace: %+v", n.Stats())
			}
			r.pollOnce(n)
		}
		if row := n.Stats(); n.Routable() || row.State == down || row.BreakerOpens != 0 {
			t.Fatalf("draining node: routable %v, %+v; want unroutable with the breaker closed", n.Routable(), row)
		}
	})

	t.Run("rotating", func(t *testing.T) {
		b, r, n := only(t, serve.Config{Workers: 1, Timeout: 10 * time.Second,
			Faults: &serve.Faults{StallEvery: 1, Stall: time.Second}}, nil)
		sent := make(chan serve.Result, 1)
		go func() { sent <- b.pool.Do(req) }()
		// Rotate stamps the shard under its execution lock, which the
		// stalled send holds from its exec_start or dispatch event on.
		executing := func() bool {
			for _, e := range b.pool.FlightRecorder().Events() {
				if e.Kind == flight.KindExecStart || e.Kind == flight.KindDispatch {
					return true
				}
			}
			return false
		}
		for deadline := time.Now().Add(5 * time.Second); !executing(); {
			if time.Now().After(deadline) {
				t.Fatal("the send never began executing")
			}
			time.Sleep(time.Millisecond)
		}
		rotated := make(chan error, 1)
		go func() { rotated <- b.pool.Rotate(snap) }()
		row := waitRow(t, r, b.binAddr, "rotating", func(row NodeStats) bool { return row.NotReadyReason == "rotating" })
		if n.Routable() || row.State == down || row.BreakerOpens != 0 {
			t.Errorf("rotating node: routable %v, %+v; want unroutable with the breaker closed", n.Routable(), row)
		}
		if err := <-rotated; err != nil {
			t.Fatalf("rotate: %v", err)
		}
		if res := <-sent; res.Err != nil {
			t.Fatalf("stalled send: %v", res.Err)
		}
		waitRow(t, r, b.binAddr, "ready after the rotation", func(row NodeStats) bool { return row.NotReadyReason == "" })
		if !n.Routable() {
			t.Fatalf("node unroutable after the rotation: %+v", n.Stats())
		}
	})

	t.Run("quarantine-heavy", func(t *testing.T) {
		b, r, n := only(t, serve.Config{Workers: 1, Timeout: 10 * time.Second, Faults: &serve.Faults{PanicEvery: 1}}, nil)
		if resp, err := r.Send(req); err != nil || resp.Status != obwire.StatusMachineError {
			t.Fatalf("send into a panicking worker: %+v, %v; want a machine error", resp, err)
		}
		row := waitRow(t, r, b.binAddr, "down", func(row NodeStats) bool { return row.State == down })
		if row.NotReadyReason != "quarantine-heavy" || row.BreakerOpens == 0 || n.Routable() {
			t.Fatalf("quarantined node: routable %v, %+v; want reason quarantine-heavy and the breaker open", n.Routable(), row)
		}
	})

	t.Run("queue depth", func(t *testing.T) {
		const k = 5
		b, r, _ := only(t, serve.Config{Workers: 2, Timeout: 10 * time.Second}, nil)
		release := sync.OnceFunc(b.pool.Quiesce())
		defer release()
		futures := make([]*serve.Future, k)
		for i := range futures {
			futures[i] = b.pool.Go(req)
		}
		waitRow(t, r, b.binAddr, fmt.Sprintf("at queue depth %d", k), func(row NodeStats) bool { return row.QueueDepth == k })
		release()
		for i, f := range futures {
			if res := f.Wait(); res.Err != nil {
				t.Fatalf("queued send %d: %v", i, res.Err)
			}
		}
		row := waitRow(t, r, b.binAddr, "at queue depth 0", func(row NodeStats) bool { return row.QueueDepth == 0 })
		if row.State != StateHealthy.String() || row.NotReadyReason != "" || row.PollFails != 0 {
			t.Fatalf("idle node after its queue drained: %+v; want healthy, ready, no poll failures", row)
		}
		if b.srv.Stats().Pings == 0 {
			t.Fatal("the node counted none of the router's pings")
		}
	})
}
