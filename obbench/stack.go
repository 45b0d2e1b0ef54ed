package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	obarch "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/word"
	"repro/internal/workload"
)

// doubleSrc is the one-line method the tiny workloads send, loaded beside
// the suite: the cheapest send that still enters a compiled method.
const doubleSrc = `extend SmallInt [ method double [ ^self + self ] ]`

// nodeCount is how many nodes every workload stands up. The router spans
// them all whichever path a workload's own traffic takes, so set-up costs
// the same on every workload and the ladder's cluster rung always has a
// ring to route over.
const nodeCount = 2

// sender is one way into the stack. cluster.Router.Send and
// obwire.MuxClient.Do share this shape.
type sender func(serve.Request) (obwire.Response, error)

// node is one obarchd-shaped backend on obarchd's defaults: a pool, its
// obwire listener on loopback, and the minimal control plane the router
// polls (/readyz, and /stats with the queue depths).
type node struct {
	pool     *serve.Pool
	wire     *obwire.Server
	web      *http.Server
	webDone  chan struct{}
	httpAddr string
	// dec and enc receive the obwire decode and encode spans, as
	// obarchd's /stats histograms do.
	dec, enc stats.ConcurrentHistogram
}

// startNode stamps a pool from snap and opens its listeners. stamp is the
// time serve.NewPool took.
func startNode(snap *core.Snapshot, workers int) (n *node, stamp time.Duration, err error) {
	t0 := time.Now()
	pool := serve.NewPool(snap, serve.Config{
		Workers:       workers,
		QueueDepth:    256,
		Timeout:       10 * time.Second,
		SlowThreshold: 100 * time.Millisecond,
	})
	stamp = time.Since(t0)
	n = &node{pool: pool}
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Close()
		return nil, 0, err
	}
	n.wire = obwire.Serve(wl, pool, obwire.Options{DecodeLat: &n.dec, EncodeLat: &n.enc})
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.close()
		return nil, 0, err
	}
	n.httpAddr = hl.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(struct {
			QueueDepths []int `json:"queue_depths"`
			InFlight    int64 `json:"in_flight"`
		}{pool.QueueDepths(), pool.InFlight()})
	})
	n.web = &http.Server{Handler: mux}
	n.webDone = make(chan struct{})
	go func() {
		defer close(n.webDone)
		n.web.Serve(hl)
	}()
	return n, stamp, nil
}

// close stops the node. Its clients hang up first, so the obwire drain
// finds every reader already at EOF.
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	n.wire.Shutdown(ctx)
	cancel()
	if n.web != nil {
		n.web.Close()
		<-n.webDone
	}
	n.pool.Close()
}

// stack is the whole serving stack in one process: the boot snapshot,
// nodeCount nodes, a router over them, and one direct MuxClient to node 0.
type stack struct {
	snap   *core.Snapshot
	nodes  []*node
	router *cluster.Router
	direct *obwire.MuxClient
	timing setupTiming
}

// setupTiming splits one set-up. total runs from the cold boot to the
// first correct answer on both paths; compile is compile plus load; stamp
// is pool stamping summed over the nodes; ready runs from cluster.New to
// the router's first correct answer.
type setupTiming struct {
	total, compile, stamp, ready time.Duration
}

// buildStack boots an image cold, as obarchd does without an image or a
// checkpoint (compile and load, then Snapshot), and stands the stack up
// on it with workers workers per node.
func buildStack(workers int) (*stack, error) {
	t0 := time.Now()
	sys := obarch.NewSystem(obarch.Options{})
	if _, err := workload.LoadSuite(sys.M); err != nil {
		return nil, err
	}
	if err := sys.Load(doubleSrc); err != nil {
		return nil, err
	}
	compile := time.Since(t0)
	snap, err := sys.Snapshot()
	if err != nil {
		return nil, err
	}
	st := &stack{snap: snap, timing: setupTiming{compile: compile}}
	if err := st.start(workers); err != nil {
		st.close()
		return nil, err
	}
	st.timing.total = time.Since(t0)
	return st, nil
}

func (st *stack) start(workers int) error {
	specs := make([]cluster.NodeSpec, 0, nodeCount)
	for range nodeCount {
		n, stamp, err := startNode(st.snap, workers)
		if err != nil {
			return err
		}
		st.nodes = append(st.nodes, n)
		st.timing.stamp += stamp
		specs = append(specs, cluster.NodeSpec{HTTPAddr: n.httpAddr, BinAddr: n.wire.Addr().String()})
	}
	var err error
	if st.direct, err = obwire.DialMux(specs[0].BinAddr); err != nil {
		return err
	}
	t0 := time.Now()
	st.router = cluster.New(cluster.Config{Nodes: specs})
	for ok, _, _ := st.router.Ready(); !ok; ok, _, _ = st.router.Ready() {
		if time.Since(t0) > 5*time.Second {
			return errors.New("router not ready after 5s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := firstAnswer(st.router.Send); err != nil {
		return fmt.Errorf("router: %w", err)
	}
	st.timing.ready = time.Since(t0)
	if err := firstAnswer(st.direct.Do); err != nil {
		return fmt.Errorf("direct: %w", err)
	}
	return nil
}

// firstAnswer sends 21 double and wants 42.
func firstAnswer(send sender) error {
	resp, err := send(serve.Request{Receiver: word.FromInt(21), Selector: "double"})
	if err != nil {
		return err
	}
	if v, ok := resp.Value.IntOK(); !resp.OK() || !ok || v != 42 {
		return fmt.Errorf("21 double answered status %d, %v %q; want 42", resp.Status, resp.Value, resp.Err)
	}
	return nil
}

func (st *stack) close() {
	if st.direct != nil {
		st.direct.Close()
	}
	if st.router != nil {
		st.router.Close()
	}
	for _, n := range st.nodes {
		n.close()
	}
}
