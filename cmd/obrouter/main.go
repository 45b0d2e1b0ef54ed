// Command obrouter is the cluster front tier: one HTTP face over N
// obarchd nodes, speaking obwire to each over a small pool of
// persistent multiplexed connections plus one control connection for
// health pings. Clients keep the single-node
// wire shapes: POST /send and /batch bodies are decoded, capped (8 MiB)
// and answered by the same internal/httpwire code as obarchd's, so a
// node and the router give the same status and body to the same request
// — a malformed /batch element refuses the whole batch with a 400
// naming its index, a negative timeout_ms is a 400 — and clients gain
// the cluster semantics:
//
//   - Affinity keys consistent-hash onto the node ring (vnode ring,
//     stable under membership change), so a key's quarantine history,
//     pinned worker, and cache warmth stay on one node. Keyless sends
//     join the shortest queue cluster-wide via power-of-two-choices
//     over each node's polled queue depth.
//   - Per-node health state machines (healthy → suspect → down →
//     half-open probe) fuse the slow signal — an obwire ping every
//     -poll, whose pong carries the node's queue depth and /readyz
//     reason — with the fast ones: transport errors and in-band
//     refusals on the data path. Sustained hard failures open a
//     per-node circuit breaker; after a cooldown, one half-open probe
//     (a ping whose pong says ready) closes it again. A node's HTTP
//     address is used only to proxy /programs.
//   - Retryable outcomes — transport errors, admission refusals (429),
//     sheds (503) — fail over to the next candidate node within a
//     budget; machine errors (422) never do (the send executed).
//     A node killed mid-traffic costs its in-flight sends one failover
//     each, invisibly to well-behaved clients.
//   - Node join/leave (POST /nodes/join, /nodes/leave) reshapes the
//     ring without dropping in-flight work.
//
// Endpoints:
//
//	POST /send         single-node wire shape; routed by key or JSQ,
//	                   failed over on retryable refusals; 502 when the
//	                   send died on the wire with the budget spent,
//	                   503 + Retry-After when no routable backend exists
//	POST /batch        the array form, routed per-element concurrently,
//	                   at most 64 elements at a time (httpwire.BatchWindow,
//	                   the same window a node uses); per-element failures
//	                   inline, a malformed element a 400 for the whole
//	                   batch
//	POST /nodes/join   {"http_addr": "...", "bin_addr": "..."} — add a
//	                   node; it joins healthy and receives traffic at
//	                   once, until a poll says otherwise. 400 unless
//	                   both addresses are host:port with a port in
//	                   1–65535, 409 for a node already joined; obrouter
//	                   admits its -nodes list the same way, so either
//	                   refusal fails startup
//	POST /nodes/leave  {"bin_addr": "..."} — remove a node; in-flight
//	                   sends finish, new sends stop immediately
//	GET  /programs     proxied from the first routable node
//	GET  /stats        router identity plus the cluster block: per-node
//	                   health/breaker/failover counters, routable count,
//	                   quorum
//	GET  /metrics      Prometheus text exposition (obarch_cluster_*)
//	GET  /healthz      liveness: 200 while the process serves HTTP
//	GET  /readyz       readiness: 200 while a majority of backends is
//	                   routable; 503 "no-quorum" when the cluster has
//	                   lost its majority, "draining" during shutdown
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/httpwire"
	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/stats"
)

func main() {
	addr := flag.String("addr", ":8374", "listen address")
	nodes := flag.String("nodes", "", "backend nodes as HTTPADDR=BINADDR,... (e.g. 127.0.0.1:8373=127.0.0.1:9373)")
	conns := flag.Int("conns", 2, "obwire connections per node")
	poll := flag.Duration("poll", 500*time.Millisecond, "health ping interval per node (each pong carries the node's queue depth)")
	failThreshold := flag.Int("failthreshold", 3, "consecutive hard failures that open a node's breaker")
	cooldown := flag.Duration("cooldown", 2*time.Second, "breaker-open time before the half-open probe")
	vnodes := flag.Int("vnodes", 64, "consistent-hash points per node")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown budget for in-flight requests")
	flag.Parse()

	r, err := newRouter(*nodes, cluster.Config{
		ConnsPerNode:  *conns,
		PollInterval:  *poll,
		FailThreshold: *failThreshold,
		Cooldown:      *cooldown,
		Vnodes:        *vnodes,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatalf("obrouter: -nodes: %v", err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("obrouter: %v", err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	h := newRouterServer(r)
	srv := &http.Server{Handler: h}
	go func() {
		if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
			log.Fatalf("obrouter: %v", err)
		}
	}()
	log.Printf("obrouter: serving on %s over %d nodes", l.Addr(), len(r.Nodes()))

	<-sig
	log.Printf("obrouter: draining (budget %v)", *drain)
	h.draining.Store(true) // /readyz flips first so balancers stop routing here
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("obrouter: drain: %v", err)
	}
	r.Close()
	log.Printf("obrouter: stopped")
}

// newRouter builds the router over the -nodes list. Each node is admitted
// through Router.Join, the path POST /nodes/join takes, so a malformed
// address or a duplicate fails startup instead of joining.
func newRouter(nodes string, cfg cluster.Config) (*cluster.Router, error) {
	specs, err := parseNodes(nodes)
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, errors.New("at least one node is required (HTTPADDR=BINADDR,...)")
	}
	r := cluster.New(cfg)
	for _, spec := range specs {
		if err := r.Join(spec); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// parseNodes parses the -nodes flag: comma-separated HTTPADDR=BINADDR
// pairs. The addresses themselves are checked by Router.Join.
func parseNodes(s string) ([]cluster.NodeSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var specs []cluster.NodeSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		httpAddr, binAddr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("node %q: want HTTPADDR=BINADDR", part)
		}
		specs = append(specs, cluster.NodeSpec{HTTPAddr: httpAddr, BinAddr: binAddr})
	}
	return specs, nil
}

// routerServer is the HTTP face of a cluster.Router, split from main so
// tests drive it through httptest. route is r.Send; tests wrap it to
// watch the calls.
type routerServer struct {
	r        *cluster.Router
	route    func(serve.Request) (obwire.Response, error)
	mux      *http.ServeMux
	start    time.Time
	draining atomic.Bool
	sendLat  stats.ConcurrentHistogram
	proxy    *http.Client
}

func newRouterServer(r *cluster.Router) *routerServer {
	s := &routerServer{
		r:     r,
		route: r.Send,
		mux:   http.NewServeMux(),
		start: time.Now(),
		proxy: &http.Client{Timeout: 5 * time.Second},
	}
	s.mux.HandleFunc("POST /send", s.handleSend)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	s.mux.HandleFunc("POST /nodes/join", s.handleJoin)
	s.mux.HandleFunc("POST /nodes/leave", s.handleLeave)
	s.mux.HandleFunc("GET /programs", s.handlePrograms)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	return s
}

func (s *routerServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// handleReady is the router's readiness: draining during shutdown,
// no-quorum when a majority of backends is unroutable — both 503, so a
// balancer in front of several routers steers around this one.
func (s *routerServer) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if ok, routable, total := s.r.Ready(); !ok {
		http.Error(w, fmt.Sprintf("no-quorum (%d/%d routable)", routable, total), http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// httpStatus maps one routed outcome to its HTTP answer: the cluster's
// own refusals first — no routable backend is 503, a send that died on
// the wire with the failover budget spent is 502 — then the node's frame
// status through the table a node uses for its own pool.
func httpStatus(resp obwire.Response, err error) int {
	switch {
	case errors.Is(err, cluster.ErrNoBackends):
		return http.StatusServiceUnavailable
	case err != nil:
		return http.StatusBadGateway
	}
	return httpwire.Status(resp.Status)
}

// send routes one request through the cluster and returns its wire
// result and HTTP status.
func (s *routerServer) send(req serve.Request) (httpwire.SendResponse, int) {
	t0 := core.Monotonic()
	resp, err := s.route(req)
	s.sendLat.Observe(time.Duration(core.Monotonic() - t0))
	status := httpStatus(resp, err)
	if err != nil {
		return httpwire.SendResponse{Error: err.Error()}, status
	}
	return httpwire.FrameResponse(resp), status
}

func (s *routerServer) handleSend(w http.ResponseWriter, r *http.Request) {
	body, err := httpwire.ReadBody(w, r, nil)
	var req serve.Request
	if err == nil {
		req, err = httpwire.DecodeSend(body)
	}
	if err != nil {
		httpwire.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	out, status := s.send(req)
	httpwire.RetryAfter(w, status)
	httpwire.WriteJSON(w, status, out)
}

// handleBatch routes the elements of the array concurrently on
// httpwire.BatchWindow goroutines — elements may land on different nodes
// — and answers the result array in request order, per-element failures
// inline. A malformed element refuses the whole batch with a 400 before
// anything is routed, as on a node.
func (s *routerServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := httpwire.ReadBody(w, r, nil)
	var reqs []serve.Request
	if err == nil {
		reqs, err = httpwire.DecodeBatch(body)
	}
	if err != nil {
		httpwire.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	out := make([]httpwire.SendResponse, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(httpwire.BatchWindow, len(reqs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(reqs)); i = next.Add(1) - 1 {
				out[i], _ = s.send(reqs[i])
			}
		}()
	}
	wg.Wait()
	httpwire.WriteJSON(w, http.StatusOK, out)
}

func (s *routerServer) handleJoin(w http.ResponseWriter, r *http.Request) {
	var spec struct {
		HTTPAddr string `json:"http_addr"`
		BinAddr  string `json:"bin_addr"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&spec); err != nil {
		httpwire.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.r.Join(cluster.NodeSpec{HTTPAddr: spec.HTTPAddr, BinAddr: spec.BinAddr}); err != nil {
		status := http.StatusConflict
		if errors.Is(err, cluster.ErrInvalidNode) {
			status = http.StatusBadRequest
		}
		httpwire.Error(w, status, err.Error())
		return
	}
	httpwire.WriteJSON(w, http.StatusOK, map[string]any{"joined": spec.BinAddr, "nodes": len(s.r.Nodes())})
}

func (s *routerServer) handleLeave(w http.ResponseWriter, r *http.Request) {
	var spec struct {
		BinAddr string `json:"bin_addr"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&spec); err != nil {
		httpwire.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.r.Leave(spec.BinAddr); err != nil {
		httpwire.Error(w, http.StatusNotFound, err.Error())
		return
	}
	httpwire.WriteJSON(w, http.StatusOK, map[string]any{"left": spec.BinAddr, "nodes": len(s.r.Nodes())})
}

// handlePrograms proxies the workload listing from the first routable
// node — every node serves the same image, so any answer is the
// cluster's answer.
func (s *routerServer) handlePrograms(w http.ResponseWriter, _ *http.Request) {
	for _, n := range s.r.Nodes() {
		if !n.Routable() {
			continue
		}
		resp, err := s.proxy.Get("http://" + n.HTTPAddr + "/programs")
		if err != nil {
			continue
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return
	}
	httpwire.Error(w, http.StatusServiceUnavailable, "no routable backends")
}

func (s *routerServer) handleStats(w http.ResponseWriter, _ *http.Request) {
	ok, routable, total := s.r.Ready()
	httpwire.WriteJSON(w, http.StatusOK, map[string]any{
		"cluster":    s.r.Stats(),
		"ready":      ok && !s.draining.Load(),
		"routable":   routable,
		"nodes":      total,
		"send_us":    httpwire.Percentiles(s.sendLat.Snapshot()),
		"start_time": s.start.UTC().Format(time.RFC3339Nano),
		"uptime_s":   time.Since(s.start).Seconds(),
	})
}
