// Package node is one obarchd node: a Caltech Object Machine image
// snapshotted and stamped into a sharded pool of worker machines, each
// executing message sends on its own goroutine, behind an HTTP/JSON
// control plane and, optionally, the obwire binary transport. New builds
// the whole node from a boot snapshot and a Config whose fields are
// obarchd's flags; Shutdown drains it.
//
// Durability. Boot descends a recovery ladder: the newest valid
// checkpoint generation under -checkpoint-dir first (a torn or corrupt
// generation is rejected by the image's own checks, one rung each),
// then the -image file (an unreadable image falls through), then
// compile-from-source; /stats and /metrics export the rung taken. With
// -checkpoint DUR a background checkpointer captures the pool's live
// state every DUR into one image file per generation, prunes to the
// newest -checkpoint-keep, and takes a final checkpoint during the
// drain. A checkpoint and POST /save, which persists the live state to
// the -image path, are both written by image.WriteFile: temp file,
// fsync, rename, directory fsync. Both capture shard 0's
// machine between two of its requests, so traffic on shard 0 delays a
// save by at most one request and never tears it.
//
// Live rotation. POST /rotate stages a new image off the hot path
// (hostile-input validation included) and swaps the pool onto it
// shard-by-shard between requests, so no request is dropped, failed, or
// globally paused. -watch DUR polls the -image path and rotates when the
// file changes.
//
// Overload and self-healing. Enqueue is bounded (a full shard queue
// refuses instead of blocking), -maxinflight caps admitted-but-unfinished
// requests pool-wide, and a queued request whose deadline expired while
// it waited is shed at dispatch without executing. A worker panic never
// kills the node: recovery barriers convert it into a failed result,
// quarantine the suspect machine, and re-stamp a fresh worker from the
// serving snapshot. -chaos arms a seeded, deterministic fault plan
// (panics, stalls, dispatch clogs) for drills against exactly those
// paths.
//
// /send and /batch bodies are read, decoded and answered by
// internal/httpwire on encoding/json, the same code obrouter uses, so a
// node and the router give the same status and body to the same
// request. Bodies are capped at 8 MiB; a negative or overflowing
// timeout_ms is a 400; one malformed /batch element refuses the whole
// batch with a 400 naming its index. Keyless requests join the shortest
// queue via power-of-two-choices.
//
// Binary transport. -binary-addr additionally serves the obwire
// protocol (see internal/obwire): length-prefixed binary frames over
// persistent, pipelined TCP connections, feeding the same pool,
// admission control, and flight recorder as HTTP, at zero allocations
// per send in steady state. A malformed frame poisons only its own
// connection. The transport's decode/encode spans and counters land in
// the same /stats and /metrics families as HTTP's.
//
// Observability. Every shard feeds an always-on, lock-free flight
// recorder (see internal/flight) that /debug/slow renders beside /stats
// and /metrics.
//
// Endpoints:
//
//	POST /send        {"receiver": 21, "selector": "double", "args": []};
//	                  answers 200, 422 on machine errors, 429 + Retry-After
//	                  when refused at admission, 503 + Retry-After when shed
//	                  after its deadline expired in queue
//	POST /batch       [{"receiver": 21, "selector": "double"}, ...] — executed
//	                  as pool sends, at most httpwire.BatchWindow (64) in
//	                  flight; results in request order, failures inline.
//	                  Overload refusals, inline and retryable as on the
//	                  router, need concurrent traffic past -queue on one
//	                  shard (or -maxinflight)
//	POST /save        persist the pool's live state to the -image path,
//	                  captured from shard 0 between two of its requests
//	POST /rotate      swap the pool onto a new image with zero downtime;
//	                  optional body {"path": "..."} (default: the -image
//	                  path); 409 while another rotation is mid-swap, 400
//	                  for an unreadable or invalid image (pool untouched)
//	GET  /programs    the loaded workload programs (name, size, entry, check)
//	GET  /stats       aggregated pool metrics (add ?format=text for a table):
//	                  per-shard queue depths, node identity and image
//	                  provenance, Go runtime gauges, and percentiles per
//	                  stage — "service_us" machine service,
//	                  "queue_us" queue wait, "decode_us"/"encode_us" the
//	                  codec spans, "http_latency_us" the whole handler
//	GET  /metrics     Prometheus text exposition of the same counters,
//	                  gauges, and latency histograms
//	GET  /debug/slow  recent slow-request captures: spans, per-request
//	                  core.Stats delta, and the flight-recorder event chain
//	GET  /debug/pprof CPU/heap/goroutine profiling (only with -debug)
//	GET  /healthz     liveness probe: 200 while the process serves HTTP
//	GET  /readyz      readiness probe: 200 while accepting traffic; 503
//	                  with the reason ("draining", "rotating",
//	                  "overloaded", "quarantine-heavy") when new traffic
//	                  should go elsewhere
//
// Binary endpoint (with -binary-addr HOST:PORT):
//
//	obwire send       one frame per message send over a persistent,
//	                  pipelined TCP connection; status 0 (OK) carries the
//	                  result word, 1 (machine error, as HTTP 422),
//	                  2 (overloaded, as 429 — back off and retry),
//	                  3 (shed, as 503 — retry elsewhere) carry the error
//	                  text; /stats gains a "binary" block and /metrics an
//	                  obarch_binary_* family for its transport counters
//	obwire ping       health frame answered in queue order with a pong
//	                  carrying the pool's summed queue depth and the
//	                  /readyz reason ("" while ready); a pong proves the
//	                  read→dispatch→write loop itself is serving. The
//	                  cluster router's every poll and half-open probe is
//	                  one ping; "pings" in the binary block counts them
package node

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/httpwire"
	"repro/internal/image"
	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The daemon's pool defaults: obarchd's -queue, -timeout and -slowlog.
const (
	DefaultQueueDepth = 256
	DefaultTimeout    = 10 * time.Second
	DefaultSlowlog    = 100 * time.Millisecond
)

// Config is a node's configuration, one field per obarchd flag: Pool
// takes -workers, -queue, -maxsteps, -timeout, -gcevery, -slowlog (as
// SlowThreshold), -maxinflight and the parsed -chaos plan. The remaining
// flags belong to the caller: -suite and the source files to Boot,
// -drain to the deadline handed to Shutdown.
type Config struct {
	Pool           serve.Config
	Addr           string        // -addr: the HTTP listen address
	BinaryAddr     string        // -binary-addr: the obwire listen address; empty disables it
	ImagePath      string        // -image: where POST /save persists and -watch polls
	Debug          bool          // -debug: mount net/http/pprof
	Checkpoint     time.Duration // -checkpoint: live checkpoint interval; 0 disables it
	CheckpointDir  string        // -checkpoint-dir
	CheckpointKeep int           // -checkpoint-keep
	Watch          time.Duration // -watch: image poll interval; 0 disables it
}

// Node is a running node: its pool, its listeners, and the durability
// workers. httpLat records whole-handler latency for the /stats
// percentiles; decLat and encLat are shared with the obwire listener.
// draining flips when shutdown begins, before the listeners close, so
// /readyz steers load balancers away from a leaving node.
type Node struct {
	pool      *serve.Pool
	programs  []workload.Program
	imagePath string
	mux       *http.ServeMux
	boot      BootInfo
	start     time.Time
	draining  atomic.Bool
	httpLat   stats.ConcurrentHistogram
	decLat    stats.ConcurrentHistogram // request read+parse span
	encLat    stats.ConcurrentHistogram // response encode+write span

	web       *http.Server
	bin       *obwire.Server // nil without -binary-addr
	ckpt      *checkpointer  // nil without -checkpoint
	watchStop chan struct{}  // stops the -watch poller; nil without -watch
}

// New stamps a pool from snap, binds the listeners and starts serving:
// HTTP on cfg.Addr, obwire on cfg.BinaryAddr when set, the checkpointer
// and the image watcher when configured. boot is the provenance Boot
// reported; its zero value reports a compile-from-source boot, as a cold
// obarchd does.
func New(snap *obarch.Snapshot, programs []workload.Program, boot BootInfo, cfg Config) (*Node, error) {
	if boot.Mode == "" {
		boot = compileBoot(cfg.ImagePath)
	}
	n := &Node{
		pool:      serve.NewPool(snap, cfg.Pool),
		programs:  programs,
		imagePath: cfg.ImagePath,
		mux:       http.NewServeMux(),
		boot:      boot,
		start:     time.Now(),
	}
	n.mux.HandleFunc("POST /send", n.handleSend)
	n.mux.HandleFunc("POST /batch", n.handleBatch)
	n.mux.HandleFunc("POST /save", n.handleSave)
	n.mux.HandleFunc("POST /rotate", n.handleRotate)
	n.mux.HandleFunc("GET /programs", n.handlePrograms)
	n.mux.HandleFunc("GET /stats", n.handleStats)
	n.mux.HandleFunc("GET /metrics", n.handleMetrics)
	n.mux.HandleFunc("GET /debug/slow", n.handleSlow)
	n.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	n.mux.HandleFunc("GET /readyz", n.handleReady)
	if cfg.Debug { // profiling is for operators, not the open internet
		n.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		n.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		n.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		n.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		n.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	var err error
	if cfg.Checkpoint > 0 {
		if n.ckpt, err = newCheckpointer(n.pool, cfg.CheckpointDir, cfg.CheckpointKeep, cfg.Checkpoint, boot.RecoveredGeneration); err != nil {
			n.pool.Close()
			return nil, fmt.Errorf("-checkpoint-dir %s: %w", cfg.CheckpointDir, err)
		}
	}
	l, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		n.pool.Close()
		return nil, err
	}
	var bl net.Listener
	if cfg.BinaryAddr != "" {
		if bl, err = net.Listen("tcp", cfg.BinaryAddr); err != nil {
			l.Close()
			n.pool.Close()
			return nil, fmt.Errorf("-binary-addr: %w", err)
		}
	}

	if n.ckpt != nil {
		go n.ckpt.run()
	}
	if cfg.Watch > 0 {
		n.watchStop = make(chan struct{})
		go n.watchImage(cfg.Watch, n.watchStop)
	}
	if bl != nil {
		n.bin = obwire.Serve(bl, n.pool, obwire.Options{
			DecodeLat: &n.decLat,
			EncodeLat: &n.encLat,
			Logf:      log.Printf,
		})
	}
	n.web = &http.Server{Addr: l.Addr().String(), Handler: n}
	go func() {
		if err := n.web.Serve(l); !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("obarchd: %v", err) // nothing could probe or drain the node now
		}
	}()
	return n, nil
}

// Shutdown drains the node: /readyz answers "draining" first (load
// balancers see a leaving node before its listeners vanish), then the
// HTTP and obwire listeners drain together — in-flight requests and
// every already-dispatched frame are answered, until ctx expires. The
// watcher stops rotating, the checkpointer takes its final capture — the
// freshest possible recovery point — while SnapshotLive still works, and
// last the pool is closed: Close serves every already-queued request and
// stops each worker at a request boundary, so exit never races a live
// send or an incremental GC sweep. Only the first call drains; later
// calls return at once.
func (n *Node) Shutdown(ctx context.Context) {
	if n.draining.Swap(true) {
		return
	}
	binDone := make(chan struct{})
	go func() {
		defer close(binDone)
		if n.bin != nil {
			n.bin.Shutdown(ctx)
		}
	}()
	if err := n.web.Shutdown(ctx); err != nil {
		log.Printf("obarchd: shutdown: %v", err)
	}
	<-binDone
	if n.watchStop != nil {
		close(n.watchStop)
	}
	if n.ckpt != nil {
		n.ckpt.Stop()
	}
	n.pool.Close()
}

// Pool answers the node's serving pool.
func (n *Node) Pool() *serve.Pool { return n.pool }

// Addr answers the HTTP listener's address.
func (n *Node) Addr() string { return n.web.Addr }

// BinaryAddr answers the obwire listener's address, empty without one.
func (n *Node) BinaryAddr() string {
	if n.bin == nil {
		return ""
	}
	return n.bin.Addr().String()
}

// notReady answers why this node should not receive new traffic, or ""
// while it should: "draining" once Shutdown begins, since a leaving node
// is leaving no matter what the pool says, and the pool's own reason
// otherwise.
func (n *Node) notReady() string {
	if n.draining.Load() {
		return "draining"
	}
	return n.pool.NotReady()
}

// handleReady is GET /readyz: 200 "ready" while the node should receive
// traffic, 503 with the reason when it should not. Distinct from
// /healthz (liveness): a draining or overloaded node is alive — the
// process must not be restarted — it just wants no new work.
func (n *Node) handleReady(w http.ResponseWriter, _ *http.Request) {
	if reason := n.notReady(); reason != "" {
		http.Error(w, reason, http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// ServeHTTP serves the control plane.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) { n.mux.ServeHTTP(w, r) }

// handleSave persists the pool's live state to the configured image
// path. The snapshot is captured through SnapshotLive — shard 0's
// machine is held between two of its requests while the other shards
// keep serving, so the image reflects every mutation traffic has made
// to it, and a save under concurrent load can never catch a machine
// mid-send. image.WriteFile replaces the file
// durably (temp file, fsync, rename, directory fsync), so a crash mid-save
// can never leave a truncated image where the next boot would read it,
// and a 200 means the new image survives power loss.
func (n *Node) handleSave(w http.ResponseWriter, _ *http.Request) {
	if n.imagePath == "" {
		httpwire.Error(w, http.StatusBadRequest, "no image path configured; start obarchd with -image")
		return
	}
	start := time.Now()
	snap, err := n.pool.SnapshotLive()
	if err != nil {
		httpwire.Error(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	size, err := image.WriteFile(n.imagePath, snap)
	if err != nil {
		httpwire.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	httpwire.WriteJSON(w, http.StatusOK, map[string]any{
		"path":       n.imagePath,
		"bytes":      size,
		"elapsed_us": time.Since(start).Microseconds(),
	})
}

func (n *Node) handleSend(w http.ResponseWriter, r *http.Request) {
	start := core.Monotonic()
	body, err := httpwire.ReadBody(w, r, nil)
	var req serve.Request
	if err == nil {
		req, err = httpwire.DecodeSend(body)
	}
	if err != nil {
		httpwire.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	n.decLat.Observe(time.Duration(core.Monotonic() - start))
	res := n.pool.Do(req)
	enc := core.Monotonic()
	status := httpwire.Status(obwire.StatusFor(res.Err))
	httpwire.RetryAfter(w, status)
	httpwire.WriteJSON(w, status, httpwire.ResultResponse(res))
	end := core.Monotonic()
	n.encLat.Observe(time.Duration(end - enc))
	n.httpLat.Observe(time.Duration(end - start))
}

// handleBatch executes an array of sends as a sliding window of pool
// futures: element i is submitted with Go once element i-BatchWindow has
// been waited for, so at most httpwire.BatchWindow elements are in flight.
// The response preserves request order; per-request failures are reported
// inline, so the status is 200 whenever the batch itself was well-formed.
func (n *Node) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := core.Monotonic()
	body, err := httpwire.ReadBody(w, r, nil)
	var reqs []serve.Request
	if err == nil {
		reqs, err = httpwire.DecodeBatch(body)
	}
	if err != nil {
		httpwire.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	n.decLat.Observe(time.Duration(core.Monotonic() - start))
	const win = httpwire.BatchWindow
	var window [win]*serve.Future
	out := make([]httpwire.SendResponse, len(reqs))
	for i, req := range reqs {
		if i >= win {
			out[i-win] = httpwire.ResultResponse(window[i%win].Wait())
		}
		window[i%win] = n.pool.Go(req)
	}
	for i := max(0, len(reqs)-win); i < len(reqs); i++ {
		out[i] = httpwire.ResultResponse(window[i%win].Wait())
	}
	enc := core.Monotonic()
	httpwire.WriteJSON(w, http.StatusOK, out)
	end := core.Monotonic()
	n.encLat.Observe(time.Duration(end - enc))
	n.httpLat.Observe(time.Duration(end - start))
}

func (n *Node) handlePrograms(w http.ResponseWriter, _ *http.Request) {
	out := make([]httpwire.ProgramInfo, len(n.programs))
	for i, p := range n.programs {
		out[i] = httpwire.ProgramInfo{Name: p.Name, Entry: p.Entry, Size: p.Size, Warm: p.Warm, Check: p.Check}
	}
	httpwire.WriteJSON(w, http.StatusOK, out)
}

// runtimeGauges samples the Go runtime — the host process's own health,
// as opposed to the modelled machines' — for /stats and /metrics.
func runtimeGauges() map[string]any {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]any{
		"goroutines":        runtime.NumGoroutine(),
		"heap_alloc_bytes":  ms.HeapAlloc,
		"heap_sys_bytes":    ms.HeapSys,
		"heap_objects":      ms.HeapObjects,
		"gc_cycles":         ms.NumGC,
		"gc_pause_total_us": ms.PauseTotalNs / 1e3,
		"next_gc_bytes":     ms.NextGC,
		"total_alloc_bytes": ms.TotalAlloc,
		"stack_inuse_bytes": ms.StackInuse,
	}
}

func (n *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	met := n.pool.Metrics()
	service := n.pool.LatencyHistogram()
	qwait := n.pool.QueueWaitHistogram()
	hlat := n.httpLat.Snapshot()
	dec := n.decLat.Snapshot()
	enc := n.encLat.Snapshot()
	ckpt := n.checkpointStats()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, met.Report().String())
		fmt.Fprintf(w, "service latency   %s\n", service.String())
		fmt.Fprintf(w, "queue wait        %s\n", qwait.String())
		fmt.Fprintf(w, "http latency      %s\n", hlat.String())
		fmt.Fprintf(w, "decode            %s\n", dec.String())
		fmt.Fprintf(w, "encode            %s\n", enc.String())
		fmt.Fprintf(w, "in flight         %d\n", n.pool.InFlight())
		ready := "true"
		if reason := n.notReady(); reason != "" {
			ready = "false (" + reason + ")"
		}
		fmt.Fprintf(w, "ready             %s\n", ready)
		fmt.Fprintf(w, "uptime            %v\n", time.Since(n.start).Round(time.Second))
		fmt.Fprintf(w, "image             mode=%s version=%d path=%s\n", n.boot.Mode, n.boot.FormatVersion, n.boot.ImagePath)
		fmt.Fprintf(w, "recovery          rung=%s generation=%d ladder=%d\n", n.boot.Mode, n.boot.RecoveredGeneration, n.boot.RecoveryLadder)
		fmt.Fprintf(w, "checkpoints       taken=%d failures=%d generation=%d age_s=%.1f\n", ckpt.Taken, ckpt.Failures, ckpt.Generation, ckpt.AgeS)
		if n.bin != nil {
			bst := n.bin.Stats()
			fmt.Fprintf(w, "binary            addr=%s conns=%d (active %d) frames_in=%d frames_out=%d frames_inline=%d pings=%d proto_errors=%d\n",
				n.bin.Addr(), bst.ConnsAccepted, bst.ConnsActive, bst.FramesIn, bst.FramesOut, bst.FramesInline, bst.Pings, bst.ProtoErrors)
		}
		return
	}
	httpwire.WriteJSON(w, http.StatusOK, map[string]any{
		"requests":         met.Requests,
		"errors":           met.Errors,
		"timeouts":         met.Timeouts,
		"rejected":         met.Rejected,
		"shed_expired":     met.SheddedExpired,
		"panics":           met.Panics,
		"restamps":         met.Restamps,
		"rotations":        met.Rotations,
		"mean_latency_us":  met.MeanLatency().Microseconds(),
		"max_latency_us":   met.MaxLatency.Microseconds(),
		"instructions":     met.Instructions,
		"cycles":           met.Cycles,
		"itlb_hit_ratio":   met.ITLB.Value(),
		"gcs":              met.GCs,
		"gc_pause_us":      met.GCPause.Microseconds(),
		"workers":          n.pool.Workers(),
		"queue_depths":     n.pool.QueueDepths(),
		"in_flight":        n.pool.InFlight(),
		"unhealthy_shards": n.pool.UnhealthyShards(),
		"ready":            n.notReady() == "",
		"rotating":         n.pool.Rotating(),
		"service_us":       httpwire.Percentiles(service),
		"queue_us":         httpwire.Percentiles(qwait),
		"decode_us":        httpwire.Percentiles(dec),
		"encode_us":        httpwire.Percentiles(enc),
		"http_latency_us":  httpwire.Percentiles(hlat),
		"shards":           n.pool.ShardMetrics(),
		"start_time":       n.start.UTC().Format(time.RFC3339Nano),
		"uptime_s":         time.Since(n.start).Seconds(),
		"image":            n.boot,
		"runtime":          runtimeGauges(),
		"slowlog_us":       n.pool.SlowThreshold().Microseconds(),
		"checkpoint":       ckpt,
		"binary":           n.binaryStats(),
	})
}

// binaryStats is the /stats binary-transport block: enabled or not,
// plus the obwire server's connection and frame counters. The decode
// and encode spans already land in the shared decode_us/encode_us
// families — one histogram per stage, whichever wire carried it.
func (n *Node) binaryStats() map[string]any {
	if n.bin == nil {
		return map[string]any{"enabled": false}
	}
	st := n.bin.Stats()
	return map[string]any{
		"enabled":        true,
		"addr":           n.bin.Addr().String(),
		"conns_accepted": st.ConnsAccepted,
		"conns_active":   st.ConnsActive,
		"frames_in":      st.FramesIn,
		"frames_out":     st.FramesOut,
		"frames_inline":  st.FramesInline,
		"pings":          st.Pings,
		"proto_errors":   st.ProtoErrors,
	}
}
