// Command obarchd serves a Caltech Object Machine image over HTTP/JSON:
// one compiled and loaded image is snapshotted and cloned into a sharded
// pool of worker machines, each executing message sends on its own
// goroutine.
//
//	obarchd -addr :8373 -workers 8            # serve the built-in workload suite
//	obarchd -suite=false prog.st other.st     # serve custom source files
//	obarchd -image com.img                    # warm-boot from a persistent image
//
// Durability. Boot descends a recovery ladder: the newest valid
// checkpoint generation under -checkpoint-dir first (generations whose
// manifest or image fails its CRC are rejected, one rung each), then the
// -image file (an unreadable image falls through instead of failing the
// boot), then compile-from-source. /stats and /metrics export the rung
// taken (recovered_generation, recovery_ladder). With -checkpoint DUR, a
// background checkpointer captures the pool's live state every DUR into
// generation-numbered directories (atomic staging-dir + fsync + rename;
// CRC-protected manifest), prunes to the newest -checkpoint-keep, and
// takes a final checkpoint during graceful drain. POST /save persists the
// live state to the -image path the same way (atomically, via a temp
// file and rename) — both capture at a request-boundary quiescence, so
// concurrent traffic delays a save by at most one request, never tears
// it.
//
// Live rotation. POST /rotate stages a new image off the hot path
// (hostile-input validation included) and swaps the pool onto it
// shard-by-shard between requests: queues buffer during each shard's
// stamp, so no request is dropped, failed, or globally paused. If any
// shard's stamp fails the already-swapped shards roll back and the pool
// is left exactly as found. -watch DUR polls the -image path and rotates
// automatically when the file changes. /readyz reports "rotating" (503)
// mid-swap so balancers prefer steadier peers.
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: /readyz flips
// not-ready first (so load balancers stop routing here), then the
// listener stops accepting, in-flight HTTP requests get -drain to
// finish, and the pool is closed — which serves every queued request and
// stops each worker at a request boundary, so shutdown never lands
// mid-send or mid-GC-sweep.
//
// Overload and self-healing. The pool degrades instead of collapsing:
// enqueue is bounded (a full shard queue refuses instead of blocking),
// -maxinflight caps admitted-but-unfinished requests pool-wide, and a
// queued request whose deadline expired while it waited is shed at
// dispatch without executing. /send maps those refusals to HTTP 429
// (rejected at admission) and 503 (shed after expiring), both with a
// Retry-After header; machine errors stay 422. A worker panic never
// kills the daemon: recovery barriers convert it into a failed result,
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
// persistent TCP connections, pipelined — many frames in flight per
// connection, responses in request order with echoed frame ids — and
// feeding the same pool, admission control, and flight recorder as
// HTTP. The per-connection read→dispatch→write loop runs at zero
// allocations per send in steady state, which is what drops a loopback
// send from ~30 µs (HTTP) to low single-digit µs. Frame statuses mirror
// the HTTP map (OK / machine error 422 / overloaded 429 / shed 503), so
// client backoff logic carries over; a malformed frame poisons only its
// own connection. Graceful drain closes the binary listener alongside
// the HTTP one, answering every already-dispatched frame first, and the
// transport's decode/encode spans and counters land in the same /stats,
// /metrics, and flight-recorder families as HTTP's.
//
// Observability. Every worker shard feeds an always-on, lock-free flight
// recorder (see internal/flight): a fixed-size ring of request lifecycle
// events — enqueue, dispatch, exec start/end, abort, reject, shed,
// panic, restamp, GC slices — written
// with zero allocations on the serving path. On top of it the daemon
// explains itself four ways: /stats aggregates counters, per-stage span
// percentiles (queue wait, service, decode, encode), node identity
// (start time, uptime, image provenance) and Go runtime gauges; /metrics
// renders the same material as Prometheus text exposition; /debug/slow
// returns the full event chain and per-request machine accounting of
// every request that crossed the -slowlog threshold; and -debug mounts
// net/http/pprof under /debug/pprof for CPU/heap/goroutine profiles.
//
// Endpoints:
//
//	POST /send        {"receiver": 21, "selector": "double", "args": []};
//	                  answers 200, 422 on machine errors, 429 + Retry-After
//	                  when refused at admission, 503 + Retry-After when shed
//	                  after its deadline expired in queue
//	POST /batch       [{"receiver": 21, "selector": "double"}, ...] — executed
//	                  as pool sends, at most 64 in flight at once
//	                  (httpwire.BatchWindow); the response is the result
//	                  array in request order, with per-request failures
//	                  reported inline. Overload refusals appear only when
//	                  concurrent traffic together exceeds -queue on one
//	                  shard (or -maxinflight); they are inline and
//	                  retryable, as on the router
//	POST /save        persist the pool's live state to the -image path,
//	                  captured at a request-boundary quiescence
//	POST /rotate      swap the pool onto a new image with zero downtime;
//	                  optional body {"path": "..."} (default: the -image
//	                  path); 409 while another rotation is mid-swap, 400
//	                  for an invalid image (pool untouched), 500 for a
//	                  mid-swap failure (pool rolled back)
//	GET  /programs    the loaded workload programs (name, size, entry, check)
//	GET  /stats       aggregated pool metrics (add ?format=text for a table);
//	                  includes per-shard queue depths,
//	                  node identity (start_time, uptime_s, image provenance),
//	                  Go runtime gauges, and fixed-bucket percentiles per
//	                  stage: "latency_us"/"service_us" is machine service
//	                  time (p50/p90/p99/p999), "queue_us" queue wait,
//	                  "decode_us"/"encode_us" the HTTP codec spans, and
//	                  "http_latency_us" the whole handler
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
//	obwire ping       liveness frame answered in queue order — a pong
//	                  proves the read→dispatch→write loop itself is
//	                  serving, which is what the cluster router's
//	                  half-open probe requires before trusting a node
//
// Cluster serving. cmd/obrouter fronts N obarchd nodes with the same
// client wire shapes, decoded and answered by the same internal/httpwire
// code: affinity keys consistent-hash onto the node ring over
// multiplexed obwire connections, keyless sends extend the pool's
// power-of-two-choices JSQ to cluster level from polled queue_depths,
// and per-node health state machines driven by the /readyz reasons
// above (a node answering "draining" or "rotating" is unroutable but
// not broken) plus in-band refusal statuses open per-node circuit
// breakers and fail retryable refusals over to the next ring node. Its
// package doc lists the router's endpoints.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/httpwire"
	"repro/internal/image"
	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8373", "listen address")
	binaryAddr := flag.String("binary-addr", "", "obwire binary transport listen address (empty: disabled)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker machines in the pool")
	queue := flag.Int("queue", 256, "per-worker queue depth")
	maxSteps := flag.Uint64("maxsteps", 0, "default per-request step budget (0: machine default)")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-request wall-clock timeout")
	suite := flag.Bool("suite", true, "load the built-in workload suite")
	gcEvery := flag.Int("gcevery", 0, "collect per worker every N requests (0: default, <0: never)")
	imagePath := flag.String("image", "", "machine image path: warm-boot from it when present (refuses extra source files; /programs still reflects -suite), persist to it on POST /save")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown budget for in-flight HTTP requests")
	slowlog := flag.Duration("slowlog", 100*time.Millisecond, "capture requests slower than this for GET /debug/slow (0: disabled)")
	debug := flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof")
	maxInFlight := flag.Int("maxinflight", 0, "pool-wide cap on admitted-but-unfinished requests (0: unlimited, <0: refuse everything)")
	chaos := flag.String("chaos", "", `deterministic fault plan, e.g. "seed=42,panic=100,stall=50:2ms,clog=64:1ms" (empty: none)`)
	checkpoint := flag.Duration("checkpoint", 0, "capture a live checkpoint every DUR (0: disabled; requires -checkpoint-dir)")
	checkpointDir := flag.String("checkpoint-dir", "", "checkpoint directory: recover the newest valid generation at boot, write new generations per -checkpoint")
	checkpointKeep := flag.Int("checkpoint-keep", 5, "checkpoint generations to retain")
	watch := flag.Duration("watch", 0, "poll the -image path every DUR and rotate onto it when it changes (0: disabled)")
	flag.Parse()

	faults, err := parseChaos(*chaos)
	if err != nil {
		log.Fatalf("obarchd: -chaos: %v", err)
	}
	if *checkpoint > 0 && *checkpointDir == "" {
		log.Fatalf("obarchd: -checkpoint requires -checkpoint-dir")
	}
	if *watch > 0 && *imagePath == "" {
		log.Fatalf("obarchd: -watch requires -image")
	}
	snap, programs, boot, err := bootSnapshot(*imagePath, *checkpointDir, *suite, flag.Args())
	if err != nil {
		log.Fatalf("obarchd: %v", err)
	}

	pool := serve.NewPool(snap, serve.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		MaxSteps:      *maxSteps,
		Timeout:       *timeout,
		GCEvery:       *gcEvery,
		SlowThreshold: *slowlog,
		MaxInFlight:   *maxInFlight,
		Faults:        faults,
	})
	if faults != nil {
		log.Printf("obarchd: chaos armed: %s", *chaos)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("obarchd: %v", err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	h := newServer(pool, programs, snap, *imagePath)
	h.boot = boot
	if *debug {
		h.mountDebug()
	}
	if *checkpoint > 0 {
		ckpt, err := newCheckpointer(pool, *checkpointDir, *checkpointKeep, *checkpoint)
		if err != nil {
			log.Fatalf("obarchd: -checkpoint-dir %s: %v", *checkpointDir, err)
		}
		h.ckpt = ckpt
		go ckpt.run()
		log.Printf("obarchd: checkpointing to %s every %v (keep %d)", *checkpointDir, *checkpoint, *checkpointKeep)
	}
	if *watch > 0 {
		h.watchStop = make(chan struct{})
		go h.watchImage(*watch, h.watchStop)
		log.Printf("obarchd: watching %s every %v for live rotation", *imagePath, *watch)
	}
	if *binaryAddr != "" {
		bl, err := net.Listen("tcp", *binaryAddr)
		if err != nil {
			log.Fatalf("obarchd: -binary-addr: %v", err)
		}
		h.bin = obwire.Serve(bl, pool, obwire.Options{
			DecodeLat: &h.decLat,
			EncodeLat: &h.encLat,
			Logf:      log.Printf,
		})
		log.Printf("obarchd: serving obwire binary transport on %s", bl.Addr())
	}
	srv := &http.Server{Handler: h}
	log.Printf("obarchd: serving %d programs on %s with %d workers", len(programs), l.Addr(), pool.Workers())
	h.serveAndDrain(srv, l, *drain, sig)
	met := pool.Metrics()
	log.Printf("obarchd: drained; served %d requests (%d errors)", met.Requests, met.Errors)
}

// serveAndDrain runs the HTTP server until a signal arrives, then shuts
// down gracefully: /readyz flips not-ready first (load balancers see a
// leaving node before its listener vanishes), then both listeners stop
// accepting — the obwire binary transport drains alongside HTTP,
// answering every already-dispatched frame — in-flight requests get the
// drain budget to finish, and the pool is closed — Close serves every
// already-queued request and stops each worker at a request boundary,
// so exit never races a live send or an incremental GC sweep. A method
// on server so tests can drive the whole shutdown path.
func (s *server) serveAndDrain(srv *http.Server, l net.Listener, drain time.Duration, sig <-chan os.Signal) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		sg := <-sig
		log.Printf("obarchd: %v: draining", sg)
		s.draining.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		binDone := make(chan struct{})
		go func() {
			defer close(binDone)
			if s.bin != nil {
				s.bin.Shutdown(ctx)
			}
		}()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("obarchd: shutdown: %v", err)
		}
		<-binDone
	}()
	if err := srv.Serve(l); !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("obarchd: %v", err)
	}
	<-done
	// Durability workers wind down before the pool: the watcher stops
	// rotating, and the checkpointer takes its final capture — the
	// freshest possible recovery point — while SnapshotLive still works.
	if s.watchStop != nil {
		close(s.watchStop)
	}
	if s.ckpt != nil {
		s.ckpt.Stop()
	}
	s.pool.Close()
}

// parseChaos parses the -chaos fault plan: comma-separated key=value
// pairs. "seed=S" seeds the per-shard fault phases (0, the default, is
// fully predictable: every cadence fires on exact multiples), "panic=N"
// panics every Nth send on each shard, "stall=N:DUR" sleeps DUR before
// every Nth send, "clog=N:DUR" sleeps DUR in the dispatch loop every Nth
// job. An empty spec means no plan.
func parseChaos(spec string) (*serve.Faults, error) {
	if spec == "" {
		return nil, nil
	}
	f := &serve.Faults{}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("%q: want key=value", kv)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("seed %q: want an unsigned integer", val)
			}
			f.Seed = n
		case "panic":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("panic %q: want a non-negative integer", val)
			}
			f.PanicEvery = n
		case "stall":
			n, d, err := parseEveryDur(val)
			if err != nil {
				return nil, fmt.Errorf("stall %v", err)
			}
			f.StallEvery, f.Stall = n, d
		case "clog":
			n, d, err := parseEveryDur(val)
			if err != nil {
				return nil, fmt.Errorf("clog %v", err)
			}
			f.ClogEvery, f.Clog = n, d
		default:
			return nil, fmt.Errorf("unknown key %q (want seed, panic, stall, or clog)", key)
		}
	}
	return f, nil
}

// parseEveryDur parses a cadence-with-duration chaos value, "N:DUR"
// (e.g. "50:2ms").
func parseEveryDur(val string) (int, time.Duration, error) {
	ns, ds, ok := strings.Cut(val, ":")
	if !ok {
		return 0, 0, fmt.Errorf("%q: want N:duration", val)
	}
	n, err := strconv.Atoi(ns)
	if err != nil || n < 0 {
		return 0, 0, fmt.Errorf("%q: cadence: want a non-negative integer", val)
	}
	d, err := time.ParseDuration(ds)
	if err != nil || d < 0 {
		return 0, 0, fmt.Errorf("%q: bad duration %q", val, ds)
	}
	return n, d, nil
}

// bootInfo is the serving snapshot's provenance — how this node came to
// hold its image — reported by /stats and /metrics so a cluster can tell
// its members apart.
type bootInfo struct {
	// ImagePath is the -image path, empty when none was configured.
	ImagePath string `json:"path,omitempty"`
	// Mode is the recovery-ladder rung the boot took: "checkpoint" when
	// the snapshot was recovered from a checkpoint generation, "warm"
	// when it was loaded from the persisted -image file, "compile" when
	// it was compiled from source.
	Mode string `json:"mode"`
	// FormatVersion is the on-disk image codec version this build
	// speaks (the version a warm boot read and POST /save writes).
	FormatVersion int `json:"format_version"`
	// RecoveredGeneration is the checkpoint generation the boot
	// recovered, -1 on the lower rungs.
	RecoveredGeneration int64 `json:"recovered_generation"`
	// RecoveryLadder counts the rungs rejected on the way to Mode:
	// corrupt or torn checkpoint generations skipped, plus an unreadable
	// -image file fallen through. 0 is a first-rung boot.
	RecoveryLadder int `json:"recovery_ladder"`
}

// bootSnapshot produces the serving snapshot by descending the recovery
// ladder: the newest valid checkpoint generation under ckptDir first
// (corrupt or torn generations are rejected and cost one rung each),
// then the -image file (warm start — no compile, warm ITLB; an
// unreadable image now falls through instead of failing the boot), then
// compile-from-source. The returned bootInfo records the rung taken and
// the rungs rejected.
func bootSnapshot(imagePath, ckptDir string, suite bool, srcPaths []string) (*obarch.Snapshot, []workload.Program, bootInfo, error) {
	info := bootInfo{ImagePath: imagePath, Mode: "compile", FormatVersion: image.FormatVersion, RecoveredGeneration: -1}
	var programs []workload.Program
	if suite {
		programs = workload.Suite()
	}
	if ckptDir != "" {
		snap, m, rejected, err := image.RecoverLatest(ckptDir)
		info.RecoveryLadder += len(rejected)
		for _, gen := range rejected {
			log.Printf("obarchd: recovery: checkpoint gen %d rejected (corrupt or torn); falling to next rung", gen)
		}
		switch {
		case err == nil:
			if len(srcPaths) != 0 {
				return nil, nil, info, fmt.Errorf("cannot load source files over checkpoint state in %s; clear it or drop the file arguments", ckptDir)
			}
			info.Mode = "checkpoint"
			info.RecoveredGeneration = int64(m.Generation)
			log.Printf("obarchd: recovered checkpoint gen %d from %s (captured %s)", m.Generation, ckptDir, time.Unix(0, m.CreatedUnixNS).UTC().Format(time.RFC3339))
			return snap, programs, info, nil
		case errors.Is(err, image.ErrNoCheckpoint):
			log.Printf("obarchd: recovery: no valid checkpoint in %s; falling to -image", ckptDir)
		default:
			return nil, nil, info, fmt.Errorf("checkpoint dir %s: %w", ckptDir, err)
		}
	}
	if imagePath != "" {
		f, err := os.Open(imagePath)
		switch {
		case err == nil:
			defer f.Close()
			// A warm boot serves exactly what the image holds; silently
			// dropping extra sources (or advertising programs the image
			// was saved without) would misrepresent the pool, so refuse
			// the combination instead.
			if len(srcPaths) != 0 {
				return nil, nil, info, fmt.Errorf("cannot load source files over an existing image %s; delete it or drop the file arguments", imagePath)
			}
			start := time.Now()
			snap, err := obarch.ReadImage(f)
			if err != nil {
				// The image rung failed: one more rung down, compile.
				info.RecoveryLadder++
				log.Printf("obarchd: recovery: image %s rejected (%v); falling to compile", imagePath, err)
				break
			}
			log.Printf("obarchd: warm boot from %s in %v", imagePath, time.Since(start).Round(time.Microsecond))
			info.Mode = "warm"
			return snap, programs, info, nil
		case os.IsNotExist(err):
			log.Printf("obarchd: image %s absent; cold boot (POST /save to create it)", imagePath)
		default:
			return nil, nil, info, err
		}
	}
	sys := obarch.NewSystem(obarch.Options{})
	if suite {
		if _, err := workload.LoadSuite(sys.M); err != nil {
			return nil, nil, info, err
		}
	}
	for _, path := range srcPaths {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, info, err
		}
		if err := sys.Load(string(src)); err != nil {
			return nil, nil, info, fmt.Errorf("load %s: %w", path, err)
		}
	}
	snap, err := sys.Snapshot()
	if err != nil {
		return nil, nil, info, err
	}
	return snap, programs, info, nil
}

// server is the HTTP face of a pool. Split from main so tests can drive it
// through net/http/httptest. snap is the immutable serving snapshot;
// imagePath, when set, is where POST /save persists it. httpLat records
// whole-handler latency (decode, queueing, service, encode) for the
// /stats percentiles.
// draining flips when shutdown begins, before the listener closes, so
// /readyz steers load balancers away from a leaving node.
type server struct {
	pool      *serve.Pool
	programs  []workload.Program
	snap      *obarch.Snapshot
	imagePath string
	mux       *http.ServeMux
	boot      bootInfo
	start     time.Time
	draining  atomic.Bool
	httpLat   stats.ConcurrentHistogram
	decLat    stats.ConcurrentHistogram // request read+parse span
	encLat    stats.ConcurrentHistogram // response encode+write span

	// Durability wiring: ckpt is the background checkpointer (nil when
	// -checkpoint is off), watchStop stops the -watch rotation poller
	// (nil when -watch is off). Both are closed down by serveAndDrain
	// before the pool.
	ckpt      *checkpointer
	watchStop chan struct{}

	// bin is the obwire binary-transport server (nil when -binary-addr
	// is off). It shares the pool, the decode/encode span histograms,
	// and the drain path with the HTTP listener.
	bin *obwire.Server
}

func newServer(pool *serve.Pool, programs []workload.Program, snap *obarch.Snapshot, imagePath string) *server {
	s := &server{pool: pool, programs: programs, snap: snap, imagePath: imagePath, mux: http.NewServeMux(), start: time.Now()}
	s.boot = bootInfo{ImagePath: imagePath, Mode: "compile", FormatVersion: image.FormatVersion}
	s.mux.HandleFunc("POST /send", s.handleSend)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	s.mux.HandleFunc("POST /save", s.handleSave)
	s.mux.HandleFunc("POST /rotate", s.handleRotate)
	s.mux.HandleFunc("GET /programs", s.handlePrograms)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/slow", s.handleSlow)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	return s
}

// notReady answers why this node should not receive new traffic, or ""
// while it should. Checked in severity order: a draining node is leaving
// no matter what the pool says; a rotating node serves correctly but a
// balancer should prefer a steadier peer until the swap lands; an
// overloaded pool refuses admission anyway; and when quarantine
// re-stamps are churning through more than half the shards, capacity is
// not what the balancer thinks it is.
func (s *server) notReady() string {
	switch {
	case s.draining.Load():
		return "draining"
	case s.pool.Rotating():
		return "rotating"
	case s.pool.Overloaded():
		return "overloaded"
	case 2*s.pool.UnhealthyShards() > s.pool.Workers():
		return "quarantine-heavy"
	}
	return ""
}

// handleReady is GET /readyz: 200 "ready" while the node should receive
// traffic, 503 with the reason when it should not. Distinct from
// /healthz (liveness): a draining or overloaded node is alive — the
// process must not be restarted — it just wants no new work.
func (s *server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if reason := s.notReady(); reason != "" {
		http.Error(w, reason, http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// handleSave persists the pool's live state to the configured image
// path. The snapshot is captured through SnapshotLive — the pool
// quiesces to a request boundary, so the image reflects every mutation
// traffic has made, and a save under concurrent load can never catch a
// machine mid-send (the race the old boot-snapshot save only avoided by
// never saving live state at all). The write goes through a temp file
// and an atomic rename, so a crash mid-save can never leave a truncated
// image where the next boot would read it (and the codec's section CRCs
// would refuse such a file anyway).
func (s *server) handleSave(w http.ResponseWriter, _ *http.Request) {
	if s.imagePath == "" {
		httpwire.Error(w, http.StatusBadRequest, "no image path configured; start obarchd with -image")
		return
	}
	start := time.Now()
	snap, err := s.pool.SnapshotLive()
	if err != nil {
		httpwire.Error(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(s.imagePath), ".obarch-image-*")
	if err != nil {
		httpwire.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	defer os.Remove(tmp.Name())
	if err := obarch.WriteImage(tmp, snap); err != nil {
		tmp.Close()
		httpwire.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	// Flush to stable storage before the rename makes the file current:
	// otherwise a crash can persist the rename but not the data, wiping
	// the previous good image exactly when durability mattered.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		httpwire.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	size, _ := tmp.Seek(0, 2)
	if err := tmp.Close(); err != nil {
		httpwire.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	// CreateTemp's 0600 is right for the staging file, not the artifact.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		httpwire.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	if err := os.Rename(tmp.Name(), s.imagePath); err != nil {
		httpwire.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	httpwire.WriteJSON(w, http.StatusOK, map[string]any{
		"path":       s.imagePath,
		"bytes":      size,
		"elapsed_us": time.Since(start).Microseconds(),
	})
}

func (s *server) handleSend(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, err := httpwire.ReadBody(w, r, nil)
	var req serve.Request
	if err == nil {
		req, err = httpwire.DecodeSend(body)
	}
	if err != nil {
		httpwire.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	s.decLat.Observe(time.Since(start))
	res := s.pool.Do(req)
	enc := time.Now()
	status := httpwire.Status(obwire.StatusFor(res.Err))
	httpwire.RetryAfter(w, status)
	httpwire.WriteJSON(w, status, httpwire.ResultResponse(res))
	end := time.Now()
	s.encLat.Observe(end.Sub(enc))
	s.httpLat.Observe(end.Sub(start))
}

// handleBatch executes an array of sends as a sliding window of pool
// futures: element i is submitted with Go once element i-BatchWindow has
// been waited for, so at most httpwire.BatchWindow elements are in flight.
// The response preserves request order; per-request failures are reported
// inline, so the status is 200 whenever the batch itself was well-formed.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, err := httpwire.ReadBody(w, r, nil)
	var reqs []serve.Request
	if err == nil {
		reqs, err = httpwire.DecodeBatch(body)
	}
	if err != nil {
		httpwire.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	s.decLat.Observe(time.Since(start))
	const win = httpwire.BatchWindow
	var window [win]*serve.Future
	out := make([]httpwire.SendResponse, len(reqs))
	for i, req := range reqs {
		if i >= win {
			out[i-win] = httpwire.ResultResponse(window[i%win].Wait())
		}
		window[i%win] = s.pool.Go(req)
	}
	for i := max(0, len(reqs)-win); i < len(reqs); i++ {
		out[i] = httpwire.ResultResponse(window[i%win].Wait())
	}
	enc := time.Now()
	httpwire.WriteJSON(w, http.StatusOK, out)
	end := time.Now()
	s.encLat.Observe(end.Sub(enc))
	s.httpLat.Observe(end.Sub(start))
}

func (s *server) handlePrograms(w http.ResponseWriter, _ *http.Request) {
	out := make([]httpwire.ProgramInfo, len(s.programs))
	for i, p := range s.programs {
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

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	met := s.pool.Metrics()
	service := s.pool.LatencyHistogram()
	qwait := s.pool.QueueWaitHistogram()
	hlat := s.httpLat.Snapshot()
	dec := s.decLat.Snapshot()
	enc := s.encLat.Snapshot()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, met.Report().String())
		fmt.Fprintf(w, "service latency   %s\n", service.String())
		fmt.Fprintf(w, "queue wait        %s\n", qwait.String())
		fmt.Fprintf(w, "http latency      %s\n", hlat.String())
		fmt.Fprintf(w, "decode            %s\n", dec.String())
		fmt.Fprintf(w, "encode            %s\n", enc.String())
		fmt.Fprintf(w, "in flight         %d\n", s.pool.InFlight())
		ready := "true"
		if reason := s.notReady(); reason != "" {
			ready = "false (" + reason + ")"
		}
		fmt.Fprintf(w, "ready             %s\n", ready)
		fmt.Fprintf(w, "uptime            %v\n", time.Since(s.start).Round(time.Second))
		fmt.Fprintf(w, "image             mode=%s version=%d path=%s\n", s.boot.Mode, s.boot.FormatVersion, s.boot.ImagePath)
		fmt.Fprintf(w, "recovery          rung=%s generation=%d ladder=%d\n", s.boot.Mode, s.boot.RecoveredGeneration, s.boot.RecoveryLadder)
		taken, ckptFails := s.checkpointCounts()
		fmt.Fprintf(w, "checkpoints       taken=%d failures=%d generation=%d age_s=%.1f\n", taken, ckptFails, s.checkpointGen(), s.checkpointAge())
		if s.bin != nil {
			bst := s.bin.Stats()
			fmt.Fprintf(w, "binary            addr=%s conns=%d (active %d) frames_in=%d frames_out=%d frames_inline=%d proto_errors=%d\n",
				s.bin.Addr(), bst.ConnsAccepted, bst.ConnsActive, bst.FramesIn, bst.FramesOut, bst.FramesInline, bst.ProtoErrors)
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
		"rotate_failures":  met.RotateFailures,
		"mean_latency_us":  met.MeanLatency().Microseconds(),
		"max_latency_us":   met.MaxLatency.Microseconds(),
		"instructions":     met.Instructions,
		"cycles":           met.Cycles,
		"itlb_hit_ratio":   met.ITLB.Value(),
		"gcs":              met.GCs,
		"gc_pause_us":      met.GCPause.Microseconds(),
		"workers":          s.pool.Workers(),
		"queue_depths":     s.pool.QueueDepths(),
		"in_flight":        s.pool.InFlight(),
		"unhealthy_shards": s.pool.UnhealthyShards(),
		"ready":            s.notReady() == "",
		"rotating":         s.pool.Rotating(),
		"latency_us":       httpwire.Percentiles(service),
		"service_us":       httpwire.Percentiles(service),
		"queue_us":         httpwire.Percentiles(qwait),
		"decode_us":        httpwire.Percentiles(dec),
		"encode_us":        httpwire.Percentiles(enc),
		"http_latency_us":  httpwire.Percentiles(hlat),
		"shards":           s.pool.ShardMetrics(),
		"start_time":       s.start.UTC().Format(time.RFC3339Nano),
		"uptime_s":         time.Since(s.start).Seconds(),
		"image":            s.boot,
		"runtime":          runtimeGauges(),
		"slowlog_us":       s.pool.SlowThreshold().Microseconds(),
		"checkpoint":       s.checkpointStats(),
		"checkpoint_age_s": s.checkpointAge(),
		"binary":           s.binaryStats(),
	})
}

// binaryStats is the /stats binary-transport block: enabled or not,
// plus the obwire server's connection and frame counters. The decode
// and encode spans already land in the shared decode_us/encode_us
// families — one histogram per stage, whichever wire carried it.
func (s *server) binaryStats() map[string]any {
	if s.bin == nil {
		return map[string]any{"enabled": false}
	}
	st := s.bin.Stats()
	return map[string]any{
		"enabled":        true,
		"addr":           s.bin.Addr().String(),
		"conns_accepted": st.ConnsAccepted,
		"conns_active":   st.ConnsActive,
		"frames_in":      st.FramesIn,
		"frames_out":     st.FramesOut,
		"frames_inline":  st.FramesInline,
		"proto_errors":   st.ProtoErrors,
	}
}

// checkpointStats is the /stats checkpoint block: counters from the
// background checkpointer plus the age of the newest checkpoint in
// seconds (-1 when there is none — the "never checkpointed" sentinel a
// dashboard can alert on).
func (s *server) checkpointStats() map[string]any {
	taken, failures := s.checkpointCounts()
	return map[string]any{
		"enabled":    s.ckpt != nil,
		"taken":      taken,
		"failures":   failures,
		"generation": s.checkpointGen(),
		"age_s":      s.checkpointAge(),
	}
}
