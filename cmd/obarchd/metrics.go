// Prometheus text exposition, the slow-request debug endpoint, and the
// pprof mount — obarchd's deep-observability surface. Everything here
// renders from the same lock-free sources the hot path writes (seqlock
// metrics snapshots, the flight recorder's rings, atomic histogram
// buckets): scraping adds no locking anywhere a request runs.
package main

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"time"

	"repro/internal/httpwire"
	"repro/internal/serve"
)

// handleMetrics is GET /metrics: the pool's counters, the node's
// identity, the Go runtime's health, and the per-stage latency
// histograms, as Prometheus text exposition (version 0.0.4).
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	met := s.pool.Metrics()
	var b strings.Builder

	httpwire.Counter(&b, "obarch_requests_total", "Requests served by the machine pool.", met.Requests)
	httpwire.Counter(&b, "obarch_errors_total", "Requests answered with any error.", met.Errors)
	httpwire.Counter(&b, "obarch_timeouts_total", "Requests aborted by deadline or interrupt traps.", met.Timeouts)
	httpwire.Counter(&b, "obarch_rejected_total", "Requests refused at admission (full queue or in-flight ceiling).", met.Rejected)
	httpwire.Counter(&b, "obarch_shed_expired_total", "Queued requests shed at dispatch because their deadline expired waiting.", met.SheddedExpired)
	httpwire.Counter(&b, "obarch_panics_total", "Worker panics caught by the recovery barriers.", met.Panics)
	httpwire.Counter(&b, "obarch_restamps_total", "Quarantined machines re-stamped fresh from the serving snapshot.", met.Restamps)
	httpwire.Counter(&b, "obarch_rotations_total", "Completed live image rotations (every shard swapped, zero dropped requests).", met.Rotations)
	httpwire.Counter(&b, "obarch_rotate_failures_total", "Rotations that failed mid-swap and were rolled back.", met.RotateFailures)
	httpwire.Counter(&b, "obarch_instructions_total", "Interpreted machine instructions across all shards.", met.Instructions)
	httpwire.Counter(&b, "obarch_cycles_total", "Simulated machine cycles across all shards.", met.Cycles)
	httpwire.Counter(&b, "obarch_itlb_hits_total", "Instruction-TLB (method cache) hits.", met.ITLB.Hits)
	httpwire.Counter(&b, "obarch_itlb_lookups_total", "Instruction-TLB (method cache) lookups.", met.ITLB.Total)
	httpwire.Counter(&b, "obarch_gc_cycles_total", "Completed mark-sweep collection cycles across all shards.", met.GCs)
	httpwire.Header(&b, "obarch_gc_pause_seconds_total", "Wall-clock time shards spent on collection work.", "counter")
	fmt.Fprintf(&b, "obarch_gc_pause_seconds_total %g\n", met.GCPause.Seconds())

	httpwire.Gauge(&b, "obarch_workers", "Worker machines in the pool.", float64(s.pool.Workers()))
	httpwire.Header(&b, "obarch_queue_depth", "Pending requests per worker shard.", "gauge")
	for i, d := range s.pool.QueueDepths() {
		fmt.Fprintf(&b, "obarch_queue_depth{worker=\"%d\"} %d\n", i, d)
	}
	httpwire.Gauge(&b, "obarch_in_flight", "Admitted-but-unfinished requests across the pool.", float64(s.pool.InFlight()))
	httpwire.Gauge(&b, "obarch_unhealthy_shards", "Shards whose last request panicked and whose fresh machine is unprobed.", float64(s.pool.UnhealthyShards()))
	httpwire.Flag(&b, "obarch_ready", "1 while /readyz answers 200, 0 while new traffic should go elsewhere.", s.notReady() == "")
	httpwire.Gauge(&b, "obarch_start_time_seconds", "Unix time the daemon started.", float64(s.start.UnixNano())/1e9)
	httpwire.Gauge(&b, "obarch_uptime_seconds", "Seconds since the daemon started.", time.Since(s.start).Seconds())
	httpwire.Gauge(&b, "obarch_slow_captures", "Slow-request captures currently retained.", float64(len(s.pool.SlowRequests())))
	httpwire.Header(&b, "obarch_image_info", "Serving image provenance: 1, labelled with path, load mode, and format version.", "gauge")
	fmt.Fprintf(&b, "obarch_image_info{path=%s,mode=%s,version=\"%d\"} 1\n",
		httpwire.Label(s.boot.ImagePath), httpwire.Label(s.boot.Mode), s.boot.FormatVersion)

	// Durability: the recovery rung the boot took, and the checkpointer's
	// freshness. -1 gauges are the "never"/"not this rung" sentinels.
	httpwire.Gauge(&b, "obarch_recovered_generation", "Checkpoint generation recovered at boot; -1 when boot took a lower rung.", float64(s.boot.RecoveredGeneration))
	httpwire.Gauge(&b, "obarch_recovery_ladder", "Recovery rungs rejected at boot before one held (corrupt checkpoints, unreadable image).", float64(s.boot.RecoveryLadder))
	taken, ckptFails := s.checkpointCounts()
	httpwire.Counter(&b, "obarch_checkpoints_total", "Live checkpoints captured by the background checkpointer.", taken)
	httpwire.Counter(&b, "obarch_checkpoint_failures_total", "Checkpoint attempts that failed (snapshot refused or write error).", ckptFails)
	httpwire.Gauge(&b, "obarch_checkpoint_age_seconds", "Seconds since the newest checkpoint; -1 when none exists.", s.checkpointAge())
	httpwire.Gauge(&b, "obarch_checkpoint_generation", "Newest checkpoint generation; -1 when none exists.", float64(s.checkpointGen()))
	httpwire.Flag(&b, "obarch_rotating", "1 while a live image rotation is mid-swap.", s.pool.Rotating())

	// Binary transport: connection and frame counters for the obwire
	// listener. Absent entirely when -binary-addr is off, so dashboards
	// can distinguish "disabled" from "idle". The decode/encode spans
	// share obarch_decode_seconds/obarch_encode_seconds with HTTP.
	if s.bin != nil {
		bst := s.bin.Stats()
		httpwire.Counter(&b, "obarch_binary_conns_total", "Binary-transport connections accepted.", bst.ConnsAccepted)
		httpwire.Gauge(&b, "obarch_binary_conns_active", "Binary-transport connections currently open.", float64(bst.ConnsActive))
		httpwire.Counter(&b, "obarch_binary_frames_in_total", "Binary-transport request frames decoded and dispatched.", bst.FramesIn)
		httpwire.Counter(&b, "obarch_binary_frames_out_total", "Binary-transport response frames written.", bst.FramesOut)
		httpwire.Counter(&b, "obarch_binary_frames_inline_total", "Binary-transport request frames the connection reader ran to completion itself.", bst.FramesInline)
		httpwire.Counter(&b, "obarch_binary_proto_errors_total", "Malformed binary frames; each poisons exactly its own connection.", bst.ProtoErrors)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	httpwire.Gauge(&b, "go_goroutines", "Goroutines in the host process.", float64(runtime.NumGoroutine()))
	httpwire.Gauge(&b, "go_memstats_heap_alloc_bytes", "Host heap bytes allocated and in use.", float64(ms.HeapAlloc))
	httpwire.Gauge(&b, "go_memstats_heap_sys_bytes", "Host heap bytes obtained from the OS.", float64(ms.HeapSys))
	httpwire.Gauge(&b, "go_memstats_heap_objects", "Host heap objects in use.", float64(ms.HeapObjects))
	httpwire.Counter(&b, "go_gc_cycles_total", "Host garbage-collection cycles.", uint64(ms.NumGC))
	httpwire.Header(&b, "go_gc_pause_seconds_total", "Host GC stop-the-world pause time.", "counter")
	fmt.Fprintf(&b, "go_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)

	httpwire.Histogram(&b, "obarch_service_latency_seconds", "Machine service time per request.", s.pool.LatencyHistogram())
	httpwire.Histogram(&b, "obarch_queue_wait_seconds", "Queue wait of queued requests (the inline fast lane never waits).", s.pool.QueueWaitHistogram())
	httpwire.Histogram(&b, "obarch_http_latency_seconds", "Whole HTTP handler: decode, queueing, service, encode.", s.httpLat.Snapshot())
	httpwire.Histogram(&b, "obarch_decode_seconds", "HTTP request read and parse span.", s.decLat.Snapshot())
	httpwire.Histogram(&b, "obarch_encode_seconds", "HTTP response encode and write span.", s.encLat.Snapshot())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// slowEvent is one flight-recorder event in /debug/slow's wire form,
// with the kind decoded to its name and the timestamp relative to the
// recorder epoch.
type slowEvent struct {
	Seq   uint64 `json:"seq"`
	TSUS  int64  `json:"ts_us"`
	Kind  string `json:"kind"`
	Shard int    `json:"shard"`
	Req   uint64 `json:"req"`
	Arg   uint64 `json:"arg"`
}

// slowEntry is one slow-request capture on the wire: the capture itself
// plus its event chain decoded for humans.
type slowEntry struct {
	serve.SlowCapture
	Chain []slowEvent `json:"chain"`
}

// handleSlow is GET /debug/slow: the retained slow-request captures,
// oldest first, each with its spans, per-request machine accounting, and
// decoded flight-recorder chain.
func (s *server) handleSlow(w http.ResponseWriter, _ *http.Request) {
	slow := s.pool.SlowRequests()
	entries := make([]slowEntry, len(slow))
	for i, c := range slow {
		entries[i] = slowEntry{SlowCapture: c}
		for _, ev := range c.Events {
			entries[i].Chain = append(entries[i].Chain, slowEvent{
				Seq:   ev.Seq,
				TSUS:  ev.TS / 1e3,
				Kind:  ev.Kind.String(),
				Shard: ev.Shard,
				Req:   ev.Req,
				Arg:   ev.Arg,
			})
		}
	}
	httpwire.WriteJSON(w, http.StatusOK, map[string]any{
		"threshold_us": s.pool.SlowThreshold().Microseconds(),
		"captures":     entries,
	})
}

// mountDebug exposes net/http/pprof under /debug/pprof — CPU profiles,
// heap, goroutine and blocking dumps. Only wired with -debug: profiling
// is for operators, not the open internet.
func (s *server) mountDebug() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
