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

	"repro/internal/serve"
	"repro/internal/stats"
)

// promBounds is the fixed bucket ladder (seconds) every exported latency
// histogram uses: two-per-decade from 10µs to 10s. The underlying
// log-linear histograms are finer (≤25% buckets), so re-bucketing onto
// this ladder loses at most one fine bucket per bound.
var promBounds = []float64{
	10e-6, 50e-6, 100e-6, 500e-6,
	1e-3, 5e-3, 10e-3, 50e-3, 100e-3, 500e-3,
	1, 5, 10,
}

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// writeHistogram renders one histogram in Prometheus form: cumulative
// `le` buckets on the shared ladder, an approximate sum (samples priced
// at their fine bucket's upper edge, the same ≤25% convention as the
// /stats percentiles), and the exact count.
func writeHistogram(b *strings.Builder, name, help string, h stats.Histogram) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, le := range promBounds {
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, fmt.Sprintf("%g", le), h.CumulativeLE(int64(le*1e9)))
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
	fmt.Fprintf(b, "%s_sum %g\n", name, h.ApproxSumNS()/1e9)
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count())
}

func writeCounter(b *strings.Builder, name, help string, v uint64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func writeGauge(b *strings.Builder, name, help string, v float64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

// handleMetrics is GET /metrics: the pool's counters, the node's
// identity, the Go runtime's health, and the per-stage latency
// histograms, as Prometheus text exposition (version 0.0.4).
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	met := s.pool.Metrics()
	var b strings.Builder

	writeCounter(&b, "obarch_requests_total", "Requests served by the machine pool.", met.Requests)
	writeCounter(&b, "obarch_errors_total", "Requests answered with any error.", met.Errors)
	writeCounter(&b, "obarch_timeouts_total", "Requests aborted by deadline or interrupt traps.", met.Timeouts)
	writeCounter(&b, "obarch_rejected_total", "Requests refused at admission (full queue or in-flight ceiling).", met.Rejected)
	writeCounter(&b, "obarch_shed_expired_total", "Queued requests shed at dispatch because their deadline expired waiting.", met.SheddedExpired)
	writeCounter(&b, "obarch_panics_total", "Worker panics caught by the recovery barriers.", met.Panics)
	writeCounter(&b, "obarch_restamps_total", "Quarantined machines re-stamped fresh from the serving snapshot.", met.Restamps)
	writeCounter(&b, "obarch_rotations_total", "Completed live image rotations (every shard swapped, zero dropped requests).", met.Rotations)
	writeCounter(&b, "obarch_rotate_failures_total", "Rotations that failed mid-swap and were rolled back.", met.RotateFailures)
	writeCounter(&b, "obarch_instructions_total", "Interpreted machine instructions across all shards.", met.Instructions)
	writeCounter(&b, "obarch_cycles_total", "Simulated machine cycles across all shards.", met.Cycles)
	writeCounter(&b, "obarch_itlb_hits_total", "Instruction-TLB (method cache) hits.", met.ITLB.Hits)
	writeCounter(&b, "obarch_itlb_lookups_total", "Instruction-TLB (method cache) lookups.", met.ITLB.Total)
	writeCounter(&b, "obarch_gc_cycles_total", "Completed mark-sweep collection cycles across all shards.", met.GCs)
	fmt.Fprintf(&b, "# HELP obarch_gc_pause_seconds_total Wall-clock time shards spent on collection work.\n# TYPE obarch_gc_pause_seconds_total counter\nobarch_gc_pause_seconds_total %g\n", met.GCPause.Seconds())

	writeGauge(&b, "obarch_workers", "Worker machines in the pool.", float64(s.pool.Workers()))
	fmt.Fprintf(&b, "# HELP obarch_queue_depth Pending requests per worker shard.\n# TYPE obarch_queue_depth gauge\n")
	for i, d := range s.pool.QueueDepths() {
		fmt.Fprintf(&b, "obarch_queue_depth{worker=\"%d\"} %d\n", i, d)
	}
	writeGauge(&b, "obarch_in_flight", "Admitted-but-unfinished requests across the pool.", float64(s.pool.InFlight()))
	writeGauge(&b, "obarch_unhealthy_shards", "Shards whose last request panicked and whose fresh machine is unprobed.", float64(s.pool.UnhealthyShards()))
	ready := 1.0
	if s.notReady() != "" {
		ready = 0
	}
	writeGauge(&b, "obarch_ready", "1 while /readyz answers 200, 0 while new traffic should go elsewhere.", ready)
	writeGauge(&b, "obarch_start_time_seconds", "Unix time the daemon started.", float64(s.start.UnixNano())/1e9)
	writeGauge(&b, "obarch_uptime_seconds", "Seconds since the daemon started.", time.Since(s.start).Seconds())
	fr := 0.0
	if s.pool.FlightRecorder() != nil {
		fr = 1
	}
	writeGauge(&b, "obarch_flight_recorder", "1 when the flight recorder is live, 0 when ablated.", fr)
	writeGauge(&b, "obarch_slow_captures", "Slow-request captures currently retained.", float64(len(s.pool.SlowRequests())))
	fmt.Fprintf(&b, "# HELP obarch_image_info Serving image provenance: 1, labelled with path, load mode, and format version.\n# TYPE obarch_image_info gauge\n")
	fmt.Fprintf(&b, "obarch_image_info{path=%q,mode=%q,version=\"%d\"} 1\n",
		promEscape(s.boot.ImagePath), s.boot.Mode, s.boot.FormatVersion)

	// Durability: the recovery rung the boot took, and the checkpointer's
	// freshness. -1 gauges are the "never"/"not this rung" sentinels.
	writeGauge(&b, "obarch_recovered_generation", "Checkpoint generation recovered at boot; -1 when boot took a lower rung.", float64(s.boot.RecoveredGeneration))
	writeGauge(&b, "obarch_recovery_ladder", "Recovery rungs rejected at boot before one held (corrupt checkpoints, unreadable image).", float64(s.boot.RecoveryLadder))
	taken, ckptFails := s.checkpointCounts()
	writeCounter(&b, "obarch_checkpoints_total", "Live checkpoints captured by the background checkpointer.", taken)
	writeCounter(&b, "obarch_checkpoint_failures_total", "Checkpoint attempts that failed (snapshot refused or write error).", ckptFails)
	writeGauge(&b, "obarch_checkpoint_age_seconds", "Seconds since the newest checkpoint; -1 when none exists.", s.checkpointAge())
	writeGauge(&b, "obarch_checkpoint_generation", "Newest checkpoint generation; -1 when none exists.", float64(s.checkpointGen()))
	rotating := 0.0
	if s.pool.Rotating() {
		rotating = 1
	}
	writeGauge(&b, "obarch_rotating", "1 while a live image rotation is mid-swap.", rotating)

	// Binary transport: connection and frame counters for the obwire
	// listener. Absent entirely when -binary-addr is off, so dashboards
	// can distinguish "disabled" from "idle". The decode/encode spans
	// share obarch_decode_seconds/obarch_encode_seconds with HTTP.
	if s.bin != nil {
		bst := s.bin.Stats()
		writeCounter(&b, "obarch_binary_conns_total", "Binary-transport connections accepted.", bst.ConnsAccepted)
		writeGauge(&b, "obarch_binary_conns_active", "Binary-transport connections currently open.", float64(bst.ConnsActive))
		writeCounter(&b, "obarch_binary_frames_in_total", "Binary-transport request frames decoded and dispatched.", bst.FramesIn)
		writeCounter(&b, "obarch_binary_frames_out_total", "Binary-transport response frames written.", bst.FramesOut)
		writeCounter(&b, "obarch_binary_frames_inline_total", "Binary-transport request frames the connection reader ran to completion itself.", bst.FramesInline)
		writeCounter(&b, "obarch_binary_proto_errors_total", "Malformed binary frames; each poisons exactly its own connection.", bst.ProtoErrors)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeGauge(&b, "go_goroutines", "Goroutines in the host process.", float64(runtime.NumGoroutine()))
	writeGauge(&b, "go_memstats_heap_alloc_bytes", "Host heap bytes allocated and in use.", float64(ms.HeapAlloc))
	writeGauge(&b, "go_memstats_heap_sys_bytes", "Host heap bytes obtained from the OS.", float64(ms.HeapSys))
	writeGauge(&b, "go_memstats_heap_objects", "Host heap objects in use.", float64(ms.HeapObjects))
	writeCounter(&b, "go_gc_cycles_total", "Host garbage-collection cycles.", uint64(ms.NumGC))
	fmt.Fprintf(&b, "# HELP go_gc_pause_seconds_total Host GC stop-the-world pause time.\n# TYPE go_gc_pause_seconds_total counter\ngo_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)

	writeHistogram(&b, "obarch_service_latency_seconds", "Machine service time per request.", s.pool.LatencyHistogram())
	writeHistogram(&b, "obarch_queue_wait_seconds", "Queue wait of queued requests (the inline fast lane never waits).", s.pool.QueueWaitHistogram())
	writeHistogram(&b, "obarch_http_latency_seconds", "Whole HTTP handler: decode, queueing, service, encode.", s.httpLat.Snapshot())
	writeHistogram(&b, "obarch_decode_seconds", "HTTP request read and parse span.", s.decLat.Snapshot())
	writeHistogram(&b, "obarch_encode_seconds", "HTTP response encode and write span.", s.encLat.Snapshot())

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
	writeJSON(w, http.StatusOK, map[string]any{
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
