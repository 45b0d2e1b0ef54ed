// Prometheus text exposition and the slow-request debug endpoint — the
// node's deep-observability surface. Everything here renders from the
// same lock-free sources the hot path writes (seqlock metrics snapshots,
// the flight recorder's rings, atomic histogram buckets): scraping adds
// no locking anywhere a request runs.

package node

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/httpwire"
	"repro/internal/serve"
)

// handleMetrics is GET /metrics: the pool's counters, the node's
// identity, the Go runtime's health, and the per-stage latency
// histograms, as Prometheus text exposition (version 0.0.4).
func (n *Node) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	met := n.pool.Metrics()
	var b strings.Builder

	httpwire.Counter(&b, "obarch_requests_total", "Requests served by the machine pool.", met.Requests)
	httpwire.Counter(&b, "obarch_errors_total", "Requests answered with any error.", met.Errors)
	httpwire.Counter(&b, "obarch_timeouts_total", "Requests aborted by deadline or interrupt traps.", met.Timeouts)
	httpwire.Counter(&b, "obarch_rejected_total", "Requests refused at admission (full queue or in-flight ceiling).", met.Rejected)
	httpwire.Counter(&b, "obarch_shed_expired_total", "Queued requests shed at dispatch because their deadline expired waiting.", met.SheddedExpired)
	httpwire.Counter(&b, "obarch_panics_total", "Worker panics caught by the recovery barriers.", met.Panics)
	httpwire.Counter(&b, "obarch_restamps_total", "Quarantined machines re-stamped fresh from the serving snapshot.", met.Restamps)
	httpwire.Counter(&b, "obarch_rotations_total", "Completed live image rotations (every shard swapped, zero dropped requests).", met.Rotations)
	httpwire.Counter(&b, "obarch_instructions_total", "Interpreted machine instructions across all shards.", met.Instructions)
	httpwire.Counter(&b, "obarch_cycles_total", "Simulated machine cycles across all shards.", met.Cycles)
	httpwire.Counter(&b, "obarch_itlb_hits_total", "Instruction-TLB (method cache) hits.", met.ITLB.Hits)
	httpwire.Counter(&b, "obarch_itlb_lookups_total", "Instruction-TLB (method cache) lookups.", met.ITLB.Total)
	httpwire.Counter(&b, "obarch_gc_cycles_total", "Completed mark-sweep collection cycles across all shards.", met.GCs)
	httpwire.Header(&b, "obarch_gc_pause_seconds_total", "Wall-clock time shards spent on collection work.", "counter")
	fmt.Fprintf(&b, "obarch_gc_pause_seconds_total %g\n", met.GCPause.Seconds())

	httpwire.Gauge(&b, "obarch_workers", "Worker machines in the pool.", float64(n.pool.Workers()))
	httpwire.Header(&b, "obarch_queue_depth", "Pending requests per worker shard.", "gauge")
	for i, d := range n.pool.QueueDepths() {
		fmt.Fprintf(&b, "obarch_queue_depth{worker=\"%d\"} %d\n", i, d)
	}
	httpwire.Gauge(&b, "obarch_in_flight", "Admitted-but-unfinished requests across the pool.", float64(n.pool.InFlight()))
	httpwire.Gauge(&b, "obarch_unhealthy_shards", "Shards whose last request panicked and whose fresh machine is unprobed.", float64(n.pool.UnhealthyShards()))
	httpwire.Flag(&b, "obarch_ready", "1 while /readyz answers 200, 0 while new traffic should go elsewhere.", n.notReady() == "")
	httpwire.Gauge(&b, "obarch_start_time_seconds", "Unix time the daemon started.", float64(n.start.UnixNano())/1e9)
	httpwire.Gauge(&b, "obarch_uptime_seconds", "Seconds since the daemon started.", time.Since(n.start).Seconds())
	httpwire.Gauge(&b, "obarch_slow_captures", "Slow-request captures currently retained.", float64(len(n.pool.SlowRequests())))
	httpwire.Header(&b, "obarch_image_info", "Serving image provenance: 1, labelled with path, load mode, and format version.", "gauge")
	fmt.Fprintf(&b, "obarch_image_info{path=%s,mode=%s,version=\"%d\"} 1\n",
		httpwire.Label(n.boot.ImagePath), httpwire.Label(n.boot.Mode), n.boot.FormatVersion)

	// Durability: the recovery rung the boot took, and the checkpointer's
	// freshness. -1 gauges are the "never"/"not this rung" sentinels.
	httpwire.Gauge(&b, "obarch_recovered_generation", "Checkpoint generation recovered at boot; -1 when boot took a lower rung.", float64(n.boot.RecoveredGeneration))
	httpwire.Gauge(&b, "obarch_recovery_ladder", "Recovery rungs rejected at boot before one held (corrupt checkpoints, unreadable image).", float64(n.boot.RecoveryLadder))
	ckpt := n.checkpointStats()
	httpwire.Counter(&b, "obarch_checkpoints_total", "Live checkpoints captured by the background checkpointer.", ckpt.Taken)
	httpwire.Counter(&b, "obarch_checkpoint_failures_total", "Checkpoint attempts that failed (snapshot refused or write error).", ckpt.Failures)
	httpwire.Gauge(&b, "obarch_checkpoint_age_seconds", "Seconds since the newest checkpoint; -1 when none exists.", ckpt.AgeS)
	httpwire.Gauge(&b, "obarch_checkpoint_generation", "Newest checkpoint generation; -1 when none exists.", float64(ckpt.Generation))
	httpwire.Flag(&b, "obarch_rotating", "1 while a live image rotation is mid-swap.", n.pool.Rotating())

	// Binary transport: connection and frame counters for the obwire
	// listener. Absent entirely when -binary-addr is off, so dashboards
	// can distinguish "disabled" from "idle". The decode/encode spans
	// share obarch_decode_seconds/obarch_encode_seconds with HTTP.
	if n.bin != nil {
		bst := n.bin.Stats()
		httpwire.Counter(&b, "obarch_binary_conns_total", "Binary-transport connections accepted.", bst.ConnsAccepted)
		httpwire.Gauge(&b, "obarch_binary_conns_active", "Binary-transport connections currently open.", float64(bst.ConnsActive))
		httpwire.Counter(&b, "obarch_binary_frames_in_total", "Binary-transport request frames decoded and dispatched.", bst.FramesIn)
		httpwire.Counter(&b, "obarch_binary_frames_out_total", "Binary-transport response frames written.", bst.FramesOut)
		httpwire.Counter(&b, "obarch_binary_frames_inline_total", "Binary-transport request frames the connection reader ran to completion itself.", bst.FramesInline)
		httpwire.Counter(&b, "obarch_binary_pings_total", "Binary-transport pings answered with a pong: a cluster router's health polls.", bst.Pings)
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

	httpwire.Histogram(&b, "obarch_service_latency_seconds", "Machine service time per request.", n.pool.LatencyHistogram())
	httpwire.Histogram(&b, "obarch_queue_wait_seconds", "Queue wait of queued requests (the inline fast lane never waits).", n.pool.QueueWaitHistogram())
	httpwire.Histogram(&b, "obarch_http_latency_seconds", "Whole HTTP handler: decode, queueing, service, encode.", n.httpLat.Snapshot())
	httpwire.Histogram(&b, "obarch_decode_seconds", "HTTP request read and parse span.", n.decLat.Snapshot())
	httpwire.Histogram(&b, "obarch_encode_seconds", "HTTP response encode and write span.", n.encLat.Snapshot())

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
func (n *Node) handleSlow(w http.ResponseWriter, _ *http.Request) {
	slow := n.pool.SlowRequests()
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
		"threshold_us": n.pool.SlowThreshold().Microseconds(),
		"captures":     entries,
	})
}
