// Prometheus text exposition for the router: the obarch_cluster_*
// family, rendered by the same internal/httpwire writers as obarchd's
// /metrics — counters and gauges from atomic sources, histograms on the
// shared two-per-decade bucket ladder — so one dashboard speaks both
// tiers.
package main

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/cluster"
	"repro/internal/httpwire"
)

// nodeCounter renders one per-node counter family, labelled by the
// node's obwire address.
func nodeCounter(b *strings.Builder, name, help string, rows []cluster.NodeStats, get func(cluster.NodeStats) uint64) {
	httpwire.Header(b, name, help, "counter")
	for _, r := range rows {
		fmt.Fprintf(b, "%s{node=%s} %d\n", name, httpwire.Label(r.BinAddr), get(r))
	}
}

// handleMetrics is GET /metrics: the cluster-level routing counters,
// per-node health and failover families, and the routed-send latency
// histogram.
func (s *routerServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.r.Stats()
	var b strings.Builder

	httpwire.Counter(&b, "obarch_cluster_sends_total", "Sends routed by the front tier.", st.Sends)
	httpwire.Counter(&b, "obarch_cluster_failovers_refusal_total", "Sends failed over after an in-band refusal (overload or shed).", st.FailoversRefusal)
	httpwire.Counter(&b, "obarch_cluster_failovers_transport_total", "Sends failed over after a transport error.", st.FailoversTransport)
	httpwire.Counter(&b, "obarch_cluster_exhausted_total", "Sends whose failover budget ran out; the last refusal went to the client.", st.Exhausted)
	httpwire.Counter(&b, "obarch_cluster_no_backend_total", "Sends refused because no routable backend existed.", st.NoBackend)

	httpwire.Gauge(&b, "obarch_cluster_nodes", "Nodes in the membership.", float64(len(st.Nodes)))
	httpwire.Gauge(&b, "obarch_cluster_routable", "Nodes currently routable (healthy or suspect, not draining).", float64(st.Routable))
	httpwire.Flag(&b, "obarch_cluster_quorum", "1 while a majority of backends is routable.", st.Quorum)
	httpwire.Flag(&b, "obarch_cluster_ready", "1 while /readyz answers 200.", st.Quorum && !s.draining.Load())

	// Per-node health: the state as a labelled enum gauge (one series
	// per node per state, the active one 1), plus depth and counters.
	httpwire.Header(&b, "obarch_cluster_node_state", "Node health state (1 on the active series).", "gauge")
	for _, r := range st.Nodes {
		for _, state := range []string{"healthy", "suspect", "down", "probing"} {
			v := 0
			if r.State == state {
				v = 1
			}
			fmt.Fprintf(&b, "obarch_cluster_node_state{node=%s,state=%s} %d\n", httpwire.Label(r.BinAddr), httpwire.Label(state), v)
		}
	}
	httpwire.Header(&b, "obarch_cluster_node_queue_depth", "Last polled backlog per node (queued + in flight).", "gauge")
	for _, r := range st.Nodes {
		fmt.Fprintf(&b, "obarch_cluster_node_queue_depth{node=%s} %d\n", httpwire.Label(r.BinAddr), r.QueueDepth)
	}
	httpwire.Header(&b, "obarch_cluster_node_outstanding", "Router-side in-flight sends per node.", "gauge")
	for _, r := range st.Nodes {
		fmt.Fprintf(&b, "obarch_cluster_node_outstanding{node=%s} %d\n", httpwire.Label(r.BinAddr), r.Outstanding)
	}
	nodeCounter(&b, "obarch_cluster_node_forwards_total", "Send attempts dispatched to the node.", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.Forwards })
	nodeCounter(&b, "obarch_cluster_node_completed_total", "Sends the node executed (success or machine error).", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.Completed })
	nodeCounter(&b, "obarch_cluster_node_rejected_total", "Sends the node refused at admission.", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.Rejected })
	nodeCounter(&b, "obarch_cluster_node_shed_total", "Sends the node shed after queue expiry.", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.Shed })
	nodeCounter(&b, "obarch_cluster_node_transport_errors_total", "Send attempts lost to connection errors.", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.TransportErrs })
	nodeCounter(&b, "obarch_cluster_node_breaker_opens_total", "Circuit-breaker openings.", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.BreakerOpens })
	nodeCounter(&b, "obarch_cluster_node_probes_total", "Half-open probes attempted.", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.Probes })
	nodeCounter(&b, "obarch_cluster_node_recoveries_total", "Breaker closings via a successful probe.", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.Recoveries })
	nodeCounter(&b, "obarch_cluster_node_poll_failures_total", "Health polls that failed or were refused.", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.PollFails })

	httpwire.Histogram(&b, "obarch_cluster_send_seconds", "Whole routed send: candidate selection, obwire round trips, failovers.", s.sendLat.Snapshot())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}
