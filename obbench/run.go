package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// workloadSpec is one traffic mix. Every workload stands up the same
// stack (nodeCount nodes of workers workers each, a router over them);
// they differ in path, payload, concurrency and offered rate.
type workloadSpec struct {
	name       string
	suite      bool    // the six suite programs; otherwise double sends
	routed     bool    // through cluster.Router.Send; otherwise one MuxClient to node 0
	workers    int     // per node
	callers    int     // closed-loop callers
	rate       float64 // open-loop offered sends/s, about a third of the closed-loop capacity
	keyedShare float64 // share of sends carrying a hot-key-skewed affinity key
	checkpoint bool    // live checkpoints and rotations during the measured phases
	ladderN    int     // sends per ladder rung
}

// workloads are the benchmark's traffic mixes; README.md gives each one's
// reason and what it should and should not move.
var workloads = []*workloadSpec{
	{
		name:    "suite-direct",
		suite:   true,
		workers: 1, callers: 2,
		rate:    80,
		ladderN: 240,
	},
	{
		name:    "tiny-routed",
		routed:  true,
		workers: 1, callers: 2,
		rate:       15000,
		keyedShare: 0.5,
		ladderN:    20000,
	},
	{
		name:       "bulk-ckpt",
		workers:    2,
		callers:    32,
		rate:       40000,
		checkpoint: true,
		ladderN:    20000,
	},
}

func workloadByName(name string) (*workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// setupGap spaces the set-ups of a run.
const setupGap = 100 * time.Millisecond

// runConfig is one run of one workload.
type runConfig struct {
	w       *workloadSpec
	seed    uint64
	measure time.Duration // the measured phases together
	trace   bool          // the traced run: per-layer metrics instead of end-to-end
	workdir string        // checkpoint generations and the span file
	out     io.Writer     // the human-readable report
	setups  int           // set-ups whose median is setup_s
	ladderN int           // sends per ladder rung
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics and prints each with its sample
// count as it lands.
type metricSet struct {
	out io.Writer
	m   map[string]metric
	err error
}

func (s *metricSet) add(name string, v float64, unit string, n int64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if s.err == nil {
			s.err = fmt.Errorf("metric %s is %v over %d samples", name, v, n)
		}
		return
	}
	s.m[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(s.out, "%-28s %16.4f %-6s n=%-9d %s\n", name, v, unit, n, note)
}

// report prints a measurement that is not gated: on a host whose speed
// swings as this benchmark's does, its run-to-run spread exceeds any
// bound a regression gate could hold it to.
func (s *metricSet) report(name string, v float64, unit string, n int64, note string) {
	fmt.Fprintf(s.out, "%-28s %16.4f %-6s n=%-9d not gated; %s\n", name, v, unit, n, note)
}

// runner carries one run's stack and tallies through its phases.
type runner struct {
	cfg    runConfig
	w      *workloadSpec
	st     *stack
	send   sender
	setups []setupTiming
	ckpt   *checkpointer
	epoch  time.Time
	all    tally // every checked send of the run
	ms     *metricSet
}

// run stands the stack up, drives the workload and returns the result
// line. With cfg.trace it reports the per-layer metrics, otherwise the
// end-to-end ones.
func run(cfg runConfig) (result, error) {
	w := cfg.w
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "ckpt-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	// Set up cfg.setups times, setupGap apart so the median spans the
	// host's swings in speed: the median is setup_s, the last stack
	// serves the run.
	setups := make([]setupTiming, 0, cfg.setups)
	var st *stack
	for i := range cfg.setups {
		if i > 0 {
			time.Sleep(setupGap)
		}
		s, err := buildStack(w.workers)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s.timing)
		if i < cfg.setups-1 {
			s.close()
		} else {
			st = s
		}
	}
	defer st.close()

	r := &runner{cfg: cfg, w: w, st: st, setups: setups, epoch: time.Now(),
		ms: &metricSet{out: cfg.out, m: make(map[string]metric)}}
	r.send = st.direct.Do
	if w.routed {
		r.send = st.router.Send
	}
	r.ckpt = newCheckpointer(st.nodes[0].pool, st.direct.Do, dir, r.epoch)

	warm := closedLoop(r.send, w, cfg.seed, laneWarm, min(time.Second, cfg.measure/10), nil)
	r.all.add(&warm.t)
	if cfg.trace {
		err = r.perLayer()
	} else {
		err = r.endToEnd()
	}
	if err == nil {
		err = r.ms.err
	}
	if err != nil {
		return result{}, err
	}
	a := &r.all
	fmt.Fprintf(cfg.out, "sends: attempted=%d correct=%d refused=%d transport_errors=%d window_full=%d wrong=%d\n",
		a.attempted, a.ok, a.refused, a.transport, a.windowFull, a.wrong)
	if a.wrong > 0 {
		fmt.Fprintf(cfg.out, "first wrong answer: %s\n", a.firstWrong)
	}
	return result{Correct: a.wrong == 0, Attempted: a.attempted, Failed: a.attempted - a.ok, Metrics: r.ms.m}, nil
}

// endToEnd is the untraced run: a closed-loop phase for throughput, then
// an open-loop phase for latency, over cfg.measure together.
func (r *runner) endToEnd() error {
	w, cfg, ms := r.w, r.cfg, r.ms
	if w.checkpoint {
		r.ckpt.start()
	}
	// Throughput, the gated metric, gets three quarters of the time: the
	// longer it runs, the more of the host's swings it averages over.
	closed := closedLoop(r.send, w, cfg.seed, laneClosed, cfg.measure*3/4, nil)
	open, openErr := openLoop(r.send, w, cfg.seed, cfg.measure-cfg.measure*3/4)
	if w.checkpoint {
		if err := r.ckpt.finish(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	if openErr != nil {
		return fmt.Errorf("open loop: %w", openErr)
	}
	var phases tally
	phases.add(&closed.t)
	phases.add(&open.t)
	r.all.add(&phases)

	n := int64(len(open.samples))
	p50, p99 := open.quantile(0.50), open.quantile(0.99)
	slices.Sort(open.late)
	late50, late99 := quantile(open.late, 0.50), quantile(open.late, 0.99)
	achieved := float64(n) / open.elapsed.Seconds()
	windows := open.windows
	// Drop the samples first, so the live heap is the stack's and not
	// the benchmark's own buffers.
	open = openResult{}
	heap := liveHeapMB()
	if err := r.finishCheckpoints(); err != nil {
		return err
	}

	ms.add("setup_s", median(r.setupField(func(s setupTiming) time.Duration { return s.total })).Seconds(), "s", int64(len(r.setups)),
		"cold boot to the first correct answer on both paths, median of set-ups")
	ms.add("throughput_sps", closed.rate(), "1/s", closed.t.ok,
		fmt.Sprintf("correct sends per CPU-second, closed loop, %d callers, fast quartile of %d windows", w.callers, len(closed.ok)))
	ms.report("busy_share", closed.busyShare(), "ratio", int64(len(closed.ok)), "process CPU time over wall time in the closed loop")
	ms.report("p50_us", us(p50), "us", n,
		fmt.Sprintf("open loop, Poisson %.0f/s offered to %d senders, timed from due, fast quartile of %d windows' p50", w.rate, openSenders, windows))
	ms.report("p99_us", us(p99), "us", n, fmt.Sprintf("same samples, fast quartile of %d windows' p99", windows))
	ms.add("sim_cycles_per_send", phases.simCycles(), "cycles", phases.ok, "mean over programs of each program's mean Response.Cycles")
	ms.add("heap_live_mb", heap, "MB", 1, "Go heap live after a forced GC at the end of the measured phases")
	ms.report("ckpt_ms", millis(lowQuartile(r.ckpt.log.total)), "ms", int64(len(r.ckpt.log.total)), r.ckptWhere())
	fmt.Fprintf(cfg.out, "open-loop validity (not gated): achieved %.0f/s of %.0f/s offered; pick-up lateness p50=%.1fus p99=%.1fus\n",
		achieved, w.rate, us(late50), us(late99))
	return nil
}

// finishCheckpoints gives every workload its checkpoint timings. A
// workload without live checkpoints takes captures back to back at its
// now idle node 0, every rotateEvery-th loaded back and rotated onto;
// either way at least one rotation is timed.
func (r *runner) finishCheckpoints() error {
	c := r.ckpt
	if !r.w.checkpoint {
		t0 := time.Now()
		for i := 1; i <= idleMinCycles || (i <= idleMaxCycles && time.Since(t0) < idleBudget); i++ {
			if err := c.cycle(i%rotateEvery == 0); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	if len(c.log.rotate) == 0 {
		if err := c.cycle(true); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	r.all.add(&c.t)
	return nil
}

func (r *runner) ckptWhere() string {
	if r.w.checkpoint {
		return "SnapshotLive start to fsync'd generation, live under traffic every 100ms, lower quartile"
	}
	return "SnapshotLive start to fsync'd generation, at the idle node after the measured phases, lower quartile"
}

func (r *runner) setupField(f func(setupTiming) time.Duration) []time.Duration {
	out := make([]time.Duration, len(r.setups))
	for i, s := range r.setups {
		out[i] = f(s)
	}
	return out
}

// counters snapshots the sinks the layers publish: pool histograms and
// metrics summed over the nodes, the obwire span sinks, and the Go
// runtime's allocation and CPU counters.
type counters struct {
	service, queue, dec, enc stats.Histogram
	gcs, rejected, shed      uint64
	gcPause                  time.Duration
	allocs                   uint64
	gcCPU, cpu               float64
}

func (r *runner) counters() counters {
	var c counters
	for _, n := range r.st.nodes {
		h := n.pool.LatencyHistogram()
		c.service.Merge(&h)
		h = n.pool.QueueWaitHistogram()
		c.queue.Merge(&h)
		h = n.dec.Snapshot()
		c.dec.Merge(&h)
		h = n.enc.Snapshot()
		c.enc.Merge(&h)
		m := n.pool.Metrics()
		c.gcs += m.GCs
		c.gcPause += m.GCPause
		c.rejected += m.Rejected
		c.shed += m.SheddedExpired
	}
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	c.allocs, c.gcCPU, c.cpu = s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()
	return c
}

// spanKeep bounds the spans the span file keeps.
const spanKeep = 20000

// perLayer is the traced run: an untraced closed-loop phase, the same
// stream again with every send traced, then the layer ladder. Tracing
// overhead is the throughput the traced phase lost against the untraced
// one.
func (r *runner) perLayer() error {
	w, cfg, ms := r.w, r.cfg, r.ms
	routerStart := r.st.router.Stats()
	if w.checkpoint {
		r.ckpt.start()
	}
	plain := closedLoop(r.send, w, cfg.seed, laneClosed, cfg.measure/4, nil)
	before := r.counters()
	spans := newSpanLog(w.callers, spanKeep, r.epoch)
	tracedRun := closedLoop(r.send, w, cfg.seed, laneClosed, cfg.measure/4, spans)
	traced := tracedRun.t
	after := r.counters()
	if w.checkpoint {
		if err := r.ckpt.finish(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	r.all.add(&plain.t)
	r.all.add(&traced)
	l := runLadder(r.st, ladderSends(w, cfg.seed, cfg.ladderN), &r.all)
	if err := r.finishCheckpoints(); err != nil {
		return err
	}
	routerEnd := r.st.router.Stats()

	n, nl := float64(l.n), int64(l.n)
	c := l.core
	coreUS, poolUS := l.perSend(l.rungs[0].total), l.perSend(l.rungs[1].total)
	rttUS, clusterUS := l.perSend(l.rungs[2].total), l.perSend(l.rungs[3].total)
	ms.add("core.send_us", coreUS, "us", nl, "ladder core rung: Machine.Send")
	ms.add("core.ns_per_instr", float64(c.total)/float64(c.model.Instructions), "ns", int64(c.model.Instructions), "core rung time over its modelled instructions")
	ms.add("core.instr_per_send", float64(c.model.Instructions)/n, "count", nl, "modelled, core rung")
	ms.add("core.cycles_per_send", float64(c.model.Cycles)/n, "cycles", nl, "modelled, core rung")
	ms.add("itlb.hit_ratio", float64(c.itlbHits)/float64(c.itlbLookups), "ratio", int64(c.itlbLookups), "modelled, core rung")
	ms.add("itlb.lookup_cycles_per_send", float64(c.model.LookupCycles)/n, "cycles", nl, "modelled, core rung")
	ms.add("context.ctx_allocs_per_send", float64(c.model.CtxAllocs)/n, "count", nl, "modelled, core rung")
	ms.add("memory.obj_allocs_per_send", float64(c.model.ObjAllocs)/n, "count", nl, "modelled, core rung")

	ok := traced.ok
	ms.add("gc.pause_ms_per_ksend", millis(after.gcPause-before.gcPause)/(float64(ok)/1000), "ms", ok, "pool GC work, all nodes, traced phase")
	ms.add("gc.cycles", float64(after.gcs-before.gcs), "count", ok, "pool collection cycles completed, traced phase")

	svc, queue := histSince(after.service, before.service), histSince(after.queue, before.queue)
	ms.add("serve.pool_us", poolUS, "us", nl, "ladder serve rung: Pool.Do")
	ms.add("serve.do_us", poolUS-coreUS, "us", nl, "pool rung minus core rung")
	ms.add("serve.service_us_p50", histQuantileUS(svc, 0.50), "us", int64(svc.Count()), "Pool.LatencyHistogram, traced phase")
	ms.add("serve.service_us_p99", histQuantileUS(svc, 0.99), "us", int64(svc.Count()), "Pool.LatencyHistogram, traced phase")
	ms.add("serve.queue_us_p50", histQuantileUS(queue, 0.50), "us", int64(queue.Count()), "Pool.QueueWaitHistogram, traced phase")
	ms.add("serve.queue_us_p99", histQuantileUS(queue, 0.99), "us", int64(queue.Count()), "Pool.QueueWaitHistogram, traced phase")
	ms.add("serve.rejected", float64(after.rejected-before.rejected), "count", traced.attempted, "traced phase")
	ms.add("serve.shed", float64(after.shed-before.shed), "count", traced.attempted, "traced phase")

	ns := int64(len(r.setups))
	ms.add("smalltalk.compile_ms", millis(median(r.setupField(func(s setupTiming) time.Duration { return s.compile }))), "ms", ns, "compile and load, median of set-ups")
	ms.add("serve.stamp_ms", millis(median(r.setupField(func(s setupTiming) time.Duration { return s.stamp }))), "ms", ns, "serve.NewPool over all nodes, median of set-ups")
	ms.add("cluster.ready_ms", millis(median(r.setupField(func(s setupTiming) time.Duration { return s.ready }))), "ms", ns, "cluster.New to the first correct routed answer, median of set-ups")

	ck := r.ckpt.log
	where := r.ckptWhere()
	ms.add("serve.snapshot_live_ms", millis(median(ck.snapshot)), "ms", int64(len(ck.snapshot)), where)
	ms.add("image.write_ms", millis(median(ck.write)), "ms", int64(len(ck.write)), "image.WriteCheckpoint")
	ms.add("image.load_ms", millis(median(ck.load)), "ms", int64(len(ck.load)), "image.LoadCheckpoint")
	ms.add("serve.rotate_ms", millis(median(ck.rotate)), "ms", int64(len(ck.rotate)), "Pool.Rotate")
	ms.add("image.bytes", float64(ck.bytes), "bytes", int64(len(ck.write)), "checkpoint image size")

	dec, enc := histSince(after.dec, before.dec), histSince(after.enc, before.enc)
	ms.add("obwire.rtt_us", rttUS, "us", nl, "ladder obwire rung: MuxClient.Do")
	ms.add("obwire.overhead_us", l.perSend(l.rungs[2].total-l.rungs[2].service), "us", nl, "obwire rung minus the node's reported service time")
	ms.add("obwire.decode_us_p50", histQuantileUS(dec, 0.50), "us", int64(dec.Count()), "Options.DecodeLat, traced phase")
	ms.add("obwire.encode_us_p50", histQuantileUS(enc, 0.50), "us", int64(enc.Count()), "Options.EncodeLat, traced phase")
	ms.add("obwire.window_full", float64(r.all.windowFull), "count", r.all.attempted, "ErrWindowFull refusals, whole run")

	sends := int64(routerEnd.Sends - routerStart.Sends)
	failovers := routerEnd.FailoversRefusal + routerEnd.FailoversTransport - routerStart.FailoversRefusal - routerStart.FailoversTransport
	ms.add("cluster.send_us", clusterUS, "us", nl, "ladder cluster rung: Router.Send")
	ms.add("cluster.hop_us", clusterUS-rttUS, "us", nl, "routed minus direct on the same stream")
	ms.add("cluster.failovers", float64(failovers), "count", sends, "Router.Stats, traced run")
	ms.add("cluster.exhausted", float64(routerEnd.Exhausted-routerStart.Exhausted), "count", sends, "Router.Stats, traced run")
	ms.add("cluster.imbalance", imbalance(routerStart, routerEnd), "ratio", sends, "max over mean forwards per node, traced run")

	ms.add("go.allocs_per_send", float64(after.allocs-before.allocs)/float64(traced.attempted), "count", traced.attempted, "whole process, traced phase")
	gcFrac := 0.0
	if cpu := after.cpu - before.cpu; cpu > 0 {
		gcFrac = (after.gcCPU - before.gcCPU) / cpu
	}
	ms.add("go.gc_cpu_fraction", gcFrac, "ratio", traced.attempted, "runtime/metrics GC CPU over available CPU, traced phase")

	nSpans, root, service := spans.totals()
	rootUS, serviceUS := us(root)/float64(nSpans), us(service)/float64(nSpans)
	queueUS, decUS, encUS := histMeanUS(queue), histMeanUS(dec), histMeanUS(enc)
	ms.add("trace.unattributed_us", rootUS-serviceUS-queueUS-decUS-encUS, "us", nSpans, "root span minus service, queue wait, decode and encode")
	ms.add("go.busy_share", plain.busyShare(), "ratio", int64(len(plain.ok)), "process CPU time over wall time, untraced closed loop")
	plainTput, tracedTput := plain.rate(), tracedRun.rate()
	ms.add("trace.overhead_pct", (plainTput-tracedTput)/plainTput*100, "%", ok,
		fmt.Sprintf("untraced %.0f/s against traced %.0f/s", plainTput, tracedTput))

	out := cfg.out
	fmt.Fprintf(out, "traced send, mean us: root=%.2f service=%.2f queue=%.2f decode=%.2f encode=%.2f unattributed=%.2f\n",
		rootUS, serviceUS, queueUS, decUS, encUS, rootUS-serviceUS-queueUS-decUS-encUS)
	l.print(out)
	fmt.Fprintf(out, "stress: obwire.overhead_us is %.2f%% of serve.service_us_p50 (suite-direct expects <5%%)\n",
		100*r.ms.m["obwire.overhead_us"].Value/r.ms.m["serve.service_us_p50"].Value)
	fmt.Fprintf(out, "stress: core.send_us is %.2f%% of cluster.send_us (tiny-routed expects <5%%)\n", 100*coreUS/clusterUS)
	path := filepath.Join(cfg.workdir, "spans-"+w.name+".jsonl")
	if err := writeSpans(path, spans, ck.events); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	fmt.Fprintf(out, "spans: %s\n", path)
	return nil
}

// imbalance is max over mean forwards per node between two router
// snapshots of one membership.
func imbalance(a, b cluster.Stats) float64 {
	var sum, most uint64
	for i := range b.Nodes {
		d := b.Nodes[i].Forwards - a.Nodes[i].Forwards
		sum += d
		most = max(most, d)
	}
	return float64(most) / (float64(sum) / float64(len(b.Nodes)))
}

// writeSpans writes the kept spans as JSON lines: each traced client send
// a root span with the node's service time as its child, then the
// checkpointer's timed calls.
func writeSpans(path string, l *spanLog, events []event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for c := range l.shards {
		for i, s := range l.shards[c].kept {
			id := fmt.Sprintf("c%d.%d", c, i)
			fmt.Fprintf(bw, "{\"span\":%q,\"name\":\"client.send\",\"start_ns\":%d,\"dur_ns\":%d}\n", id, s.start, s.root)
			fmt.Fprintf(bw, "{\"span\":%q,\"name\":\"node.service\",\"parent\":%q,\"dur_ns\":%d}\n", id+".s", id, s.service)
		}
	}
	for i, e := range events {
		fmt.Fprintf(bw, "{\"span\":\"k%d\",\"name\":%q,\"start_ns\":%d,\"dur_ns\":%d}\n", i, e.name, e.start, e.dur)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// liveHeapMB forces a collection and reads the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

func histSince(a, b stats.Histogram) stats.Histogram {
	for i := range a.Counts {
		a.Counts[i] -= b.Counts[i]
	}
	return a
}

func histQuantileUS(h stats.Histogram, q float64) float64 { return us(h.Quantile(q)) }

// histMeanUS is a histogram's mean, pricing each sample at its bucket's
// upper edge as Quantile does.
func histMeanUS(h stats.Histogram) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.ApproxSumNS() / float64(n) / 1e3
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(int(math.Ceil(q*float64(len(sorted))))-1, 0)]
}

// lowQuartile is the fast quartile of a set of timings.
func lowQuartile(d []time.Duration) time.Duration {
	vals := make([]float64, len(d))
	for i, v := range d {
		vals[i] = float64(v)
	}
	return time.Duration(fastQuartile(vals, false))
}

func median(d []time.Duration) time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if m := len(s) / 2; len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[len(s)/2]
}

func us(d time.Duration) float64     { return float64(d) / 1e3 }
func millis(d time.Duration) float64 { return float64(d) / 1e6 }
