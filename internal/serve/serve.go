// Package serve executes message sends concurrently against a sharded
// pool of Caltech Object Machines. The COM of the paper is a single
// processor; serving heavy traffic means many of them. A Pool stamps N
// independent machines out of one core.Snapshot — compile and load once,
// stamp cheaply, warm ITLB included — each fronted by its own work queue
// and worker goroutine. The machine, not the goroutine, is the unit of
// sharding: a per-shard mutex serialises execution, normally held by the
// worker, but a caller hitting an idle shard drives the machine inline on
// its own goroutine (the inline lane behind Do and TryDo), skipping the
// queue's two scheduler round-trips entirely. With two or more Ps, TryDo
// never takes on work that an idle worker could run beside its caller;
// with one P no worker runs beside anything, so TryDo runs on any idle
// shard.
//
// The request lifecycle is zero-allocation and lock-light end to end:
//
//   - Results travel in pooled Futures — a reusable result cell with a
//     reusable done-signal channel, recycled through a sync.Pool when the
//     caller collects the result — instead of a fresh chan Result per
//     call.
//   - The submission path is guarded by an atomic closed flag plus a
//     per-shard in-flight counter instead of a pool-wide RWMutex; Close
//     flips the flag and waits the counters out, so a submission that saw
//     the pool open always lands on a live queue.
//   - Metrics are per-shard, cache-line padded, written only by the
//     shard's driver, and published through a per-shard seqlock: Metrics
//     and ShardMetrics merge consistent snapshots on read, with no mutex
//     anywhere on the serving path. Service latency additionally lands in
//     a per-shard fixed-bucket histogram (LatencyHistogram) for
//     percentile reporting.
//
// Requests are routed to shards by an explicit affinity key when one is
// given (same key → same machine, keeping that key's (selector, class)
// working set hot in one ITLB). Keyless requests join the shortest queue
// by power-of-two-choices over the shards' depth counters — two random
// shards are probed and the shallower wins, so a slow or pinned-hot shard
// stops attracting blind traffic. Routing is host-level placement only:
// the modelled machines see the same work wherever it lands.
//
// Under load, each worker drains up to 16 queued requests per wakeup,
// amortising the channel receive and scheduler round-trip across queued
// work. A caller with many requests pipelines them through Go and waits
// each Future in turn. Each request carries an optional step budget and
// wall-clock timeout, which the pool arms on the machine for that one
// send (core.Machine.Arm). A send that traps, times out or exhausts its
// budget leaves the machine idle, as every send does, so the next
// request runs on it at once; a periodic per-shard garbage collection
// reclaims the context chain the trap abandoned.
//
// The pool degrades instead of collapsing when pushed past capacity,
// and heals itself when a worker is lost:
//
//   - Admission control: enqueue is bounded — a full shard queue refuses
//     the request with ErrOverloaded instead of blocking the submitter,
//     and Config.MaxInFlight adds a pool-wide ceiling on admitted-but-
//     unfinished requests. The refusal path allocates nothing: an
//     overloaded server must not buy heap pressure with its "no".
//   - Deadline-aware shedding: a queued request whose wall-clock budget
//     expired while it waited is shed at dispatch with ErrExpired —
//     counted separately from execution timeouts — without the machine
//     ever running it.
//   - Panic isolation: recover barriers around machine execution and the
//     shard driver convert a worker panic into a failed Result
//     (ErrPanic) instead of a dead process. The possibly-corrupt machine
//     is quarantined and a fresh worker is re-stamped from the pool
//     snapshot — the same import that built the pool (~100µs), now
//     serving as the recovery mechanism.
//   - Deterministic chaos: Config.Faults arms a seeded fault plan that
//     injects panics, execution stalls, and dispatch clogs at
//     reproducible points, so the recovery paths are exercised by tests
//     rather than trusted. A nil plan (the default) is bit-identical to
//     a pool without the harness.
//
// Every request also leaves a trace: an always-on flight recorder (see
// package flight) logs each lifecycle transition — enqueue, dispatch,
// execute start/end, abort, shed, reject, panic, restamp, GC slices —
// into a per-shard lock-free ring,
// at zero allocations and a handful of atomic stores per event.
// Submitters stamp the enqueue; everything else is written by whoever
// holds the shard's execMu, reusing clock readings the serving path
// already takes. There is one clock, core.Monotonic, read once per stage
// boundary: GoAt and TryDo take the submitter's own reading as the
// enqueue or exec-start stamp, the deadline is armed from the exec-start
// reading, and TryDo hands back the reading its request finished at.
// On top of the recorder ride the per-request stage spans
// (queue wait via QueueWaitHistogram, service via LatencyHistogram) and
// the slow-request capture: any request over Config.SlowThreshold is
// snapshotted — its event chain, spans, and the exact core.Stats delta it
// cost the machine — into a bounded ring readable with SlowRequests.
//
// Delivery contract. A request accepted by Do, Go or TryDo runs
// on a machine at most once: the pool never retries, and every accepted
// request lands in exactly one of Metrics.Requests, Rejected or
// SheddedExpired (TestChaosSoak checks that conservation under seeded
// faults). A request refused at admission (ErrOverloaded, ErrClosed) or
// shed at dispatch (ErrExpired) never touches a machine
// (TestPoolOverloadRejects, TestPoolShedsExpiredAtDispatch). A panic
// during execution comes back as a failed Result wrapping ErrPanic, and
// the pool keeps serving (TestPoolPanicRecovery). None of this machinery
// shows in the modelled accounting: TestAccountingGolden pins core.Stats
// and every answer of a fixed request sequence against a checked-in
// fixture.
package serve

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/gc"
	"repro/internal/stats"
	"repro/internal/word"
)

// Request is one message send to be executed by the pool.
type Request struct {
	Receiver word.Word
	Selector string
	Args     []word.Word

	// Key, when nonzero, routes the request: equal keys always reach the
	// same shard (machine affinity). Zero keys join the shorter of two
	// probed shard queues.
	Key uint64
	// MaxSteps bounds the send's interpreted steps; 0 uses the pool default.
	MaxSteps uint64
	// Timeout bounds the send's wall-clock time; 0 uses the pool default.
	Timeout time.Duration
}

// Result is the outcome of one request.
type Result struct {
	Value word.Word
	Err   error

	Worker  int           // shard that executed the request
	Steps   uint64        // interpreted instructions spent
	Cycles  uint64        // simulated machine cycles spent
	Latency time.Duration // wall-clock service time, queueing excluded
}

// Int returns the result as an integer, folding machine errors and
// non-integer answers into the error.
func (r Result) Int() (int32, error) {
	if r.Err != nil {
		return 0, r.Err
	}
	v, ok := r.Value.IntOK()
	if !ok {
		return 0, fmt.Errorf("serve: non-integer answer %v", r.Value)
	}
	return v, nil
}

// Config sizes a pool.
type Config struct {
	// Workers is the number of shards (machines). Default 1.
	Workers int
	// QueueDepth is each shard's queue capacity. Default 64.
	QueueDepth int
	// MaxSteps is the default per-request step budget. 0 keeps the
	// machine's own limit.
	MaxSteps uint64
	// Timeout is the default per-request wall-clock bound. 0 means none.
	Timeout time.Duration
	// GCEvery starts a garbage collection cycle on a shard's machine
	// after that many requests; while it sweeps, each request is followed
	// by a slice of gc.DefaultSweepChunk segments plus those the request
	// allocated. 0 uses the default of 512; negative disables collection.
	GCEvery int
	// FlightRingSize is each shard's event-ring slot count, rounded up
	// to a power of two. 0 uses flight.DefaultRingSize.
	FlightRingSize int
	// SlowThreshold arms the slow-request capture: any request whose
	// service time reaches it is snapshotted (event chain, spans, and
	// per-request core.Stats delta) into a ring of the newest slowKeep
	// captures. 0 disables the capture.
	SlowThreshold time.Duration
	// MaxInFlight caps admitted-but-unfinished requests across the whole
	// pool; admission past the cap refuses with ErrOverloaded. 0 means
	// unlimited (the ceiling counter is not even maintained). Negative
	// closes admission entirely — every request is refused — which is the
	// drain/maintenance mode and the deterministic fixture for the
	// shed-path benchmarks.
	MaxInFlight int
	// Faults, when non-nil, arms the deterministic chaos harness: seeded
	// panics, execution stalls, and dispatch clogs injected at
	// reproducible points (see Faults). nil — the default — injects
	// nothing and models identically to a pool without the harness.
	Faults *Faults
}

const (
	defaultGCEvery = 512

	// slowKeep bounds how many slow captures are retained (newest win).
	slowKeep = 32

	// drainBatch bounds how many queued requests one worker serves per
	// wakeup.
	drainBatch = 16
)

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("serve: pool is closed")

// ErrOverloaded is returned for requests refused at admission: the
// destination shard's queue was full, or the pool's in-flight ceiling
// (Config.MaxInFlight) was reached. The request was never queued and no
// machine saw it; the caller should back off and retry.
var ErrOverloaded = errors.New("serve: pool overloaded")

// ErrExpired is returned for requests shed at dispatch: the wall-clock
// timeout expired while the request sat in its shard's queue, so
// executing it could only waste a worker on an answer nobody is waiting
// for. The machine was never touched.
var ErrExpired = errors.New("serve: deadline expired before dispatch")

// ErrPanic wraps a worker panic caught by the shard's recovery barrier.
// The request's machine was quarantined and replaced from the pool
// snapshot; the pool keeps serving.
var ErrPanic = errors.New("serve: worker panicked")

// Metrics aggregates what the pool has done. Latency totals count service
// time only; queueing delay is visible to callers as Do latency instead.
//
// Accounting conserves: every submitted request lands in exactly one of
// Requests (it executed, successfully or not), Rejected (refused at
// admission, never queued), or SheddedExpired (queued but shed at
// dispatch) — plus the ErrClosed refusals of a closing pool, which are
// not counted here.
type Metrics struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`   // requests answered with any error
	Timeouts uint64 `json:"timeouts"` // ...of which deadline or interrupt traps

	// Rejected counts requests refused at admission — full shard queue or
	// the pool's in-flight ceiling. SheddedExpired counts queued requests
	// shed at dispatch because their deadline expired while they waited;
	// neither ever touched a machine.
	Rejected       uint64 `json:"rejected"`
	SheddedExpired uint64 `json:"shedded_expired"`

	// Panics counts worker panics converted into failed results by the
	// recovery barriers (these also count in Requests and Errors);
	// Restamps counts the quarantined machines replaced from the pool
	// snapshot — one per panic.
	Panics   uint64 `json:"panics"`
	Restamps uint64 `json:"restamps"`

	// Rotations counts completed live image rotations — every shard
	// stamped onto a new serving snapshot with zero dropped requests. A
	// pool-level counter; per-shard metrics report it as zero.
	Rotations uint64 `json:"rotations"`

	TotalLatency time.Duration `json:"total_latency_ns"`
	MaxLatency   time.Duration `json:"max_latency_ns"`

	Instructions uint64 `json:"instructions"` // interpreted instructions across all shards
	Cycles       uint64 `json:"cycles"`       // simulated cycles across all shards

	ITLB stats.Ratio `json:"itlb"` // aggregated ITLB hits across all shards
	GCs  uint64      `json:"gcs"`  // per-shard collection cycles completed

	// GCPause totals the wall-clock time workers spent doing collection
	// work (mark phases and incremental sweep steps) — time a shard was
	// not serving. The incremental sweep's whole point is to keep each
	// individual contribution small.
	GCPause time.Duration `json:"gc_pause_ns"`
}

// MeanLatency returns the average service time per request.
func (m Metrics) MeanLatency() time.Duration {
	if m.Requests == 0 {
		return 0
	}
	return m.TotalLatency / time.Duration(m.Requests)
}

// merge folds another shard's metrics in.
func (m *Metrics) merge(o Metrics) {
	m.Requests += o.Requests
	m.Errors += o.Errors
	m.Timeouts += o.Timeouts
	m.Rejected += o.Rejected
	m.SheddedExpired += o.SheddedExpired
	m.Panics += o.Panics
	m.Restamps += o.Restamps
	m.TotalLatency += o.TotalLatency
	if o.MaxLatency > m.MaxLatency {
		m.MaxLatency = o.MaxLatency
	}
	m.Instructions += o.Instructions
	m.Cycles += o.Cycles
	m.ITLB.Hits += o.ITLB.Hits
	m.ITLB.Total += o.ITLB.Total
	m.GCs += o.GCs
	m.GCPause += o.GCPause
}

// Report renders the metrics as a table, in the house style of the
// experiment reports.
func (m Metrics) Report() *stats.Table {
	t := stats.NewTable("serving pool", "metric", "value")
	t.AddRow("requests", fmt.Sprintf("%d", m.Requests))
	t.AddRow("errors", fmt.Sprintf("%d", m.Errors))
	t.AddRow("timeouts", fmt.Sprintf("%d", m.Timeouts))
	t.AddRow("rejected", fmt.Sprintf("%d", m.Rejected))
	t.AddRow("shed expired", fmt.Sprintf("%d", m.SheddedExpired))
	t.AddRow("panics", fmt.Sprintf("%d", m.Panics))
	t.AddRow("restamps", fmt.Sprintf("%d", m.Restamps))
	t.AddRow("rotations", fmt.Sprintf("%d", m.Rotations))
	t.AddRow("mean latency", m.MeanLatency().String())
	t.AddRow("max latency", m.MaxLatency.String())
	t.AddRow("instructions", fmt.Sprintf("%d", m.Instructions))
	t.AddRow("simulated cycles", fmt.Sprintf("%d", m.Cycles))
	t.AddRow("ITLB hit ratio", m.ITLB.String())
	t.AddRow("collections", fmt.Sprintf("%d", m.GCs))
	t.AddRow("GC pause total", m.GCPause.String())
	return t
}

// Future is the handle for a request submitted with Go: a pooled result
// cell with a reusable done-signal. Wait must be called exactly once; it
// returns the cell to the pool, after which the Future must not be
// touched again.
type Future struct {
	res  Result
	done chan struct{}
}

// Wait blocks for the request's result and recycles the cell.
func (f *Future) Wait() Result {
	<-f.done
	res := f.res
	f.res = Result{}
	futurePool.Put(f)
	return res
}

// futurePool recycles result cells across all pools. A cell's done
// channel is created once and reused forever: the worker sends exactly
// one token per request, Wait consumes it, and the channel is empty again
// when the cell re-enters the pool.
var futurePool = sync.Pool{
	New: func() any { return &Future{done: make(chan struct{}, 1)} },
}

// newFuture hands out a result cell from the pool.
func newFuture() *Future { return futurePool.Get().(*Future) }

// complete delivers a result into a future. The buffered send never
// blocks: each future receives exactly one completion.
func (f *Future) complete(res Result) {
	f.res = res
	f.done <- struct{}{}
}

// job is one unit of queued work: a request with its result cell. id and
// enq carry the flight-recorder identity: the request id and the enqueue
// timestamp in recorder nanoseconds (flight.Ring.TS).
type job struct {
	req Request
	fut *Future

	id  uint64
	enq int64
}

// metricsPad keeps one shard's writer-hot counters off the cache lines of
// its neighbours' counters (and of the shard's own queue bookkeeping).
type metricsPad [64]byte

// shardMetrics is the per-shard accounting: plain atomic counters written
// only by whoever holds the shard's execMu, published to concurrent
// readers through a seqlock. The writer brackets every update between two
// seq increments (odd while mid-update); a reader retries until it sees
// the same even seq before and after its loads, so a snapshot can never
// mix counters from two different requests — the torn-read window the old
// per-shard mutex left between Metrics and ShardMetrics is gone without
// reintroducing a lock on the serving path.
type shardMetrics struct {
	_            metricsPad
	seq          atomic.Uint64
	requests     atomic.Uint64
	errors       atomic.Uint64
	timeouts     atomic.Uint64
	totalLatency atomic.Int64
	maxLatency   atomic.Int64
	instructions atomic.Uint64
	cycles       atomic.Uint64
	itlbHits     atomic.Uint64
	itlbTotal    atomic.Uint64
	gcs          atomic.Uint64
	gcPause      atomic.Int64

	// Overload and recovery counters sit outside the seqlock discipline:
	// each is an independent monotonic count, never read as part of a
	// multi-counter invariant, and rejected is bumped by submitters — who
	// must not touch the seqlock, whose writer is whoever holds execMu.
	rejected    atomic.Uint64
	shedExpired atomic.Uint64
	panics      atomic.Uint64
	restamps    atomic.Uint64
	_           metricsPad
}

// begin opens a writer critical section (seq goes odd).
func (mm *shardMetrics) begin() { mm.seq.Add(1) }

// end closes it (seq returns even).
func (mm *shardMetrics) end() { mm.seq.Add(1) }

// snapshot returns a consistent copy of the counters.
func (mm *shardMetrics) snapshot() Metrics {
	for {
		s1 := mm.seq.Load()
		if s1&1 != 0 {
			runtime.Gosched()
			continue
		}
		m := Metrics{
			Requests:     mm.requests.Load(),
			Errors:       mm.errors.Load(),
			Timeouts:     mm.timeouts.Load(),
			TotalLatency: time.Duration(mm.totalLatency.Load()),
			MaxLatency:   time.Duration(mm.maxLatency.Load()),
			Instructions: mm.instructions.Load(),
			Cycles:       mm.cycles.Load(),
			ITLB:         stats.Ratio{Hits: mm.itlbHits.Load(), Total: mm.itlbTotal.Load()},
			GCs:          mm.gcs.Load(),
			GCPause:      time.Duration(mm.gcPause.Load()),
		}
		if mm.seq.Load() == s1 {
			m.Rejected = mm.rejected.Load()
			m.SheddedExpired = mm.shedExpired.Load()
			m.Panics = mm.panics.Load()
			m.Restamps = mm.restamps.Load()
			return m
		}
	}
}

// shard is one worker: a private machine behind a private queue. Machine
// execution is serialised by execMu — normally held by the shard's worker
// goroutine, but an idle shard's machine may be driven directly by a
// caller (see Pool.inline). pending counts queued-but-
// unfinished jobs plus any inline execution — the JSQ depth signal.
// inflight counts submitters inside the enqueue window (and inline
// drivers for their whole execution), so Close can wait them out after
// flipping the closed flag.
type shard struct {
	id       int
	m        *core.Machine
	queue    chan job
	execMu   sync.Mutex
	pending  atomic.Int64
	inflight atomic.Int64

	// col is the shard's incremental collector. It is only touched by
	// whoever holds execMu (the worker, or an inline-lane caller), like
	// the machine it collects.
	col gc.Collector

	met shardMetrics
	lat stats.ConcurrentHistogram

	// fr is the shard's flight-recorder ring; reqSeq allocates request
	// ids and qlat accumulates queue-wait spans, both per-shard so
	// submitters never share a cache line across shards.
	fr     *flight.Ring
	reqSeq atomic.Uint64
	qlat   stats.ConcurrentHistogram

	// sinceGC is the driver-private GC cadence, only touched under
	// execMu.
	sinceGC int

	// Recovery state. src is the shard's stamping source: the snapshot a
	// panic re-stamp stamps a fresh machine from. It starts as the pool's
	// boot snapshot and is advanced by live rotation — per shard, so
	// while a rotation is part-way through, a shard re-stamps from the
	// image its own machine came from. Only touched under execMu.
	// retired accumulates the machine-level stats of quarantined (and
	// rotated-out) machines so MachineStats conserves across re-stamps
	// (under execMu). unhealthy is set when the shard's last execution
	// panicked and cleared by its next success — the readiness signal.
	// chaos is the shard's arm of the fault plan (nil when unarmed).
	src       *core.Snapshot
	retired   core.Stats
	unhealthy atomic.Bool
	chaos     *chaosState
}

// Pool is a sharded serving pool over machines stamped from one snapshot.
type Pool struct {
	cfg    Config
	shards []*shard

	// Rotation machinery: rotMu serialises rotations (and keeps two
	// operators from interleaving half-swaps), rotating is the /readyz
	// signal, and rotations feeds Metrics. Checkpoint/rotation work never
	// touches serveOne — it synchronises on the same per-shard execMu the
	// serving path already holds.
	rotMu     sync.Mutex
	rotating  atomic.Bool
	rotations atomic.Uint64

	// multiP records whether GOMAXPROCS was above one at NewPool: only
	// then can a worker run beside a TryDo caller. Sampled once, since
	// reading GOMAXPROCS takes the scheduler lock.
	multiP bool

	// maxIF/ifTotal are the pool-wide in-flight ceiling and its counter
	// (only maintained when a ceiling is set); rejectedPool counts
	// refusals made before a shard was even chosen, folded into Metrics.
	maxIF        int64
	ifTotal      atomic.Int64
	rejectedPool atomic.Uint64

	closed    atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup

	// Flight recorder and the slow-request capture built on it. The
	// capture ring is mutex-guarded: it is only touched for requests
	// over the slow threshold, which is off the common path by
	// definition.
	rec      *flight.Recorder
	slowNS   int64
	slowMu   sync.Mutex
	slow     []SlowCapture
	slowNext int
}

// NewPool builds and starts a pool of cfg.Workers machines, each
// stamped from the snapshot by its own import of the snapshot's state.
func NewPool(snap *core.Snapshot, cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.GCEvery == 0 {
		cfg.GCEvery = defaultGCEvery
	}
	if cfg.Faults != nil {
		f := *cfg.Faults // callers must not mutate an armed plan
		cfg.Faults = &f
	}
	p := &Pool{cfg: cfg, maxIF: int64(cfg.MaxInFlight), multiP: runtime.GOMAXPROCS(0) > 1}
	p.rec = flight.New(cfg.Workers, cfg.FlightRingSize)
	p.slowNS = int64(cfg.SlowThreshold)
	for i := 0; i < cfg.Workers; i++ {
		s := &shard{
			id:    i,
			m:     snap.NewMachine(),
			src:   snap,
			queue: make(chan job, cfg.QueueDepth),
			fr:    p.rec.Ring(i),
		}
		if cfg.Faults != nil {
			s.chaos = newChaosState(*cfg.Faults, i)
		}
		p.shards = append(p.shards, s)
	}
	for _, s := range p.shards {
		p.wg.Add(1)
		go p.worker(s)
	}
	return p
}

// Workers returns the number of shards.
func (p *Pool) Workers() int { return len(p.shards) }

// shardFor routes a request. Affinity keys pin; keyless requests go to
// the shorter of two randomly probed queues.
func (p *Pool) shardFor(req Request) *shard {
	n := uint64(len(p.shards))
	if req.Key != 0 {
		return p.shards[req.Key%n]
	}
	if n == 1 {
		return p.shards[0]
	}
	r := rand.Uint64()
	a := r % n
	b := (r >> 32) % n
	if b == a {
		b = (a + 1) % n
	}
	sa, sb := p.shards[a], p.shards[b]
	if sb.pending.Load() < sa.pending.Load() {
		return sb
	}
	return sa
}

// admit claims a slot under the pool's in-flight ceiling, refusing with
// ErrOverloaded when the ceiling is closed (MaxInFlight < 0) or the
// claim would cross it. With no ceiling configured this is a single
// predictable branch — the unlimited pool pays nothing for the feature.
func (p *Pool) admit() error {
	if p.maxIF == 0 {
		return nil
	}
	if p.maxIF < 0 {
		return ErrOverloaded
	}
	if v := p.ifTotal.Add(1); v > p.maxIF {
		p.ifTotal.Add(-1)
		return ErrOverloaded
	}
	return nil
}

// release returns an admitted slot, once per admitted request: at
// completion, or at the rejection/refusal that un-admitted it.
func (p *Pool) release() {
	if p.maxIF > 0 {
		p.ifTotal.Add(-1)
	}
}

// enter routes a request past admission and claims its shard's in-flight
// counter. On success the caller must release the counter with
// s.inflight.Add(-1) once its enqueue (or inline execution) is done, and
// owns one admitted ceiling slot. The counter-then-flag order pairs with
// Close's flag-then-counter order: a submitter that saw the pool open is
// always waited out before the queues close.
func (p *Pool) enter(req Request) (*shard, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if err := p.admit(); err != nil {
		p.rejectedPool.Add(1)
		return nil, err
	}
	s := p.shardFor(req)
	s.inflight.Add(1)
	if p.closed.Load() {
		s.inflight.Add(-1)
		p.release()
		return nil, ErrClosed
	}
	return s, nil
}

// reject refuses a request whose shard queue was full: the distinct
// flight event and counter, on the shard the request would have joined.
// Written by the submitter — the ring and the counter both allow that —
// at ts, the refused enqueue's recorder timestamp.
func (p *Pool) reject(s *shard, id uint64, depth, ts int64) {
	s.met.rejected.Add(1)
	s.fr.RecordAt(flight.KindReject, id, uint64(depth), ts)
}

// reqID reserves a pool-unique request id: the shard index in the top
// bits over a per-shard sequence, so id allocation never contends across
// shards and an id names its shard for free.
func (s *shard) reqID() uint64 {
	return uint64(s.id)<<48 | s.reqSeq.Add(1)&(1<<48-1)
}

// stampEnqueue reserves a request id and records the enqueue event
// carrying it at now, a core.Monotonic reading; depth is the shard
// backlog the request joined. It returns the id and the event's recorder
// timestamp, which anchors the queue-wait span and the shed path's
// deadline arithmetic.
func (s *shard) stampEnqueue(depth, now int64) (uint64, int64) {
	id := s.reqID()
	enq := s.fr.TS(now)
	s.fr.RecordAt(flight.KindEnqueue, id, uint64(depth), enq)
	return id, enq
}

// enqInline marks a request that never queued: the inline lane executes
// on the caller's goroutine, so serveOne records exec_start and no queue
// wait.
const enqInline = int64(-1)

// Go submits a request and returns a Future delivering its single result.
// The Future's Wait must be called exactly once. Submission never blocks:
// a full shard queue (or a reached in-flight ceiling) completes the
// Future immediately with ErrOverloaded instead of parking the caller
// behind a backlog it cannot see.
func (p *Pool) Go(req Request) *Future {
	s, err := p.enter(req)
	if err != nil {
		return refused(err)
	}
	return p.enqueue(s, req, core.Monotonic())
}

// GoAt is Go for a submitter that has just read the clock: now, a
// core.Monotonic reading, stamps the request's enqueue, so the stage the
// submitter timed up to now and the queue wait share one reading.
func (p *Pool) GoAt(req Request, now int64) *Future {
	s, err := p.enter(req)
	if err != nil {
		return refused(err)
	}
	return p.enqueue(s, req, now)
}

// refused returns a Future already completed with a submission refusal.
func refused(err error) *Future {
	f := newFuture()
	f.complete(Result{Err: err})
	return f
}

// enqueue queues a request that passed enter onto its shard, stamped at
// now (a core.Monotonic reading), and releases the shard's in-flight
// counter. A full queue completes the returned Future at once with
// ErrOverloaded.
func (p *Pool) enqueue(s *shard, req Request, now int64) *Future {
	f := newFuture()
	d := s.pending.Add(1)
	id, enq := s.stampEnqueue(d, now)
	select {
	case s.queue <- job{req: req, fut: f, id: id, enq: enq}:
	default:
		// Queue full: shed at the door. s.inflight is still held, so the
		// queue cannot close under this window even though the send lost.
		s.pending.Add(-1)
		p.release()
		p.reject(s, id, d, enq)
		f.complete(Result{Err: ErrOverloaded, Worker: s.id})
	}
	s.inflight.Add(-1)
	return f
}

// inline is the pool's one run-to-completion lane: when the shard is
// idle — its machine free and no queued work outstanding — it executes
// the request on the caller's goroutine instead of bouncing it through
// the shard's queue, saving two scheduler round-trips. The machine, not
// the goroutine, is the unit of sharding: execMu keeps exactly one
// driver on it at a time, and the pending check (made after the lock is
// won) ensures the inline lane never runs ahead of work the same caller
// already queued with Go. The execution itself counts in pending, so the
// JSQ depth signal sees busy shards whichever path drives them. The
// caller holds s.inflight for the whole call — so Close, which waits the
// counters out, still leaves no machine running once it returns — and
// reports false, having executed nothing, when the shard is busy. now is
// the core.Monotonic reading execution starts at; done is the reading
// serveOne finished at.
func (p *Pool) inline(s *shard, req Request, now int64) (res Result, done int64, ok bool) {
	if !s.execMu.TryLock() {
		return Result{}, 0, false
	}
	if s.pending.Load() != 0 {
		s.execMu.Unlock()
		return Result{}, 0, false
	}
	s.pending.Add(1)
	res, done = p.serveOne(s, req, s.reqID(), enqInline, now)
	s.pending.Add(-1)
	s.execMu.Unlock()
	return res, done, true
}

// TryDo executes a request on the caller's goroutine when no worker
// could run it sooner, and otherwise executes nothing and reports false,
// leaving the caller to submit with Go. It runs the request through the
// same inline lane as Do, and only when the request's shard is idle.
// behind tells it whether the caller has more work waiting behind this
// request, as an obwire connection reader does when further bytes are
// buffered behind a frame. With two or more Ps, sampled once at
// NewPool, TryDo also needs nothing behind and no other shard idle —
// always the case on a one-worker pool — so a caller feeding a pipeline
// never takes on work that an idle worker could run beside it. With one
// P nothing runs beside the caller, so any idle shard runs the request
// inline, whatever waits behind it, and the caller skips the hand-off
// to a worker that could only run once the caller stops.
// Admission refusals and ErrClosed are answers: they come back with
// true, as Do would return them.
//
// now is a core.Monotonic reading the caller has just taken; an executed
// request's service span starts there. done is the reading at which the
// pool finished with the request — its exec end, or the end of the
// collection slice that rode behind it — so the caller's next stage can
// start there without reading the clock; it is now for an answered
// refusal, and means nothing when TryDo declines.
func (p *Pool) TryDo(req Request, now int64, behind bool) (res Result, done int64, ok bool) {
	if behind && p.multiP {
		return Result{}, 0, false
	}
	s, err := p.enter(req)
	if err != nil {
		return Result{Err: err}, now, true
	}
	if !p.multiP || !p.otherIdle(s) {
		res, done, ok = p.inline(s, req, now)
	}
	s.inflight.Add(-1)
	p.release()
	return res, done, ok
}

// otherIdle reports whether any shard but s has no work outstanding.
func (p *Pool) otherIdle(s *shard) bool {
	for _, o := range p.shards {
		if o != s && o.pending.Load() == 0 {
			return true
		}
	}
	return false
}

// Do submits a request and waits for its result. An idle shard runs it
// inline on the caller's goroutine (see inline); a busy one queues it.
func (p *Pool) Do(req Request) Result {
	s, err := p.enter(req)
	if err != nil {
		return Result{Err: err}
	}
	now := core.Monotonic()
	if res, _, ok := p.inline(s, req, now); ok {
		s.inflight.Add(-1)
		p.release()
		return res
	}
	return p.enqueue(s, req, now).Wait()
}

// Close drains the queues, stops every worker and waits for them. Requests
// already accepted are served; later submissions get ErrClosed.
func (p *Pool) Close() {
	p.closed.Store(true)
	p.closeOnce.Do(func() {
		// Wait out submitters caught between their closed check and
		// their enqueue, and inline drivers mid-execution. The window is
		// a few instructions for submitters; inline drivers hold their
		// counter for a whole send, so back off politely.
		for _, s := range p.shards {
			for spin := 0; s.inflight.Load() != 0; spin++ {
				if spin < 64 {
					runtime.Gosched()
				} else {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}
		for _, s := range p.shards {
			close(s.queue)
		}
		p.wg.Wait()
	})
}

// Metrics returns the aggregated pool metrics. Each shard contributes a
// seqlock-consistent snapshot; the total can only trail, never lead, the
// per-shard counts a later ShardMetrics call reports.
func (p *Pool) Metrics() Metrics {
	var out Metrics
	for _, s := range p.shards {
		out.merge(s.met.snapshot())
	}
	out.Rejected += p.rejectedPool.Load()
	out.Rotations = p.rotations.Load()
	return out
}

// InFlight returns the admitted-but-unfinished request count the ceiling
// tracks. Only maintained when Config.MaxInFlight is positive; 0
// otherwise.
func (p *Pool) InFlight() int64 {
	if p.maxIF <= 0 {
		return 0
	}
	return p.ifTotal.Load()
}

// UnhealthyShards counts shards whose most recent execution panicked and
// that have not served a success since their re-stamp — the
// quarantine-heavy readiness signal.
func (p *Pool) UnhealthyShards() int {
	n := 0
	for _, s := range p.shards {
		if s.unhealthy.Load() {
			n++
		}
	}
	return n
}

// NotReady answers why the pool should get no new work, or "" while it
// should, in severity order: "rotating" while a live rotation is
// mid-swap (the pool serves, but a balancer should prefer a steadier
// peer); "overloaded" while admission refuses keyless capacity — the
// MaxInFlight ceiling is closed or reached (full queues are per-shard
// and transient, so they do not count); "quarantine-heavy" while panic
// re-stamps churn through more than half the shards. A node's /readyz
// and the obwire pong both answer it, each putting "draining" first once
// its own shutdown begins.
func (p *Pool) NotReady() string {
	switch {
	case p.Rotating():
		return "rotating"
	case p.maxIF < 0 || p.maxIF > 0 && p.ifTotal.Load() >= p.maxIF:
		return "overloaded"
	case 2*p.UnhealthyShards() > len(p.shards):
		return "quarantine-heavy"
	}
	return ""
}

// QueueDepths returns each shard's instantaneous backlog — queued jobs
// plus any executing one, inline executions included — indexed by worker
// id. This is the depth counter the JSQ router probes; exposing it lets
// callers and /stats watch the balance.
func (p *Pool) QueueDepths() []int {
	out := make([]int, len(p.shards))
	for i, s := range p.shards {
		out[i] = int(s.pending.Load())
	}
	return out
}

// ShardMetrics returns each shard's metrics, indexed by worker id. Each
// entry is a seqlock-consistent snapshot.
func (p *Pool) ShardMetrics() []Metrics {
	out := make([]Metrics, len(p.shards))
	for i, s := range p.shards {
		out[i] = s.met.snapshot()
	}
	return out
}

// LatencyHistogram merges the shards' fixed-bucket service-latency
// histograms — the data behind /stats percentiles.
func (p *Pool) LatencyHistogram() stats.Histogram {
	var out stats.Histogram
	for _, s := range p.shards {
		h := s.lat.Snapshot()
		out.Merge(&h)
	}
	return out
}

// QueueWaitHistogram merges the shards' queue-wait histograms: the time
// between a request's enqueue and its dispatch, the first stage span,
// measured from the flight recorder's enqueue stamps.
func (p *Pool) QueueWaitHistogram() stats.Histogram {
	var out stats.Histogram
	for _, s := range p.shards {
		h := s.qlat.Snapshot()
		out.Merge(&h)
	}
	return out
}

// FlightRecorder returns the pool's flight recorder.
func (p *Pool) FlightRecorder() *flight.Recorder { return p.rec }

// MachineStats sums the machine-level cycle accounting across shards,
// quarantined-and-retired machines included, so the total conserves
// across re-stamps. Meaningful only while the pool is quiescent (e.g.
// after Close), since workers mutate their machines without
// synchronisation.
func (p *Pool) MachineStats() core.Stats {
	var out core.Stats
	for _, s := range p.shards {
		out.Add(s.m.Stats)
		out.Add(s.retired)
	}
	return out
}

// worker drains one shard's queue. Each wakeup serves the job that woke
// it and then drains up to drainBatch-1 more without blocking, amortising
// the channel receive and scheduler round-trip across queued work.
func (p *Pool) worker(s *shard) {
	defer p.wg.Done()
	for j := range s.queue {
		s.execMu.Lock()
		p.dispatch(s, j)
		for n := 1; n < drainBatch; n++ {
			select {
			case j2, ok := <-s.queue:
				if !ok {
					s.execMu.Unlock()
					return // closed and drained
				}
				p.dispatch(s, j2)
			default:
				n = drainBatch // queue momentarily empty; block in range again
			}
		}
		s.execMu.Unlock()
	}
}

// dispatch runs one queue entry behind the shard driver's recovery
// barrier: serveOne's own barrier catches machine-execution panics, so
// anything arriving here escaped the serving path's bookkeeping — the
// handler still answers the job, retires its counters and re-stamps the
// machine, keeping the driver goroutine (and the process) alive.
func (p *Pool) dispatch(s *shard, j job) {
	defer func() {
		if r := recover(); r != nil {
			p.driverPanic(s, j, r)
		}
	}()
	p.serveJob(s, j)
}

// serveJob dispatches one queue entry and retires its pending count and
// ceiling slot. Callers hold the shard's execMu.
func (p *Pool) serveJob(s *shard, j job) {
	if c := s.chaos; c != nil {
		c.beforeDispatch()
	}
	res, _ := p.serveOne(s, j.req, j.id, j.enq, core.Monotonic())
	// Retire the depth count before publishing the result: once every
	// submitted request has been collected, QueueDepths is exactly zero.
	s.pending.Add(-1)
	p.release()
	j.fut.complete(res)
}

// serveOne executes a request on the shard's machine under the
// request's bounds. The send leaves the machine idle whatever it returns;
// a panic instead re-stamps the machine from the snapshot. Callers hold
// execMu, which makes this the shard's single metrics and flight-event
// writer: id is the request's flight id and enq its enqueue timestamp in
// recorder nanoseconds (enqInline for Do's never-queued fast path).
// start is the core.Monotonic reading execution starts at — the dispatch
// instant, or the inline caller's own reading. serveOne reads the clock
// once more, at exec end, plus twice around a collection slice when one
// rides behind the request, and returns the last reading it took.
func (p *Pool) serveOne(s *shard, req Request, id uint64, enq, start int64) (Result, int64) {
	m := s.m
	budget := req.MaxSteps
	if budget == 0 {
		budget = p.cfg.MaxSteps
	}
	timeout := req.Timeout
	if timeout == 0 {
		timeout = p.cfg.Timeout
	}
	fr := s.fr
	ts0 := fr.TS(start)
	if enq > 0 && timeout != 0 {
		// Shed a request whose deadline already expired while it queued:
		// the submitter's enqueue stamp counts from the same recorder
		// epoch, so one subtraction decides, and the machine is never
		// touched. No allocation happens on this path — an overloaded
		// pool sheds for free.
		if wait := ts0 - enq; wait > int64(timeout) {
			s.met.shedExpired.Add(1)
			fr.RecordAt(flight.KindShed, id, uint64(wait), ts0)
			s.qlat.Observe(time.Duration(wait))
			return Result{Err: ErrExpired, Worker: s.id}, start
		}
	}
	// One event marks execution beginning: dispatch for a queued request
	// (pickup and exec start are the same instant here, and the arg
	// carries the queue wait against the submitter's enqueue stamp),
	// exec_start for the inline lane, which never queued and so has no
	// wait to report. Every timestamp derives from two core.Monotonic
	// readings, start and end: the recorder, the deadline and the step-0
	// deadline poll add no clock reads to the serving path.
	var wait int64
	if enq == enqInline {
		fr.RecordAt(flight.KindExecStart, id, budget, ts0)
	} else {
		wait = ts0 - enq
		fr.RecordAt(flight.KindDispatch, id, uint64(wait), ts0)
		s.qlat.Observe(time.Duration(wait))
	}
	var preStats core.Stats
	if p.slowNS > 0 {
		preStats = m.Stats
	}
	m.Arm(start, budget, timeout)
	steps0, cycles0 := m.Stats.Instructions, m.Stats.Cycles
	itlb0 := m.ITLB.CacheStats()
	allocs0 := m.Space.Stats.TotalAllocs()

	v, err, panicked, chaosHit := p.invoke(s, req)

	end := core.Monotonic()
	res := Result{
		Value:   v,
		Err:     err,
		Worker:  s.id,
		Steps:   m.Stats.Instructions - steps0,
		Cycles:  m.Stats.Cycles - cycles0,
		Latency: time.Duration(end - start),
	}
	itlb := m.ITLB.CacheStats()
	timedOut := false
	if err != nil && !panicked {
		var trap *core.Trap
		if errors.As(err, &trap) {
			timedOut = trap.Kind == "timeout" || trap.Kind == "interrupt"
		}
	}
	tsEnd := fr.TS(end)
	fr.RecordAt(flight.KindExecEnd, id, res.Steps, tsEnd)
	if err != nil && !panicked {
		code := uint64(flight.AbortError)
		if timedOut {
			code = flight.AbortTimeout
		}
		fr.RecordAt(flight.KindAbort, id, code, tsEnd)
	}
	if panicked {
		// The interrupted machine is suspect: quarantine it and re-stamp
		// a fresh worker from the snapshot.
		end = p.quarantine(s, id, tsEnd, chaosHit)
	}
	if p.slowNS > 0 && int64(res.Latency) >= p.slowNS {
		p.captureSlow(s, m, req, id, time.Duration(wait), res, preStats)
	}

	mm := &s.met
	mm.begin()
	mm.requests.Add(1)
	if err != nil {
		mm.errors.Add(1)
		if timedOut {
			mm.timeouts.Add(1)
		}
	}
	lat := int64(res.Latency)
	mm.totalLatency.Add(lat)
	if lat > mm.maxLatency.Load() {
		mm.maxLatency.Store(lat)
	}
	mm.instructions.Add(res.Steps)
	mm.cycles.Add(res.Cycles)
	mm.itlbHits.Add(itlb.Hits - itlb0.Hits)
	mm.itlbTotal.Add(itlb.Hits + itlb.Misses - itlb0.Hits - itlb0.Misses)
	mm.end()
	s.lat.Observe(res.Latency)
	if err == nil && s.unhealthy.Load() {
		s.unhealthy.Store(false)
	}
	if panicked {
		// The re-stamped machine is factory-fresh: no abort garbage to
		// collect, and the shard's GC cadence restarted with it.
		return res, end
	}

	s.sinceGC++
	due := p.cfg.GCEvery > 0 && (s.sinceGC >= p.cfg.GCEvery || err != nil)
	if due {
		s.sinceGC = 0
	}

	// Collection work rides between requests in bounded slices: a due
	// shard runs the mark phase and the first sweep step now, and an
	// active cycle retires one more slice after every request until the
	// sweep is done — no request ever waits on a full-heap walk. Each
	// slice also covers what the request allocated, so it keeps pace.
	if p.cfg.GCEvery > 0 && (due || s.col.Active()) {
		chunk := gc.DefaultSweepChunk + int(m.Space.Stats.TotalAllocs()-allocs0)
		gcStart := core.Monotonic()
		fr.RecordAt(flight.KindGCStart, 0, uint64(chunk), fr.TS(gcStart))
		if !s.col.Active() {
			s.col.Start(m)
		}
		_, done := s.col.Step(chunk)
		end = core.Monotonic()
		// Arg is the sweep work still pending: 0 means this slice
		// finished the cycle.
		fr.RecordAt(flight.KindGCEnd, 0, uint64(s.col.Remaining()), fr.TS(end))
		mm.begin()
		mm.gcPause.Add(end - gcStart)
		if done {
			mm.gcs.Add(1)
		}
		mm.end()
	}
	return res, end
}

// SlowCapture is one slow request's story: its identity and spans, the
// result, the exact machine-level accounting it consumed (a core.Stats
// delta), and its flight-recorder event chain as captured at completion.
type SlowCapture struct {
	ID        uint64        `json:"id"`
	Worker    int           `json:"worker"`
	Selector  string        `json:"selector"`
	Key       uint64        `json:"key,omitempty"`
	When      time.Time     `json:"when"`
	QueueWait time.Duration `json:"queue_wait_ns"`
	Latency   time.Duration `json:"latency_ns"`
	Steps     uint64        `json:"steps"`
	Cycles    uint64        `json:"cycles"`
	Err       string        `json:"error,omitempty"`

	// Stats is what this single request cost the machine, counter by
	// counter — the stats-after minus stats-before delta, GC work that
	// rode behind the request excluded.
	Stats core.Stats `json:"stats"`
	// Events is the request's lifecycle chain from the shard's flight
	// ring (empty if the ring already overwrote the events).
	Events []flight.Event `json:"events"`
}

// captureSlow snapshots a request that crossed the slow threshold into
// the bounded capture ring (newest captures win). Called under execMu;
// the mutex guards only readers, and only slow requests ever take it.
// m is the machine that executed the request — after a quarantine that
// is the retired machine, not s.m.
func (p *Pool) captureSlow(s *shard, m *core.Machine, req Request, id uint64, wait time.Duration, res Result, pre core.Stats) {
	delta := m.Stats
	delta.Sub(pre)
	c := SlowCapture{
		ID:        id,
		Worker:    s.id,
		Selector:  req.Selector,
		Key:       req.Key,
		When:      time.Now(),
		QueueWait: wait,
		Latency:   res.Latency,
		Steps:     res.Steps,
		Cycles:    res.Cycles,
		Stats:     delta,
		Events:    s.fr.EventsFor(id),
	}
	if res.Err != nil {
		c.Err = res.Err.Error()
	}
	p.slowMu.Lock()
	if len(p.slow) < slowKeep {
		p.slow = append(p.slow, c)
	} else {
		p.slow[p.slowNext] = c
	}
	p.slowNext = (p.slowNext + 1) % slowKeep
	p.slowMu.Unlock()
}

// SlowRequests returns the retained slow captures, oldest first.
func (p *Pool) SlowRequests() []SlowCapture {
	p.slowMu.Lock()
	defer p.slowMu.Unlock()
	out := make([]SlowCapture, 0, len(p.slow))
	if len(p.slow) < slowKeep {
		return append(out, p.slow...)
	}
	for i := 0; i < slowKeep; i++ {
		out = append(out, p.slow[(p.slowNext+i)%slowKeep])
	}
	return out
}

// SlowThreshold returns the armed slow-capture threshold (0: disabled).
func (p *Pool) SlowThreshold() time.Duration { return time.Duration(p.slowNS) }
