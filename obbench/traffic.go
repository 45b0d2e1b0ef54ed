package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/word"
	"repro/internal/workload"
)

// Stream lanes. Every goroutine that sends draws from its own seeded lane,
// so the offered stream is a function of the seed alone, whatever the
// goroutines' interleaving.
const (
	laneClosed = 0      // + caller index
	laneWarm   = 1 << 8 // + caller index
	laneOpen   = 2 << 8 // the open loop's sends
	laneGaps   = 3 << 8 // the open loop's inter-arrival gaps
	laneLadder = 4 << 8
)

var suite = workload.Suite()

// numProgs sizes the program table: the suite's six programs, then double.
const numProgs = 7

// progDouble is the program index of a double send.
const progDouble = numProgs - 1

func init() {
	if len(suite) != progDouble {
		panic(fmt.Sprintf("obbench: the suite has %d programs; numProgs expects %d", len(suite), progDouble))
	}
}

// send is one generated request with the answer it must get.
type send struct {
	req  serve.Request
	want int32
	prog int
}

// stream generates one lane's sends.
type stream struct {
	rng *rand.Rand
	w   *workloadSpec
	bag []int
}

func newStream(seed, lane uint64, w *workloadSpec) *stream {
	return &stream{rng: rand.New(rand.NewPCG(seed, lane)), w: w}
}

func (s *stream) next() send {
	if s.w.suite {
		// Shuffled bags of the six programs: every program runs equally
		// often, so the mix, and the throughput with it, does not drift
		// with the seed. Checksums hold only at each program's Size.
		if len(s.bag) == 0 {
			s.bag = s.rng.Perm(len(suite))
		}
		i := s.bag[0]
		s.bag = s.bag[1:]
		p := suite[i]
		return send{req: serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry}, want: p.Check, prog: i}
	}
	r := int32(s.rng.IntN(1<<21)) - 1<<20
	return send{req: serve.Request{Receiver: word.FromInt(r), Selector: "double", Key: s.key()}, want: 2 * r, prog: progDouble}
}

// key draws loadgen's hot-key skew: a keyedShare of sends carry a key,
// 80% of those the one hot key and the rest one of seven warm keys.
func (s *stream) key() uint64 {
	if s.w.keyedShare == 0 || s.rng.Float64() >= s.w.keyedShare {
		return 0
	}
	if s.rng.Float64() < 0.8 {
		return 1
	}
	return 2 + s.rng.Uint64N(7)
}

// gapStream draws the open loop's exponential inter-arrival gaps.
type gapStream struct {
	rng  *rand.Rand
	mean float64 // ns
}

func newGaps(seed uint64, rate float64) gapStream {
	return gapStream{rng: rand.New(rand.NewPCG(seed, laneGaps)), mean: 1e9 / rate}
}

func (g gapStream) next() time.Duration { return time.Duration(g.rng.ExpFloat64() * g.mean) }

// streamDigest hashes the head of every lane a run draws from, sends and
// open-loop gaps alike, so two runs can show they offered the same stream.
func streamDigest(w *workloadSpec, seed uint64) string {
	h := fnv.New64a()
	lanes := []uint64{laneOpen, laneLadder}
	for i := range uint64(w.callers) {
		lanes = append(lanes, laneClosed+i, laneWarm+i)
	}
	for _, lane := range lanes {
		st := newStream(seed, lane, w)
		for range 256 {
			s := st.next()
			fmt.Fprintf(h, "%d/%d/%s/%d/%d;", s.req.Receiver.Tag, s.req.Receiver.Bits, s.req.Selector, s.req.Key, s.want)
		}
	}
	g := newGaps(seed, w.rate)
	for range 1024 {
		fmt.Fprintf(h, "%d;", g.next())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// tally counts one goroutine's sends by outcome. A send is correct only
// when it answered StatusOK with the expected integer. Refusals, transport
// errors and a full window count as failed; so does a wrong answer, which
// also makes the run incorrect.
type tally struct {
	attempted, ok                         int64
	refused, transport, windowFull, wrong int64
	firstWrong                            string
	// cycles sums Response.Cycles over each program's correct sends;
	// sent counts them.
	cycles, sent [numProgs]uint64
}

// record checks one send's outcome and reports whether it was correct.
func (t *tally) record(s send, resp obwire.Response, err error) bool {
	t.attempted++
	switch {
	case errors.Is(err, obwire.ErrWindowFull):
		t.windowFull++
	case err != nil:
		t.transport++
	case obwire.Retryable(resp.Status):
		t.refused++
	default:
		if v, isInt := resp.Value.IntOK(); resp.OK() && isInt && v == s.want {
			t.ok++
			t.cycles[s.prog] += resp.Cycles
			t.sent[s.prog]++
			return true
		}
		t.wrong++
		if t.firstWrong == "" {
			t.firstWrong = fmt.Sprintf("%v %s answered status %d, %v %q; want %d",
				s.req.Receiver, s.req.Selector, resp.Status, resp.Value, resp.Err, s.want)
		}
	}
	return false
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.refused += o.refused
	t.transport += o.transport
	t.windowFull += o.windowFull
	t.wrong += o.wrong
	if t.firstWrong == "" {
		t.firstWrong = o.firstWrong
	}
	for i := range t.cycles {
		t.cycles[i] += o.cycles[i]
		t.sent[i] += o.sent[i]
	}
}

// simCycles is the paper's modelled cost of a send: the mean over the
// programs sent of each program's mean Response.Cycles, so the mix a
// time-bounded run happened to send cannot move it.
func (t *tally) simCycles() float64 {
	sum, progs := 0.0, 0
	for i, n := range t.sent {
		if n > 0 {
			sum += float64(t.cycles[i]) / float64(n)
			progs++
		}
	}
	return sum / float64(progs)
}

// poolResponse gives a pool result the shape of a wire response, so every
// rung is checked by the same tally.
func poolResponse(r serve.Result) obwire.Response {
	resp := obwire.Response{Status: obwire.StatusFor(r.Err), Value: r.Value, Cycles: r.Cycles, Steps: r.Steps, Latency: r.Latency}
	if r.Err != nil {
		resp.Err = r.Err.Error()
	}
	return resp
}

// hostWindow is the slice the measured phases are cut into. The machines
// this benchmark runs on change speed by up to 2x every few seconds as
// their neighbours' load comes and goes, which swamps a regression bound
// on a plain average or a whole-phase percentile. So each statistic is
// computed per slice, and the slices are summarised by the quartile on
// the fast side (see fastQuartile): a slow spell spoils only the slices
// it covers, and a run need only see the host at its usual best for a
// quarter of the time to read true.
const hostWindow = 500 * time.Millisecond

// minWindowSends is the fewest sends an open-loop slice must expect, so
// its p99 has at least ten samples beyond it.
const minWindowSends = 1000

// slicing cuts a phase of length d into equal windows of at least min.
func slicing(d, min time.Duration) (n int, length time.Duration) {
	n = max(1, int(d/min))
	return n, d / time.Duration(n)
}

// fastQuartile summarises per-window values by the quartile on the fast
// side: the lower quartile of a cost, the upper quartile of a rate.
func fastQuartile(vals []float64, higherIsFaster bool) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	slices.Sort(vals)
	q := 0.25
	if higherIsFaster {
		q = 0.75
	}
	return vals[int(q*float64(len(vals)-1)+0.5)]
}

// closedResult is a closed-loop phase: outcomes, and correct sends and
// process CPU time per window.
type closedResult struct {
	t      tally
	ok     []int64
	cpu    []time.Duration // process CPU time per window
	winLen time.Duration
}

// rate is correct sends per second of the process's CPU time, the fast
// quartile over the windows. With one P the stack can use one core, and a
// closed loop keeps it busy, so on an otherwise idle host this is the
// sends per second of wall time. Other processes on the host take the
// core away from it for part of a window; counting the time the process
// ran, not the time that passed, keeps that out of the figure, so runs
// on a host shared with other load still agree. busyShare shows how much
// of the wall time the process had.
func (c closedResult) rate() float64 {
	rates := make([]float64, 0, len(c.ok))
	for i, n := range c.ok {
		if c.cpu[i] > 0 {
			rates = append(rates, float64(n)/c.cpu[i].Seconds())
		}
	}
	return fastQuartile(rates, true)
}

// busyShare is the process's CPU time over the phase's wall time: about 1
// when the closed loop kept its one P busy on a host with a core to spare.
// Less means the stack sat idle waiting on something, or the host gave
// its core to other processes.
func (c closedResult) busyShare() float64 {
	var cpu time.Duration
	for _, d := range c.cpu {
		cpu += d
	}
	return cpu.Seconds() / (c.winLen * time.Duration(len(c.cpu))).Seconds()
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// closedLoop runs w.callers synchronous callers for d; each sends its next
// request only once the last one answered. With spans set, every send is
// also recorded as a root span with the node's service time as its child.
func closedLoop(send sender, w *workloadSpec, seed, lane uint64, d time.Duration, spans *spanLog) closedResult {
	type callerState struct {
		t  tally
		ok []int64
	}
	nWin, winLen := slicing(d, hostWindow)
	states := make([]callerState, w.callers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	// The process's CPU time, read at the end of each window.
	cpu := make([]time.Duration, nWin)
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := processCPU()
		for k := range nWin {
			time.Sleep(time.Until(start.Add(time.Duration(k+1) * winLen)))
			now := processCPU()
			cpu[k], last = now-last, now
		}
	}()
	for i := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newStream(seed, lane+uint64(i), w)
			c := &states[i]
			c.ok = make([]int64, nWin)
			for time.Now().Before(deadline) {
				s := st.next()
				t0 := time.Now()
				resp, err := send(s.req)
				done := time.Now()
				if !c.t.record(s, resp, err) {
					continue
				}
				if k := int(done.Sub(start) / winLen); k < nWin {
					c.ok[k]++
				}
				if spans != nil {
					spans.add(i, t0, done.Sub(t0), resp.Latency)
				}
			}
		}()
	}
	wg.Wait()
	res := closedResult{ok: make([]int64, nWin), winLen: winLen, cpu: cpu}
	for i := range states {
		res.t.add(&states[i].t)
		for k, n := range states[i].ok {
			res.ok[k] += n
		}
	}
	return res
}

// failedLatency is the latency a failed or refused send is charged: it
// misses any limit.
const failedLatency = time.Duration(math.MaxInt64)

// openResult is an open-loop phase: outcomes, each send's latency from
// when it was due and the window it fell due in, and how late each send
// was picked up.
type openResult struct {
	t       tally
	samples []sample
	late    []time.Duration
	windows int
	elapsed time.Duration
}

// sample is one open-loop send's latency and the window it fell due in.
type sample struct {
	lat time.Duration
	win int
}

// quantile is the fast quartile over the windows of each window's
// q-quantile latency.
func (o openResult) quantile(q float64) time.Duration {
	per := make([][]time.Duration, o.windows)
	for _, s := range o.samples {
		per[s.win] = append(per[s.win], s.lat)
	}
	vals := make([]float64, 0, o.windows)
	for _, lat := range per {
		if len(lat) > 0 {
			slices.Sort(lat)
			vals = append(vals, float64(quantile(lat, q)))
		}
	}
	return time.Duration(fastQuartile(vals, false))
}

// job is one open-loop send and the moment it fell due.
type job struct {
	s   send
	due time.Time
	win int
}

// openSenders is how many goroutines send for the open loop: far more than
// are ever in flight at the offered rates, so a send waits for a sender
// only when the stack stalls.
const openSenders = 64

// openLoop offers w.rate sends/s for d as Poisson arrivals. One pacer
// releases each send at its due time to openSenders sending goroutines;
// when all of them are busy, released sends wait in a queue. Each send is
// timed from when it was due, so a stall is charged to every send it
// delays, and lateness records how long after its due time a sender
// picked it up.
func openLoop(send sender, w *workloadSpec, seed uint64, d time.Duration) (openResult, error) {
	p, err := newPacer()
	if err != nil {
		return openResult{}, err
	}
	defer p.close()
	type senderState struct {
		t       tally
		samples []sample
		late    []time.Duration
	}
	nWin, winLen := slicing(d, max(hostWindow, time.Duration(minWindowSends/w.rate*float64(time.Second))))
	states := make([]senderState, openSenders)
	// A second of arrivals can queue before the pacer itself blocks: a
	// stall that long has already failed any latency limit.
	jobs := make(chan job, int(w.rate)+1)
	var wg sync.WaitGroup
	for i := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &states[i]
			for j := range jobs {
				o.late = append(o.late, time.Since(j.due))
				resp, err := send(j.s.req)
				lat := time.Since(j.due)
				if !o.t.record(j.s, resp, err) {
					lat = failedLatency
				}
				o.samples = append(o.samples, sample{lat: lat, win: j.win})
			}
		}()
	}
	st := newStream(seed, laneOpen, w)
	gaps := newGaps(seed, w.rate)
	start := time.Now().Add(time.Millisecond)
	end := start.Add(d)
	for due := start.Add(gaps.next()); due.Before(end); due = due.Add(gaps.next()) {
		if err = p.sleepUntil(due); err != nil {
			break
		}
		jobs <- job{s: st.next(), due: due, win: min(int(due.Sub(start)/winLen), nWin-1)}
	}
	close(jobs)
	wg.Wait()
	res := openResult{elapsed: time.Since(start), windows: nWin}
	for i := range states {
		res.t.add(&states[i].t)
		res.samples = append(res.samples, states[i].samples...)
		res.late = append(res.late, states[i].late...)
	}
	return res, err
}

// span is one traced send: the client call as the root, the node's
// reported service time as its child.
type span struct {
	start, root, service time.Duration
}

// spanShard is one caller's spans, padded so callers never share a
// cache line while recording.
type spanShard struct {
	kept          []span
	n             int64
	root, service time.Duration
	_             [64]byte
}

// spanLog keeps a traced phase's spans in memory, one shard per caller so
// recording takes no lock. Sums cover every span; the first spans of each
// shard are kept for the span file.
type spanLog struct {
	epoch  time.Time
	shards []spanShard
}

func newSpanLog(callers, keep int, epoch time.Time) *spanLog {
	l := &spanLog{epoch: epoch, shards: make([]spanShard, callers)}
	for i := range l.shards {
		l.shards[i].kept = make([]span, 0, keep/callers+1)
	}
	return l
}

func (l *spanLog) add(caller int, t0 time.Time, root, service time.Duration) {
	sh := &l.shards[caller]
	sh.n++
	sh.root += root
	sh.service += service
	if len(sh.kept) < cap(sh.kept) {
		sh.kept = append(sh.kept, span{start: t0.Sub(l.epoch), root: root, service: service})
	}
}

// totals sums the shards: span count, root time and service time.
func (l *spanLog) totals() (n int64, root, service time.Duration) {
	for i := range l.shards {
		n += l.shards[i].n
		root += l.shards[i].root
		service += l.shards[i].service
	}
	return n, root, service
}
