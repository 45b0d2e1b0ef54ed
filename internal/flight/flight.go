// Package flight is an always-on, lock-free flight recorder for the
// serving pool: a per-shard fixed-size ring of request lifecycle events
// (enqueue, dispatch, execute start/end, abort, GC slice start/end), each
// a fixed-width record stamped with the process monotonic clock,
// core.Monotonic — the clock the serving path already reads, so a hot
// path records with a reading it took for its own spans. Writing an event
// is one atomic cursor bump plus a handful of atomic word stores — no
// allocation, no lock, no syscall — so the recorder can stay enabled on
// the zero-alloc request path the pool worked for. Old events are simply
// overwritten: the ring answers "what happened recently on this shard",
// not "what happened ever", which is exactly the question a p999 request
// or a wedged worker poses.
//
// Readback mirrors the pool's seqlock metrics design: each slot carries a
// publication stamp written after the payload, so a reader that observes
// the same stamp before and after copying the payload holds a consistent
// event, and a slot being overwritten mid-copy is detected and skipped
// rather than surfaced torn. Readers never block writers and writers
// never wait for readers; a reader racing a fast writer loses events, by
// design.
package flight

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
)

// Kind identifies a lifecycle event.
type Kind uint8

const (
	// KindEnqueue is a request landing on a shard's queue. Arg is the
	// shard's backlog (pending jobs) at submission.
	KindEnqueue Kind = iota + 1
	// KindDispatch is the shard driver picking a queued request up;
	// machine execution begins this same instant. Arg is the queue wait
	// in nanoseconds.
	KindDispatch
	// KindExecStart is machine execution beginning inline on the
	// caller's goroutine — Do's fast lane, which never queued, so the
	// event chain has no enqueue or dispatch. Arg is the step budget in
	// force (0: the machine's own limit).
	KindExecStart
	// KindExecEnd is machine execution finishing. Arg is the interpreted
	// steps the request spent.
	KindExecEnd
	// KindAbort is a request answered with an error: Arg is AbortTimeout
	// for deadline/interrupt traps, AbortError for everything else.
	KindAbort
	// KindGCStart is an incremental collection slice beginning on the
	// shard. Arg is the slice's sweep bound: gc.DefaultSweepChunk plus
	// the segments the request just served allocated, so never 0.
	KindGCStart
	// KindGCEnd is that slice finishing. Arg is the number of segments
	// still pending in the cycle's sweep (0: the cycle completed).
	KindGCEnd
	// KindReject is a request refused at admission: its shard's queue was
	// full, so the pool shed it instead of blocking the submitter. Arg is
	// the shard backlog at the refusal. Written by the submitter, not the
	// shard driver — the ring's reservation cursor makes that safe.
	KindReject
	// KindShed is a queued request dropped at dispatch because its
	// wall-clock deadline had already expired while it waited: the machine
	// was never touched. Arg is the queue wait in nanoseconds.
	KindShed
	// KindPanic is a worker panic caught by the shard's recovery barrier
	// and converted into a failed result. Arg is PanicChaos for
	// chaos-injected panics, PanicReal for everything else.
	KindPanic
	// KindRestamp is a quarantined machine's replacement being stamped
	// from the pool snapshot after a panic. Arg is the re-stamp cost in
	// nanoseconds.
	KindRestamp
	// KindCheckpoint is a live pool snapshot being captured from shard
	// 0 between two of its requests — the durability path's read side.
	// Arg is the capture cost in nanoseconds. Req is 0: a pool-level
	// event.
	KindCheckpoint
	// KindRotate is a shard's worker being stamped onto a new serving
	// snapshot during a live image rotation. Arg is the stamp cost in
	// nanoseconds.
	KindRotate
)

// Abort reasons carried in a KindAbort event's Arg.
const (
	AbortError   = 1
	AbortTimeout = 2
)

// Panic provenance carried in a KindPanic event's Arg.
const (
	PanicReal  = 1
	PanicChaos = 2
)

// String names the kind for reports and /debug/slow.
func (k Kind) String() string {
	switch k {
	case KindEnqueue:
		return "enqueue"
	case KindDispatch:
		return "dispatch"
	case KindExecStart:
		return "exec_start"
	case KindExecEnd:
		return "exec_end"
	case KindAbort:
		return "abort"
	case KindGCStart:
		return "gc_start"
	case KindGCEnd:
		return "gc_end"
	case KindReject:
		return "reject"
	case KindShed:
		return "shed"
	case KindPanic:
		return "panic"
	case KindRestamp:
		return "restamp"
	case KindCheckpoint:
		return "checkpoint"
	case KindRotate:
		return "rotate"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded lifecycle event, decoded from its slot.
type Event struct {
	Seq   uint64 // position in the shard's event stream (monotonic)
	TS    int64  // nanoseconds since the recorder's epoch (core.Monotonic)
	Kind  Kind
	Shard int    // shard whose ring held the event
	Req   uint64 // request id; 0 for shard-level events (GC slices)
	Arg   uint64 // kind-specific payload, see the Kind constants
}

// argBits is how much of the packed kind|arg word the arg keeps. 56 bits
// hold any queue depth, step count, or nanosecond wait the pool can see.
const argBits = 56

// slot is one fixed-width ring entry. Every field is atomic so readback
// is race-free; the stamp is the seqlock: 0 while unwritten or mid-write,
// cursor+1 once the payload below it is complete.
type slot struct {
	stamp atomic.Uint64
	ts    atomic.Int64
	req   atomic.Uint64
	ka    atomic.Uint64 // Kind in the top 8 bits, Arg in the low 56
}

// pad keeps a ring's cursor off its neighbours' cache lines.
type pad [64]byte

// Ring is one shard's event buffer. Writers may be concurrent (the shard
// driver under its exec lock plus, in principle, any instrumented path);
// each reserves a slot with one atomic cursor bump and publishes it with
// a stamp store.
type Ring struct {
	_      pad
	cursor atomic.Uint64
	_      pad
	slots  []slot
	mask   uint64
	shard  int
	epoch  int64
}

// Record writes one event stamped now.
func (r *Ring) Record(k Kind, req, arg uint64) {
	r.RecordAt(k, req, arg, r.Now())
}

// RecordAt writes one event with a caller-supplied timestamp (nanoseconds
// since the recorder's epoch; see TS), letting hot paths reuse a clock
// reading they already paid for.
func (r *Ring) RecordAt(k Kind, req, arg uint64, ts int64) {
	c := r.cursor.Add(1) - 1
	s := &r.slots[c&r.mask]
	// Invalidate before the payload, publish after: a reader that sees
	// the same non-zero stamp around its copy holds exactly version c+1.
	s.stamp.Store(0)
	s.ts.Store(ts)
	s.req.Store(req)
	s.ka.Store(uint64(k)<<argBits | arg&(1<<argBits-1))
	s.stamp.Store(c + 1)
}

// Now reads core.Monotonic once and returns it as a recorder timestamp,
// for pairing with RecordAt.
func (r *Ring) Now() int64 {
	return r.TS(core.Monotonic())
}

// TS converts a core.Monotonic reading into a recorder timestamp —
// nanoseconds since the recorder's epoch — without reading the clock.
func (r *Ring) TS(mono int64) int64 {
	return mono - r.epoch
}

// Snapshot appends every currently valid event to dst, oldest first, and
// returns the result. Events overwritten while the snapshot runs are
// skipped (never returned torn); the snapshot is a best-effort recent
// window, not a barrier.
func (r *Ring) Snapshot(dst []Event) []Event {
	cur := r.cursor.Load()
	n := uint64(len(r.slots))
	start := uint64(0)
	if cur > n {
		start = cur - n
	}
	for c := start; c < cur; c++ {
		s := &r.slots[c&r.mask]
		want := c + 1
		if s.stamp.Load() != want {
			continue // overwritten (or, for the newest slot, mid-write)
		}
		ev := Event{
			Seq:   c,
			TS:    s.ts.Load(),
			Req:   s.req.Load(),
			Shard: r.shard,
		}
		ka := s.ka.Load()
		ev.Kind = Kind(ka >> argBits)
		ev.Arg = ka & (1<<argBits - 1)
		if s.stamp.Load() != want {
			continue // torn: a writer lapped us mid-copy
		}
		dst = append(dst, ev)
	}
	return dst
}

// EventsFor returns the valid events carrying the given request id,
// oldest first.
func (r *Ring) EventsFor(req uint64) []Event {
	if req == 0 {
		return nil
	}
	all := r.Snapshot(nil)
	out := all[:0]
	for _, ev := range all {
		if ev.Req == req {
			out = append(out, ev)
		}
	}
	return out
}

// Recorder is a set of per-shard rings sharing one epoch, so timestamps
// compare across shards.
type Recorder struct {
	epoch int64
	rings []*Ring
}

// DefaultRingSize is the per-shard slot count when a Recorder is built
// with size 0: at 32 bytes a slot, 64 KiB per shard — roughly the last
// four hundred requests' worth of lifecycle at five events each.
const DefaultRingSize = 2048

// New builds a recorder with one ring per shard. size is rounded up to a
// power of two; 0 uses DefaultRingSize.
func New(shards, size int) *Recorder {
	if shards < 1 {
		shards = 1
	}
	if size <= 0 {
		size = DefaultRingSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	rec := &Recorder{epoch: core.Monotonic()}
	for i := 0; i < shards; i++ {
		rec.rings = append(rec.rings, &Ring{
			slots: make([]slot, n),
			mask:  uint64(n - 1),
			shard: i,
			epoch: rec.epoch,
		})
	}
	return rec
}

// Ring returns shard i's ring.
func (rec *Recorder) Ring(i int) *Ring { return rec.rings[i] }

// Shards returns the number of rings.
func (rec *Recorder) Shards() int { return len(rec.rings) }

// Epoch returns the core.Monotonic reading recorder timestamps count
// from.
func (rec *Recorder) Epoch() int64 { return rec.epoch }

// Events snapshots every shard's ring, merged oldest-timestamp first.
func (rec *Recorder) Events() []Event {
	var out []Event
	for _, r := range rec.rings {
		out = r.Snapshot(out)
	}
	// Insertion sort by timestamp: per-ring runs are already ordered and
	// snapshots are small, so this beats dragging in sort for the rare
	// cross-shard merge.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].TS < out[j-1].TS; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
