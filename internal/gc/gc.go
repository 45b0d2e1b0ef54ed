// Package gc implements garbage collection over absolute space — the
// level the paper assigns it to ("All object management, for example
// garbage collection, is performed in absolute space", §3.1) — plus the
// context recycling policy of §2.3: LIFO contexts are freed eagerly on
// return by the machine itself, and the collector reclaims only the
// non-LIFO residue, which is what keeps the paper's one-third-of-runtime
// collection cost off the common path.
//
// Collection is mark–sweep with an incremental sweep: Start runs the mark
// phase and snapshots the live-segment list, then Step retires the
// snapshot in bounded slices, so a serving shard spreads the sweep across
// requests instead of pausing for a full-heap walk. The mutator may run
// between steps: segments it allocates are born marked (allocate-black,
// see memory.Space.SetGCActive) and segments it frees are skipped by the
// sweep, so an interleaved cycle reclaims exactly what a stop-the-world
// cycle started at the same moment would have. A serving shard paces the
// sweep by Baker's allocation tax: each Step covers DefaultSweepChunk
// plus the segments the request before it allocated. Collect runs a whole
// cycle in one call.
package gc

import (
	"repro/internal/memory"
	"repro/internal/word"
)

// Heap is what the collector needs from a machine. core.Machine implements
// it; tests may substitute smaller fixtures.
type Heap interface {
	// AbsSpace is the absolute space being collected.
	AbsSpace() *memory.Space
	// Roots returns the absolute base addresses of all root objects:
	// active contexts, class objects, and anything the host holds.
	Roots() []memory.AbsAddr
	// ResolvePointer maps a pointer word to the base of the segment it
	// names, following growth forwarding. The bool reports success;
	// dangling pointers resolve to false and are ignored by marking.
	ResolvePointer(w word.Word) (memory.AbsAddr, bool)
	// Writeback flushes cached context blocks so segment data is
	// coherent before the mark phase scans it.
	Writeback()
	// RecycleContext returns a dead context segment to the free list.
	RecycleContext(seg *memory.Segment)
	// ReleaseObject frees a dead object segment and unbinds its names.
	ReleaseObject(seg *memory.Segment)
	// IsContextFree reports whether a context segment is already on the
	// free list (free contexts are dead by definition but must not be
	// recycled twice).
	IsContextFree(seg *memory.Segment) bool
}

// Stats reports one collection cycle. During an incremental cycle the
// counters accumulate as Step retires sweep slices.
type Stats struct {
	Marked           int
	SweptObjects     int
	RecycledContexts int
	Live             int
}

// DefaultSweepChunk is the untaxed part of a serving shard's sweep slice:
// about one slab's worth of context-sized segments.
const DefaultSweepChunk = memory.SlabWords / 32

// Collector runs mark–sweep cycles with an incremental sweep. The zero
// value is ready; a Collector is single-owner (the goroutine driving the
// machine) and must not be shared.
type Collector struct {
	h      Heap
	sweep  []*memory.Segment
	cursor int
	cur    Stats
	active bool

	mark []memory.AbsAddr // mark-stack buffer, reused across cycles

	// Cycles counts completed collection cycles.
	Cycles uint64
}

// Active reports whether a cycle is in progress (mark done, sweep pending).
func (c *Collector) Active() bool { return c.active }

// Remaining returns the number of segments still pending in the active
// cycle's sweep, 0 when no cycle is in progress — the payload of a
// flight-recorder gc_end event.
func (c *Collector) Remaining() int {
	if !c.active {
		return 0
	}
	return len(c.sweep) - c.cursor
}

// Start writes back the context cache, runs the mark phase, and arms the
// incremental sweep over a snapshot of the live-segment list. The heap's
// space is flipped to allocate-black until the sweep completes.
func (c *Collector) Start(h Heap) {
	c.h = h
	h.Writeback()
	space := h.AbsSpace()

	// Clear marks.
	space.Live(func(seg *memory.Segment) { seg.Mark = false })

	// Mark from roots.
	stack := c.mark[:0]
	stack = append(stack, h.Roots()...)
	marked := 0
	for len(stack) > 0 {
		base := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		seg, ok := space.ByBase(base)
		if !ok || seg.Mark {
			continue
		}
		seg.Mark = true
		marked++
		for _, w := range seg.Data {
			if w.Tag != word.TagPointer {
				continue
			}
			if tgt, ok := h.ResolvePointer(w); ok {
				stack = append(stack, tgt)
			}
		}
	}
	c.mark = stack[:0]

	c.cur = Stats{Marked: marked}
	c.sweep = space.AppendLive(c.sweep[:0])
	c.cursor = 0
	space.SetGCActive(true)
	c.active = true
}

// Step retires up to n segments of the pending sweep (all of them when
// n <= 0) and reports the cycle's statistics so far plus whether it
// completed. Unmarked objects are freed; unmarked contexts not already on
// the free list are recycled to it (the non-LIFO residue). Segments the
// mutator freed since the mark phase are skipped.
func (c *Collector) Step(n int) (Stats, bool) {
	if !c.active {
		return c.cur, true
	}
	end := len(c.sweep)
	if n > 0 && c.cursor+n < end {
		end = c.cursor + n
	}
	h := c.h
	for _, seg := range c.sweep[c.cursor:end] {
		if seg.Freed {
			continue
		}
		if seg.Mark {
			c.cur.Live++
			continue
		}
		switch seg.Kind {
		case memory.KindObject:
			h.ReleaseObject(seg)
			c.cur.SweptObjects++
		case memory.KindContext:
			if !h.IsContextFree(seg) {
				h.RecycleContext(seg)
				c.cur.RecycledContexts++
			} else {
				c.cur.Live++ // pooled, not garbage
			}
		default:
			// Methods and tables are immortal.
			c.cur.Live++
		}
	}
	c.cursor = end
	if c.cursor < len(c.sweep) {
		return c.cur, false
	}
	for i := range c.sweep {
		c.sweep[i] = nil // don't pin dead segments until the next cycle
	}
	c.sweep = c.sweep[:0]
	h.AbsSpace().SetGCActive(false)
	c.active = false
	c.Cycles++
	return c.cur, true
}

// Collect runs a full mark–sweep collection in one call.
func Collect(h Heap) Stats {
	var c Collector
	c.Start(h)
	st, _ := c.Step(0)
	return st
}
