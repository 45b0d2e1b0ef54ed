package memory

import (
	"repro/internal/cache"
	"repro/internal/fpa"
	"repro/internal/word"
)

// This file implements deep cloning of the memory system, the foundation
// of the machine snapshot facility: a compiled and loaded image is built
// once and cloned into N independent machines instead of being re-compiled
// and re-loaded per machine.

// SegMap maps segments of a cloned space's source to their clones, so
// callers (descriptor tables, free lists, method indexes) can rewrite
// their own segment pointers. The mapping is an O(1) slice lookup through
// the position-stable segment id.
type SegMap struct {
	arena []Segment
}

// Of returns the clone of a source segment; nil maps to nil.
func (sm SegMap) Of(seg *Segment) *Segment {
	if seg == nil {
		return nil
	}
	return &sm.arena[seg.id]
}

// Clone returns an independent deep copy of absolute space together with
// the segment map callers use to rewrite their own segment pointers.
//
// The clone is a bulk operation: each slab is copied with
// one allocation and one memcpy, the dense page table and window index are
// copied verbatim (segment ids are position-stable across the clone), and
// the segment headers are rebuilt into one contiguous array whose entries
// re-point their Data at the cloned slabs by offset — no per-segment
// allocation, no pointer-map probes.
func (s *Space) Clone() (*Space, SegMap) {
	// The page table's doubling slack past the base high-water mark is
	// all zeros; the clone re-grows on demand instead of copying it.
	hw := uint64(s.nextBase)
	if hw > uint64(len(s.table)) {
		hw = uint64(len(s.table))
	}
	ns := &Space{
		windows:   append([]int32(nil), s.windows...),
		table:     append([]int32(nil), s.table[:hw]...),
		live:      s.live,
		orderDead: s.orderDead,
		nextBase:  s.nextBase,
		Stats:     s.Stats,
	}
	ns.slabs = make([]slab, len(s.slabs))
	for i, sl := range s.slabs {
		// Words at or past nextBase were never carved, so they are still
		// zero in the source; only the used prefix needs the memcpy. A
		// fully used slab goes through append, which skips the redundant
		// pre-zeroing make would do (word.Word is pointer-free).
		used := uint64(len(sl.data))
		if end := sl.base + AbsAddr(len(sl.data)); s.nextBase < end {
			if s.nextBase <= sl.base {
				used = 0
			} else {
				used = uint64(s.nextBase - sl.base)
			}
		}
		var data []word.Word
		if used == uint64(len(sl.data)) {
			data = append([]word.Word(nil), sl.data...)
		} else {
			data = make([]word.Word, len(sl.data))
			copy(data, sl.data[:used])
		}
		ns.slabs[i] = slab{base: sl.base, data: data}
	}
	// Segment headers: the source's arena (laid down when it was itself
	// cloned — a snapshot's space always was) is copied with one bulk
	// copy; only post-clone stragglers need chasing. Ids are positions,
	// so the whole arena lands in the clone with identity preserved.
	arr := make([]Segment, s.numSegs())
	copy(arr, s.headers)
	for i, seg := range s.extra {
		arr[len(s.headers)+i] = *seg
	}
	// Re-point every header's Data at the cloned slab, by offset.
	for i := range arr {
		cp := &arr[i]
		sl := &ns.slabs[cp.slab]
		off := uint64(cp.Base - sl.base)
		cp.Data = sl.data[off : off+uint64(len(cp.Data)) : off+uint64(cap(cp.Data))]
	}
	ns.headers = arr
	ns.compacted = s.compacted
	if s.compacted {
		ns.order = make([]*Segment, len(s.order))
		for i, seg := range s.order {
			ns.order[i] = &arr[seg.id]
		}
	}
	for cls, list := range s.free {
		if len(list) == 0 {
			continue
		}
		nl := make([]*Segment, len(list))
		for i, seg := range list {
			nl[i] = &arr[seg.id]
		}
		ns.free[cls] = nl
	}
	return ns, SegMap{arena: arr}
}

// Clone returns an independent copy of the team space over the given
// cloned absolute space. Descriptors are deep-copied (preserving aliasing:
// a descriptor shared by several names stays shared in the clone) and
// rewired through segMap; the ATLB starts cold, since its cached
// descriptor pointers belong to the source machine and rewarming costs
// only a handful of table walks.
func (t *Team) Clone(space *Space, segMap SegMap) *Team {
	nt := &Team{
		SN:      t.SN,
		Format:  t.Format,
		table:   make(map[fpa.SegKey]*Descriptor, len(t.table)),
		atlb:    cache.New[*Descriptor](t.atlb.Config()),
		space:   space,
		Stats:   t.Stats,
		nextSeg: make(map[uint8]uint64, len(t.nextSeg)),
		bySeg:   make(map[*Segment][]fpa.SegKey, len(t.bySeg)),
	}
	for exp, num := range t.nextSeg {
		nt.nextSeg[exp] = num
	}
	descMap := make(map[*Descriptor]*Descriptor, len(t.table))
	for key, d := range t.table {
		nd, ok := descMap[d]
		if !ok {
			nd = &Descriptor{Seg: segMap.Of(d.Seg), Length: d.Length, Class: d.Class, Rights: d.Rights}
			if d.Forward != nil {
				fwd := *d.Forward
				nd.Forward = &fwd
			}
			descMap[d] = nd
		}
		nt.table[key] = nd
	}
	for seg, keys := range t.bySeg {
		nt.bySeg[segMap.Of(seg)] = append([]fpa.SegKey(nil), keys...)
	}
	return nt
}

// Clone returns an independent copy of the hierarchy with every level's
// residency state and statistics intact, so a cloned machine pays the same
// physical-space costs it would have paid on the original.
func (h *Hierarchy) Clone() *Hierarchy {
	nh := &Hierarchy{Stats: h.Stats}
	for _, lv := range h.levels {
		nh.levels = append(nh.levels, &hlevel{Level: lv.Level, shift: lv.shift, c: lv.c.Clone(nil)})
	}
	return nh
}
