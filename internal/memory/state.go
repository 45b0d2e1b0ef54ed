package memory

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/cache"
	"repro/internal/fpa"
	"repro/internal/word"
)

// This file exposes the memory system as plain data for the persistent
// image codec: the slab-backed absolute space (slabs, segment-header
// arena, free lists, scan list), the team's descriptor table, and the
// physical-space hierarchy's replacement state. Geometry — the address
// format, the ATLB and the hierarchy levels — is not part of any state:
// the importers take it from the machine's configuration. Segments are
// referred to by their position-stable id, which ImportSpace preserves, so
// every layer above (descriptors, context free list) round-trips by index.
// Importers validate untrusted state and return errors — a corrupt or
// truncated image must fail loudly, never panic or build an incoherent
// machine.

// SegmentState is the serialisable header of one segment. Len and Cap are
// the segment's current and carved (power-of-two rounded) length; Slab
// indexes the slab backing its data.
type SegmentState struct {
	Base     AbsAddr
	Len      uint64
	Cap      uint64
	Class    word.Class
	Kind     Kind
	Mark     bool
	Freed    bool
	Captured bool
	Slab     int32
}

// SlabState is one slab of absolute-space backing store.
type SlabState struct {
	Base AbsAddr
	Data []word.Word
}

// FreeClassState is one size-class free list: the log2 of the rounded
// segment size plus the pooled segment ids in LIFO order.
type FreeClassState struct {
	SizeClass uint8
	IDs       []int32
}

// SpaceState is the serialisable state of a slab-backed Space. It holds
// no index: ImportSpace rebuilds the window index from the slabs' extents,
// and the page table, the live count and the scan list's dead-entry count
// from the segment headers.
type SpaceState struct {
	NextBase  AbsAddr
	Stats     AllocStats
	Compacted bool
	Slabs     []SlabState
	Segments  []SegmentState
	Free      []FreeClassState
	Order     []int32 // allocation-order scan list; nil until first compaction
}

// SegIndex returns the position-stable id of a segment — the index ImportSpace preserves. Layers above the space export
// their segment pointers through it.
func (s *Space) SegIndex(seg *Segment) int32 {
	if seg == nil {
		return -1
	}
	return seg.id
}

// SegAt returns the segment with the given position-stable id.
func (s *Space) SegAt(id int32) (*Segment, bool) {
	if id < 0 || int(id) >= s.numSegs() {
		return nil, false
	}
	return s.segByID(id), true
}

// ExportState flattens the space. A space mid-collection is refused
// because the sweeper's snapshot cannot travel.
func (s *Space) ExportState() (*SpaceState, error) {
	if s.gcActive {
		return nil, fmt.Errorf("memory: space has an incremental collection in progress")
	}
	st := &SpaceState{
		NextBase:  s.nextBase,
		Stats:     s.Stats,
		Compacted: s.compacted,
	}
	st.Slabs = make([]SlabState, len(s.slabs))
	for i, sl := range s.slabs {
		st.Slabs[i] = SlabState{Base: sl.base, Data: slices.Clone(sl.data)}
	}
	st.Segments = make([]SegmentState, s.numSegs())
	for id := 0; id < s.numSegs(); id++ {
		seg := s.segByID(int32(id))
		st.Segments[id] = SegmentState{
			Base:     seg.Base,
			Len:      uint64(len(seg.Data)),
			Cap:      uint64(cap(seg.Data)),
			Class:    seg.Class,
			Kind:     seg.Kind,
			Mark:     seg.Mark,
			Freed:    seg.Freed,
			Captured: seg.Captured,
			Slab:     seg.slab,
		}
	}
	for cls, list := range s.free {
		if len(list) == 0 {
			continue
		}
		ids := make([]int32, len(list))
		for i, seg := range list {
			ids[i] = seg.id
		}
		st.Free = append(st.Free, FreeClassState{SizeClass: uint8(cls), IDs: ids})
	}
	if s.compacted {
		st.Order = make([]int32, len(s.order))
		for i, seg := range s.order {
			st.Order[i] = seg.id
		}
	}
	return st, nil
}

// ImportSpace rebuilds a slab-backed space, validating every index so a
// corrupt image errors instead of panicking later. Segment ids are the
// positions of st.Segments, as ExportState wrote them. The window index is
// rebuilt from the slabs (see windowsOf). The page table is rebuilt from
// the live segment headers, sized to the highest live base, and two live
// segments on one base are refused; the live count and the scan list's
// dead-entry count are recounted the same way. The space takes ownership
// of the slab data — a SpaceState must not be imported twice or mutated
// afterwards; the image loader builds a fresh one per load and ExportState
// always returns freshly cloned arrays.
func ImportSpace(st *SpaceState) (*Space, error) {
	windows, err := windowsOf(st.Slabs)
	if err != nil {
		return nil, err
	}
	s := &Space{
		nextBase:  st.NextBase,
		Stats:     st.Stats,
		compacted: st.Compacted,
		windows:   windows,
	}
	s.slabs = make([]slab, len(st.Slabs))
	for i, sl := range st.Slabs {
		s.slabs[i] = slab{base: sl.Base, data: sl.Data}
	}
	// Fresh allocations grow the window index up to the base high-water
	// mark; an absurd mark would balloon it on the first Alloc.
	if uint64(st.NextBase)>>slabShift > uint64(len(windows)) {
		return nil, fmt.Errorf("memory: base high-water mark %#x beyond the %d-window index", uint64(st.NextBase), len(windows))
	}
	arr := make([]Segment, len(st.Segments))
	var maxEnd AbsAddr
	var tableLen AbsAddr
	for id, seg := range st.Segments {
		if end := seg.Base + AbsAddr(seg.Cap); end > maxEnd {
			maxEnd = end
		}
		if seg.Slab < 0 || int(seg.Slab) >= len(s.slabs) {
			return nil, fmt.Errorf("memory: segment %d names slab %d of %d", id, seg.Slab, len(s.slabs))
		}
		sl := &s.slabs[seg.Slab]
		if seg.Base < sl.base {
			return nil, fmt.Errorf("memory: segment %d base %#x before slab base %#x", id, uint64(seg.Base), uint64(sl.base))
		}
		off := uint64(seg.Base - sl.base)
		if seg.Len > seg.Cap || seg.Cap > uint64(len(sl.data)) || off > uint64(len(sl.data))-seg.Cap {
			return nil, fmt.Errorf("memory: segment %d spans [%d,+%d/%d] outside its %d-word slab", id, off, seg.Len, seg.Cap, len(sl.data))
		}
		if !seg.Freed && seg.Base >= tableLen {
			tableLen = seg.Base + 1
		}
		arr[id] = Segment{
			Base:     seg.Base,
			Data:     sl.data[off : off+seg.Len : off+seg.Cap],
			Class:    seg.Class,
			Kind:     seg.Kind,
			Mark:     seg.Mark,
			Freed:    seg.Freed,
			Captured: seg.Captured,
			id:       int32(id),
			slab:     seg.Slab,
			inOrder:  !st.Compacted, // listed implicitly until first compaction
		}
	}
	// The allocation frontier must clear every carved segment: a forged
	// low NextBase would make the allocator carve fresh segments on top
	// of live ones, and Clone treats words at or past it as never carved
	// (zero-truncating live data in every stamped worker).
	if st.NextBase < maxEnd {
		return nil, fmt.Errorf("memory: base high-water mark %#x below segment extent %#x", uint64(st.NextBase), uint64(maxEnd))
	}
	s.headers = arr
	s.table = make([]int32, tableLen)
	for id := range arr {
		seg := &arr[id]
		if seg.Freed {
			continue
		}
		if prev := s.table[seg.Base]; prev != 0 {
			return nil, fmt.Errorf("memory: segments %d and %d both live at base %#x", prev-1, id, uint64(seg.Base))
		}
		s.table[seg.Base] = int32(id) + 1
		s.live++
	}
	// Every extent [Base, Base+Cap), freed ones included, owns its words:
	// two that overlap would alias storage — a write to one live object
	// changing another, or a freed segment handing a live one's words out
	// again when it is recycled. Walked in base order, an extent must
	// start at or past the furthest end seen so far.
	ids := make([]int32, len(arr))
	for id := range ids {
		ids[id] = int32(id)
	}
	slices.SortFunc(ids, func(a, b int32) int {
		if c := cmp.Compare(arr[a].Base, arr[b].Base); c != 0 {
			return c
		}
		return cmp.Compare(cap(arr[a].Data), cap(arr[b].Data))
	})
	var reach AbsAddr
	reacher := int32(-1)
	for _, id := range ids {
		seg := &arr[id]
		if seg.Base < reach {
			return nil, fmt.Errorf("memory: segment %d at %#x overlaps segment %d, which runs to %#x", id, uint64(seg.Base), reacher, uint64(reach))
		}
		if end := seg.Base + AbsAddr(cap(seg.Data)); end > reach {
			reach, reacher = end, id
		}
	}
	pooled := make(map[int32]bool)
	for _, fc := range st.Free {
		if fc.SizeClass >= numFreeClasses {
			return nil, fmt.Errorf("memory: free size-class %d out of range", fc.SizeClass)
		}
		list := make([]*Segment, len(fc.IDs))
		for i, id := range fc.IDs {
			seg, ok := s.SegAt(id)
			if !ok {
				return nil, fmt.Errorf("memory: free list names segment %d of %d", id, len(arr))
			}
			if !seg.Freed {
				return nil, fmt.Errorf("memory: free list holds live segment %d", id)
			}
			// A double-listed segment would be popped twice and alias two
			// live objects onto one backing store.
			if pooled[id] {
				return nil, fmt.Errorf("memory: segment %d pooled twice", id)
			}
			pooled[id] = true
			if cls := bits.TrailingZeros64(pow2ceil(uint64(cap(seg.Data)))); cls != int(fc.SizeClass) {
				return nil, fmt.Errorf("memory: segment %d (class %d) on free list %d", id, cls, fc.SizeClass)
			}
			list[i] = seg
		}
		s.free[fc.SizeClass] = list
	}
	if st.Compacted {
		s.order = make([]*Segment, len(st.Order))
		for i, id := range st.Order {
			seg, ok := s.SegAt(id)
			if !ok {
				return nil, fmt.Errorf("memory: scan list names segment %d of %d", id, len(arr))
			}
			seg.inOrder = true
			s.order[i] = seg
			if seg.Freed {
				s.orderDead++
			}
		}
	} else if len(st.Order) != 0 {
		return nil, fmt.Errorf("memory: explicit scan list on an uncompacted space")
	} else {
		s.orderDead = len(arr) - s.live // the implicit list holds every segment
	}
	return s, nil
}

// windowsOf rebuilds the window index from the slabs' extents. A shared
// slab covers exactly one SlabWords window and a dedicated slab the whole
// windows its one segment spans, so a slab that is not window-aligned, or
// that shares a window with another, is refused. Carving leaves a window
// empty only in the alignment gap before a dedicated slab, which is
// shorter than that slab, so a space never spans more than twice the
// windows its slabs cover; a longer span is refused before the index is
// allocated, so forged slab bases cannot make the loader allocate an
// index larger than the slab data it was handed.
func windowsOf(slabs []SlabState) ([]int32, error) {
	var span, covered uint64
	for i, sl := range slabs {
		n := uint64(len(sl.Data))
		end := uint64(sl.Base) + n
		if uint64(sl.Base)%SlabWords != 0 || n == 0 || n%SlabWords != 0 || end < uint64(sl.Base) {
			return nil, fmt.Errorf("memory: slab %d [%#x,+%d) is not window-aligned", i, uint64(sl.Base), n)
		}
		span = max(span, end>>slabShift)
		covered += n >> slabShift
	}
	if span > 2*covered {
		return nil, fmt.Errorf("memory: slabs covering %d windows span %d", covered, span)
	}
	windows := make([]int32, span)
	for i, sl := range slabs {
		first := uint64(sl.Base) >> slabShift
		for w := first; w < first+uint64(len(sl.Data))>>slabShift; w++ {
			if prev := windows[w]; prev != 0 {
				return nil, fmt.Errorf("memory: slab %d overlaps slab %d at window %d", i, prev-1, w)
			}
			windows[w] = int32(i) + 1
		}
	}
	return windows, nil
}

// DescriptorState is one exported segment descriptor. Descriptors shared
// by several names (growth aliasing) are exported once and referenced by
// index, preserving the sharing. Seg is a segment id, -1 when nil.
type DescriptorState struct {
	Seg        int32
	Length     uint64
	Class      word.Class
	Rights     Rights
	HasForward bool
	Forward    fpa.Addr
}

// BindingState maps one virtual name to its descriptor index.
type BindingState struct {
	Key  fpa.SegKey
	Desc int32
}

// NextSegState records the next unused integer part at one exponent.
type NextSegState struct {
	Exp uint8
	Num uint64
}

// TeamState is the serialisable state of a team space. Neither the ATLB
// nor its geometry is exported: a snapshotted machine's ATLB is cold by
// construction (see Team.Clone), and ImportTeam takes the address format
// and the ATLB geometry from the machine's configuration.
type TeamState struct {
	SN          int
	Stats       TeamStats
	NextSeg     []NextSegState
	Descriptors []DescriptorState
	Bindings    []BindingState
}

// ExportState flattens the team's descriptor table. Bindings are sorted by
// key and descriptors numbered in first-reference order, so identical
// teams export identical state.
func (t *Team) ExportState() (*TeamState, error) {
	st := &TeamState{
		SN:    t.SN,
		Stats: t.Stats,
	}
	exps := make([]uint8, 0, len(t.nextSeg))
	for exp := range t.nextSeg {
		exps = append(exps, exp)
	}
	slices.Sort(exps)
	for _, exp := range exps {
		st.NextSeg = append(st.NextSeg, NextSegState{Exp: exp, Num: t.nextSeg[exp]})
	}
	keys := make([]fpa.SegKey, 0, len(t.table))
	for key := range t.table {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b fpa.SegKey) int {
		if a.Exp != b.Exp {
			return int(a.Exp) - int(b.Exp)
		}
		switch {
		case a.Num < b.Num:
			return -1
		case a.Num > b.Num:
			return 1
		}
		return 0
	})
	descID := make(map[*Descriptor]int32, len(t.table))
	for _, key := range keys {
		d := t.table[key]
		id, ok := descID[d]
		if !ok {
			id = int32(len(st.Descriptors))
			descID[d] = id
			ds := DescriptorState{Seg: t.space.SegIndex(d.Seg), Length: d.Length, Class: d.Class, Rights: d.Rights}
			if d.Forward != nil {
				ds.HasForward = true
				ds.Forward = *d.Forward
			}
			st.Descriptors = append(st.Descriptors, ds)
		}
		st.Bindings = append(st.Bindings, BindingState{Key: key, Desc: id})
	}
	return st, nil
}

// ImportTeam rebuilds a team over an imported space, with the address
// format and ATLB geometry of the machine's configuration, which the
// caller has validated. The ATLB starts cold, exactly as a cloned
// machine's does.
func ImportTeam(st *TeamState, space *Space, format fpa.Format, atlb ATLBConfig) (*Team, error) {
	t := NewTeam(st.SN, format, space, atlb)
	t.Stats = st.Stats
	for _, ns := range st.NextSeg {
		t.nextSeg[ns.Exp] = ns.Num
	}
	descs := make([]*Descriptor, len(st.Descriptors))
	for i, ds := range st.Descriptors {
		d := &Descriptor{Length: ds.Length, Class: ds.Class, Rights: ds.Rights}
		if ds.Seg >= 0 {
			seg, ok := space.SegAt(ds.Seg)
			if !ok {
				return nil, fmt.Errorf("memory: descriptor %d names segment %d", i, ds.Seg)
			}
			// Translate bounds offsets against Length and then indexes the
			// segment data without re-checking; an over-long descriptor
			// would turn the first in-bounds-by-Length access into a
			// panic. (Grow leaves old names with their old, shorter bound
			// on the wider segment, so ≤ is the honest invariant.)
			if ds.Length > seg.Size() {
				return nil, fmt.Errorf("memory: descriptor %d length %d exceeds its %d-word segment", i, ds.Length, seg.Size())
			}
			d.Seg = seg
		}
		if ds.HasForward {
			fwd := ds.Forward
			d.Forward = &fwd
		}
		descs[i] = d
	}
	for _, b := range st.Bindings {
		if b.Desc < 0 || int(b.Desc) >= len(descs) {
			return nil, fmt.Errorf("memory: binding %v names descriptor %d of %d", b.Key, b.Desc, len(descs))
		}
		if _, dup := t.table[b.Key]; dup {
			return nil, fmt.Errorf("memory: duplicate binding for %v", b.Key)
		}
		d := descs[b.Desc]
		t.table[b.Key] = d
		if d.Seg != nil {
			t.bySeg[d.Seg] = append(t.bySeg[d.Seg], b.Key)
		}
	}
	return t, nil
}

// HLevelState is one exported hierarchy level's residency cache
// replacement state; the level's geometry is the machine's configuration.
type HLevelState struct {
	Clock uint64
	Stats cache.Stats
	Lines []cache.LineState[struct{}]
}

// HierarchyState is the serialisable state of the physical-space
// hierarchy.
type HierarchyState struct {
	Stats  HierarchyStats
	Levels []HLevelState
}

// ExportState flattens the hierarchy with every level's residency state.
func (h *Hierarchy) ExportState() *HierarchyState {
	st := &HierarchyState{Stats: h.Stats}
	for _, lv := range h.levels {
		clock, lines := lv.c.Export()
		st.Levels = append(st.Levels, HLevelState{Clock: clock, Stats: lv.c.Stats, Lines: lines})
	}
	return st
}

// ImportHierarchy rebuilds the hierarchy over the configured levels, one
// state per level. The caller validates the levels' geometry (NewHierarchy
// would enforce it by panic).
func ImportHierarchy(st *HierarchyState, levels []Level) (*Hierarchy, error) {
	if len(st.Levels) != len(levels) {
		return nil, fmt.Errorf("memory: %d hierarchy level states for %d configured levels", len(st.Levels), len(levels))
	}
	h := &Hierarchy{Stats: st.Stats}
	for i, ls := range st.Levels {
		c, err := cache.Import(levels[i].cacheConfig(), ls.Stats, ls.Clock, ls.Lines, nil)
		if err != nil {
			return nil, fmt.Errorf("memory: level %d: %w", i, err)
		}
		h.levels = append(h.levels, newHLevel(levels[i], c))
	}
	return h, nil
}
