package memory

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/fpa"
	"repro/internal/word"
)

// exportedSpace builds a small slab space with live, freed and pooled
// segments and flattens it.
func exportedSpace(t *testing.T) *SpaceState {
	t.Helper()
	s := NewSpace()
	var dead []*Segment
	for i := 0; i < 64; i++ {
		seg := s.Alloc(32, word.Class(7), KindContext)
		if i%3 == 0 {
			dead = append(dead, seg)
		}
	}
	s.Alloc(8192, 0, KindObject) // a dedicated big slab spanning windows
	for _, seg := range dead {
		s.Free(seg)
	}
	st := s.ExportState()
	return st
}

func TestImportSpaceRoundTrip(t *testing.T) {
	st := exportedSpace(t)
	s, err := ImportSpace(st)
	if err != nil {
		t.Fatal(err)
	}
	// The imported space must keep allocating without panicking: recycle
	// from the free lists, then carve fresh segments past the high-water
	// mark (the paths a forged window index would blow up).
	for i := 0; i < 80; i++ {
		if seg := s.Alloc(32, word.Class(7), KindContext); seg == nil {
			t.Fatal("nil segment")
		}
	}
}

// TestImportSpaceRebuildsPageTable: the page table and both counts come
// from the segment headers, so no image can hide a live segment from
// ByBase (the collector's marking) or forge the live count. Both scan-list
// shapes are covered: implicit, and compacted with dead entries listed.
func TestImportSpaceRebuildsPageTable(t *testing.T) {
	implicit := NewSpace()
	compacted := NewSpace()
	for _, src := range []*Space{implicit, compacted} {
		var segs []*Segment
		for i := 0; i < 100; i++ {
			segs = append(segs, src.Alloc(16, word.Class(7), KindObject))
		}
		for i, seg := range segs {
			if i%3 == 0 || (src == compacted && i < 80) {
				src.Free(seg)
			}
		}
		if src == compacted {
			src.Alloc(16, word.Class(7), KindObject) // re-lists a compacted-out segment
			src.Free(segs[99])
		}
	}
	if implicit.compacted || !compacted.compacted || compacted.orderDead == 0 {
		t.Fatal("fixture needs an implicit list and a compacted one with dead entries")
	}
	for _, src := range []*Space{implicit, compacted} {
		st := src.ExportState()
		s, err := ImportSpace(st)
		if err != nil {
			t.Fatal(err)
		}
		for id, sg := range st.Segments {
			seg, ok := s.ByBase(sg.Base)
			if sg.Freed && ok {
				t.Errorf("freed segment %d resolves by base %#x", id, uint64(sg.Base))
			}
			if !sg.Freed && (!ok || s.SegIndex(seg) != int32(id)) {
				t.Errorf("live segment %d at base %#x does not resolve to itself", id, uint64(sg.Base))
			}
		}
		if s.LiveCount() != src.LiveCount() || s.orderDead != src.orderDead {
			t.Errorf("imported live %d, dead entries %d; want %d, %d", s.LiveCount(), s.orderDead, src.LiveCount(), src.orderDead)
		}
	}
}

// TestImportSpaceRejectsSharedBase: two live segments on one base would
// leave one of them out of the rebuilt page table, and a collection
// marking through ByBase would then sweep it while it is still reachable.
func TestImportSpaceRejectsSharedBase(t *testing.T) {
	st := exportedSpace(t)
	if st.Segments[1].Freed || st.Segments[2].Freed || st.Segments[1].Slab != st.Segments[2].Slab {
		t.Fatal("fixture needs two live segments in one slab")
	}
	st.Segments[2].Base = st.Segments[1].Base
	if _, err := ImportSpace(st); err == nil || !strings.Contains(err.Error(), "both live at base") {
		t.Fatalf("two live segments on one base imported: %v", err)
	}
}

// TestImportSpaceRejectsOverlap: two segments whose extents overlap at
// different bases would share backing words, so a write to one object
// would change another. Moving one live segment onto another's base + 16
// must fail the load; so must a freed segment over a live one, which
// would alias it once recycled.
func TestImportSpaceRejectsOverlap(t *testing.T) {
	for _, freed := range []bool{false, true} {
		st := overlappingSpace(t)
		st.Segments[2].Freed = freed
		if _, err := ImportSpace(st); err == nil || !strings.Contains(err.Error(), "overlaps segment") {
			t.Fatalf("freed=%v: overlapping segments imported: %v", freed, err)
		}
	}
}

// overlappingSpace returns exportedSpace with live segment 2 moved onto
// live segment 1's base + 16, inside segment 1's 32-word extent.
func overlappingSpace(t *testing.T) *SpaceState {
	t.Helper()
	st := exportedSpace(t)
	a, b := &st.Segments[1], &st.Segments[2]
	if a.Freed || b.Freed || a.Slab != b.Slab || a.Cap != 32 || b.Cap != 32 {
		t.Fatal("fixture needs two live 32-word segments in one slab")
	}
	b.Base = a.Base + 16
	return st
}

// TestImportSpaceRejectsBadSlabs pins the window index rebuilt from the
// slabs: a slab that is not window-aligned, that shares a window with
// another, or that sits far past what the slabs cover fails the load
// instead of corrupting the index the first allocation carves through,
// or ballooning it.
func TestImportSpaceRejectsBadSlabs(t *testing.T) {
	if st := exportedSpace(t); len(st.Slabs) != 2 || st.Slabs[1].Base != 2*SlabWords || len(st.Slabs[1].Data) != 2*SlabWords {
		t.Fatal("fixture needs a shared slab and a two-window dedicated slab at window 2")
	}
	for _, c := range []struct {
		name, want string
		edit       func(st *SpaceState)
	}{
		{"unaligned base", "not window-aligned", func(st *SpaceState) { st.Slabs[0].Base += 16 }},
		{"partial window", "not window-aligned", func(st *SpaceState) { st.Slabs[1].Data = st.Slabs[1].Data[:SlabWords+16] }},
		{"empty", "not window-aligned", func(st *SpaceState) { st.Slabs[0].Data = nil }},
		{"past the address space", "not window-aligned", func(st *SpaceState) { st.Slabs[1].Base = ^AbsAddr(0) - SlabWords + 1 }},
		{"shared window", "overlaps slab 0", func(st *SpaceState) { st.Slabs[1].Base = 0 }},
		{"far base", "span", func(st *SpaceState) { st.Slabs[1].Base = 1 << 40 }},
	} {
		st := exportedSpace(t)
		c.edit(st)
		if _, err := ImportSpace(st); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want %q", c.name, err, c.want)
		}
	}
}

// TestImportSpaceRebuildsWindows: the window index an import rebuilds is
// the one the exported space carved, the empty alignment gap before the
// dedicated slab included.
func TestImportSpaceRebuildsWindows(t *testing.T) {
	src := NewSpace()
	for i := 0; i < 64; i++ {
		src.Alloc(32, word.Class(7), KindContext)
	}
	src.Alloc(8192, 0, KindObject)
	st := src.ExportState()
	s, err := ImportSpace(st)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.windows, src.windows) || !slices.Equal(s.windows, []int32{1, 0, 2, 2}) {
		t.Fatalf("rebuilt windows %v, carved %v", s.windows, src.windows)
	}
}

// TestImportSpaceRejectsDoubledFreeEntry pins the hardening: a segment
// listed twice on the free lists would be handed to two allocations and
// alias their storage.
func TestImportSpaceRejectsDoubledFreeEntry(t *testing.T) {
	st := exportedSpace(t)
	if len(st.Free) == 0 || len(st.Free[0].IDs) == 0 {
		t.Fatal("fixture pooled no segments")
	}
	st.Free[0].IDs = append(st.Free[0].IDs, st.Free[0].IDs[0])
	if _, err := ImportSpace(st); err == nil || !strings.Contains(err.Error(), "pooled twice") {
		t.Fatalf("double-pooled segment imported: %v", err)
	}
}

// TestImportSpaceRejectsLowWaterMark pins the hardening: a forged
// allocation frontier below the carved extent would alias fresh
// allocations onto live segments (and zero-truncate them on import).
func TestImportSpaceRejectsLowWaterMark(t *testing.T) {
	st := exportedSpace(t)
	st.NextBase = 1
	if _, err := ImportSpace(st); err == nil || !strings.Contains(err.Error(), "high-water mark") {
		t.Fatalf("forged low NextBase imported: %v", err)
	}
}

// TestImportTeamRejectsOverlongDescriptor pins the hardening: a
// descriptor bound wider than its segment would bounds-check against the
// forged length and then panic indexing the real data.
func TestImportTeamRejectsOverlongDescriptor(t *testing.T) {
	space := NewSpace()
	team := NewTeam(1, fpa.COM32, space, ATLBConfig{})
	if _, _, err := team.Alloc(16, word.Class(7), KindObject, RWX); err != nil {
		t.Fatal(err)
	}
	st := team.ExportState()
	spaceState := space.ExportState()
	loaded, err := ImportSpace(spaceState)
	if err != nil {
		t.Fatal(err)
	}
	st.Descriptors[0].Length = 10000
	if _, err := ImportTeam(st, loaded, fpa.COM32, ATLBConfig{}); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("over-long descriptor imported: %v", err)
	}
}
