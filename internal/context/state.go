package context

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/word"
)

// This file exposes the context free list as plain data for the
// persistent image codec. Pooled segments travel as position-stable
// segment ids of the exported space; the context cache itself never
// travels — Snapshot writes it back before export, and every imported
// machine's cache starts empty. Geometry is not state: the context size
// comes from core.Config and the context class from the image, both
// handed to ImportFreeList.

// FreeListState is the serialisable state of a context free list.
type FreeListState struct {
	Free       []int32 // pooled segment ids, LIFO order preserved
	Allocs     uint64
	Recycles   uint64
	Frees      uint64
	MemoryRefs uint64
}

// ExportState flattens the free list over its slab-backed space.
func (f *FreeList) ExportState() (*FreeListState, error) {
	st := &FreeListState{
		Free:       make([]int32, len(f.free)),
		Allocs:     f.Allocs,
		Recycles:   f.Recycles,
		Frees:      f.Frees,
		MemoryRefs: f.MemoryRefs,
	}
	for i, seg := range f.free {
		id := f.space.SegIndex(seg)
		if id < 0 {
			return nil, fmt.Errorf("context: pooled segment %d has no id", i)
		}
		st.Free[i] = id
	}
	return st, nil
}

// ImportFreeList rebuilds a free list of words-word contexts of the given
// class over an imported space.
func ImportFreeList(st *FreeListState, space *memory.Space, words int, class word.Class) (*FreeList, error) {
	f := NewFreeList(space, words, class)
	f.Allocs = st.Allocs
	f.Recycles = st.Recycles
	f.Frees = st.Frees
	f.MemoryRefs = st.MemoryRefs
	f.free = make([]*memory.Segment, len(st.Free))
	for i, id := range st.Free {
		seg, ok := space.SegAt(id)
		if !ok {
			return nil, fmt.Errorf("context: free list names segment %d", id)
		}
		if seg.Pooled {
			return nil, fmt.Errorf("context: segment %d pooled twice", id)
		}
		// Pooled contexts are live (never space-freed — that also keeps
		// them off the space's own free lists), context-kinded and
		// exactly context-sized; anything else handed out by Alloc would
		// alias another allocation or break the fixed frame layout.
		if seg.Freed || seg.Kind != memory.KindContext || int(seg.Size()) != words {
			return nil, fmt.Errorf("context: pooled segment %d is not a live %d-word context", id, words)
		}
		f.free[i] = seg
		seg.Pooled = true
	}
	return f, nil
}
