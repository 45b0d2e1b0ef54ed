package context

import (
	"strings"
	"testing"

	"repro/internal/memory"
	"repro/internal/word"
)

// TestImportFreeListRejectsBadPooledSegments pins the hardening: pooled
// contexts must be live, context-kinded and context-sized — anything else
// handed out by Alloc would alias another allocation or break the frame
// layout.
func TestImportFreeListRejectsBadPooledSegments(t *testing.T) {
	space := memory.NewSpace()
	obj := space.Alloc(32, 0, memory.KindObject) // right size, wrong kind
	ctx := space.Alloc(32, word.Class(7), memory.KindContext)
	space.Free(ctx) // space-freed: also on the space's own free list

	for name, id := range map[string]int32{
		"object-kinded": space.SegIndex(obj),
		"space-freed":   space.SegIndex(ctx),
	} {
		st := &FreeListState{Free: []int32{id}}
		if _, err := ImportFreeList(st, space, 32, word.Class(7)); err == nil || !strings.Contains(err.Error(), "live") {
			t.Fatalf("%s segment pooled: %v", name, err)
		}
	}
}

// TestFreeListPooledFlag pins free-list membership, which lives on the
// segments' Pooled flag: a second Free is ignored, membership survives a
// snapshot clone and an export/import round trip of space and list, and
// Alloc clears it when it pops the segment.
func TestFreeListPooledFlag(t *testing.T) {
	space, fl, _ := newRig(8)
	a, b := fl.Alloc(), fl.Alloc()
	fl.Free(a)
	fl.Free(b)
	fl.Free(a) // double free: ignored
	if fl.Len() != 2 || fl.Frees != 2 || fl.MemoryRefs != 4 {
		t.Fatalf("after a double free: len %d, frees %d, refs %d; want 2, 2, 4", fl.Len(), fl.Frees, fl.MemoryRefs)
	}

	cspace, segMap := space.Clone()
	cfl := fl.Clone(cspace, segMap)

	sst, err := space.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	fst, err := fl.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	ispace, err := memory.ImportSpace(sst)
	if err != nil {
		t.Fatal(err)
	}
	ifl, err := ImportFreeList(fst, ispace, DefaultWords, 50)
	if err != nil {
		t.Fatal(err)
	}
	ia, _ := ispace.SegAt(space.SegIndex(a))
	ib, _ := ispace.SegAt(space.SegIndex(b))

	// The clone and the import pop first: the source must not see it.
	for _, c := range []struct {
		name string
		fl   *FreeList
		a, b *memory.Segment
	}{
		{"clone", cfl, segMap.Of(a), segMap.Of(b)},
		{"imported", ifl, ia, ib},
		{"source", fl, a, b},
	} {
		if !c.fl.Contains(c.a) || !c.fl.Contains(c.b) {
			t.Fatalf("%s: pooled segments not contained", c.name)
		}
		if got := c.fl.Alloc(); got != c.b {
			t.Fatalf("%s: Alloc popped %p, want the last freed %p", c.name, got, c.b)
		}
		if c.fl.Contains(c.b) || !c.fl.Contains(c.a) {
			t.Fatalf("%s: after Alloc, contains popped %v, still-pooled %v", c.name, c.fl.Contains(c.b), c.fl.Contains(c.a))
		}
	}
}

// TestImportFreeListRejectsDoublePooling: a state naming one segment twice
// would hand the same context out twice.
func TestImportFreeListRejectsDoublePooling(t *testing.T) {
	space := memory.NewSpace()
	id := space.SegIndex(space.Alloc(32, word.Class(7), memory.KindContext))
	st := &FreeListState{Free: []int32{id, id}}
	if _, err := ImportFreeList(st, space, 32, word.Class(7)); err == nil || !strings.Contains(err.Error(), "pooled twice") {
		t.Fatalf("segment pooled twice: %v", err)
	}
}
