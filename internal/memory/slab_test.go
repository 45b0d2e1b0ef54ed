package memory

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fpa"
	"repro/internal/word"
)

// The slab allocator must hand out the base addresses, in the reuse order
// and with the statistics, that the map-backed allocator it replaced did.
// These tests drive it through the fixture's sequences and compare, plus
// cover the slab machinery itself (dedicated slabs, page-table growth,
// scan-list compaction, export and import).

// step is one allocator operation in a generated sequence: allocate a
// segment of Size words, or free the (Index mod live)th live segment.
type step struct {
	Size  uint16
	Kind  uint8
	Free  bool
	Index uint8
}

func drive(s *Space, steps []step) []AbsAddr {
	var live []*Segment
	var bases []AbsAddr
	for _, st := range steps {
		if st.Free && len(live) > 0 {
			i := int(st.Index) % len(live)
			s.Free(live[i])
			live = append(live[:i], live[i+1:]...)
			continue
		}
		size := uint64(st.Size%2048) + 1
		seg := s.Alloc(size, 0, Kind(st.Kind%uint8(NumKinds)))
		live = append(live, seg)
		bases = append(bases, seg.Base)
	}
	return bases
}

// driveGoldenPath pins what drive() observes for a fixed set of seeded
// step sequences — every base address handed out, the AllocStats and the
// live count — plus the tail an imported space produces after a fixed
// history. It was generated while the map-backed allocator the slab one
// replaced still existed and matched it exactly, so it is the reference
// the slab allocator answers to. Regenerate only on a deliberate allocator change:
//
//	go test ./internal/memory -run TestSlabLegacyBaseParity -update
const driveGoldenPath = "testdata/drive.golden.json"

var update = flag.Bool("update", false, "regenerate testdata/drive.golden.json")

// driveRun is what one drive() call leaves behind.
type driveRun struct {
	Bases []AbsAddr  `json:"bases"`
	Stats AllocStats `json:"stats"`
	Live  int        `json:"live"`
}

// driveRow is one seeded sequence's fixture entry.
type driveRow struct {
	Seed int64 `json:"seed"`
	driveRun
}

type driveFixture struct {
	Sequences []driveRow `json:"sequences"`
	// CloneTail is cloneTail run on a space imported from the exported
	// state of a space that ran cloneHistory.
	CloneTail driveRun `json:"clone_tail"`
}

// driveSeeds is how many seeded sequences the fixture holds.
const driveSeeds = 60

// seededSteps returns the step sequence for one seed: up to 63 steps,
// one in three a free, kinds drawn across their whole range and sizes
// half from the whole range, half small, so many size classes recycle.
func seededSteps(seed int64) []step {
	r := rand.New(rand.NewSource(seed))
	steps := make([]step, r.Intn(64))
	for i := range steps {
		size := r.Intn(1 << 16)
		if r.Intn(2) == 0 {
			size = r.Intn(64)
		}
		steps[i] = step{
			Size:  uint16(size),
			Kind:  uint8(r.Intn(1 << 8)),
			Free:  r.Intn(3) == 0,
			Index: uint8(r.Intn(1 << 8)),
		}
	}
	return steps
}

// runSteps drives a space and collects what the fixture records.
func runSteps(s *Space, steps []step) driveRun {
	bases := drive(s, steps)
	return driveRun{Bases: bases, Stats: s.Stats, Live: s.LiveCount()}
}

var (
	cloneHistory = []step{
		{Size: 31}, {Size: 8}, {Size: 8}, {Free: true, Index: 1},
		{Size: 700}, {Free: true, Index: 0}, {Size: 31}, {Size: 2047},
	}
	cloneTail = []step{{Size: 8}, {Size: 31}, {Free: true, Index: 0}, {Size: 30}, {Size: 500}}
)

// buildDriveFixture runs every fixture sequence on fresh spaces.
func buildDriveFixture() driveFixture {
	var f driveFixture
	for seed := int64(1); seed <= driveSeeds; seed++ {
		f.Sequences = append(f.Sequences, driveRow{Seed: seed, driveRun: runSteps(NewSpace(), seededSteps(seed))})
	}
	s := NewSpace()
	drive(s, cloneHistory)
	f.CloneTail = runSteps(reimport(s), cloneTail)
	return f
}

// reimport rebuilds a space from its exported state, as every stamped
// machine's space is built.
func reimport(s *Space) *Space {
	ns, err := ImportSpace(s.ExportState())
	if err != nil {
		panic(err)
	}
	return ns
}

// loadDriveFixture reads the fixture, first rewriting it under -update.
func loadDriveFixture(t *testing.T) driveFixture {
	t.Helper()
	if *update {
		buf, err := json.MarshalIndent(buildDriveFixture(), "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(driveGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(driveGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(driveGoldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/memory -run TestSlabLegacyBaseParity -update` to create it)", err)
	}
	var f driveFixture
	if err := json.Unmarshal(buf, &f); err != nil {
		t.Fatalf("fixture unreadable: %v", err)
	}
	if len(f.Sequences) != driveSeeds {
		t.Fatalf("fixture has %d sequences, want %d", len(f.Sequences), driveSeeds)
	}
	return f
}

// diffBases reports the first base address that differs from the fixture.
func diffBases(t *testing.T, what string, want, got []AbsAddr) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d allocations, fixture has %d", what, len(got), len(want))
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: alloc %d at base %#x, fixture %#x", what, i, got[i], want[i])
			return
		}
	}
}

// TestSlabLegacyBaseParity: the slab allocator hands out exactly the base
// addresses the map-backed allocator did, in the same order, for every
// fixture sequence.
func TestSlabLegacyBaseParity(t *testing.T) {
	for _, row := range loadDriveFixture(t).Sequences {
		got := drive(NewSpace(), seededSteps(row.Seed))
		diffBases(t, fmt.Sprintf("seed %d", row.Seed), row.Bases, got)
	}
}

// TestSlabLegacyStatsParity: after every fixture sequence the slab
// allocator's AllocStats and live count are the map-backed allocator's.
func TestSlabLegacyStatsParity(t *testing.T) {
	for _, row := range loadDriveFixture(t).Sequences {
		got := runSteps(NewSpace(), seededSteps(row.Seed))
		if got.Stats != row.Stats {
			t.Errorf("seed %d: stats diverge:\n fixture %+v\n now     %+v", row.Seed, row.Stats, got.Stats)
		}
		if got.Live != row.Live {
			t.Errorf("seed %d: live count %d, fixture %d", row.Seed, got.Live, row.Live)
		}
	}
}

func TestSizeClassRecycling(t *testing.T) {
	s := NewSpace()
	// Two size classes; frees recycle LIFO within a class and never
	// across classes.
	a1 := s.Alloc(8, 0, KindObject)
	a2 := s.Alloc(8, 0, KindObject)
	b1 := s.Alloc(100, 0, KindObject) // class 128
	s.Free(a1)
	s.Free(a2)
	s.Free(b1)
	if got := s.Alloc(7, 0, KindObject); got.Base != a2.Base {
		t.Fatalf("reuse not LIFO: got %#x, want %#x", got.Base, a2.Base)
	}
	if got := s.Alloc(5, 0, KindObject); got.Base != a1.Base {
		t.Fatalf("second pop = %#x, want %#x", got.Base, a1.Base)
	}
	if got := s.Alloc(65, 0, KindObject); got.Base != b1.Base {
		t.Fatalf("large class pop = %#x, want %#x", got.Base, b1.Base)
	}
	// The classes are now empty: the next allocation carves fresh space.
	if got := s.Alloc(8, 0, KindObject); got.Base == a1.Base || got.Base == a2.Base {
		t.Fatalf("empty free list handed out a stale segment at %#x", got.Base)
	}
}

func TestSegmentsShareSlabs(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(8, 0, KindObject)
	b := s.Alloc(8, 0, KindObject)
	if len(s.slabs) != 1 {
		t.Fatalf("two small segments built %d slabs, want 1", len(s.slabs))
	}
	if a.slab != 0 || b.slab != 0 {
		t.Fatalf("slab indexes %d, %d, want 0, 0", a.slab, b.slab)
	}
	// Fill past the slab boundary: a second slab appears and addressing
	// stays correct across it.
	var last *Segment
	for allocated := uint64(16); allocated < SlabWords+1024; allocated += 1024 {
		last = s.Alloc(1024, 0, KindObject)
	}
	if len(s.slabs) != 2 {
		t.Fatalf("crossing the slab boundary built %d slabs, want 2", len(s.slabs))
	}
	if last.slab != 1 {
		t.Fatalf("last segment on slab %d, want 1", last.slab)
	}
	last.Data[0] = word.FromInt(7)
	if seg, ok := s.ByBase(last.Base); !ok || seg != last || seg.Data[0] != word.FromInt(7) {
		t.Fatal("ByBase broken across slab boundary")
	}
}

func TestHugeSegmentDedicatedSlab(t *testing.T) {
	s := NewSpace()
	s.Alloc(8, 0, KindObject)
	huge := s.Alloc(SlabWords+5, 0, KindObject)
	if got := uint64(cap(huge.Data)); got != 2*SlabWords {
		t.Fatalf("huge cap = %d, want %d", got, 2*SlabWords)
	}
	if uint64(huge.Base)%(2*SlabWords) != 0 {
		t.Fatalf("huge segment base %#x not aligned to its rounded size", huge.Base)
	}
	sl := s.slabs[huge.slab]
	if sl.base != huge.Base || uint64(len(sl.data)) != 2*SlabWords {
		t.Fatalf("dedicated slab covers [%#x,+%d), want [%#x,+%d)", sl.base, len(sl.data), huge.Base, 2*SlabWords)
	}
	// Allocation continues past the dedicated slab.
	after := s.Alloc(8, 0, KindObject)
	if after.Base < huge.End() {
		t.Fatalf("post-huge segment at %#x overlaps the dedicated slab", after.Base)
	}
	if seg, ok := s.ByBase(after.Base); !ok || seg != after {
		t.Fatal("ByBase lost the post-huge segment")
	}
}

func TestGrowAcrossSlabBoundary(t *testing.T) {
	tm := NewTeam(1, fpa.COM32, NewSpace(), ATLBConfig{Entries: 16, Assoc: 2})
	addr, seg, err := tm.Alloc(64, 3, KindObject, RW)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seg.Data {
		seg.Data[i] = word.FromInt(int32(i))
	}
	// Grow past SlabWords: the new segment lives on a dedicated slab,
	// the old name forwards, and the contents survived the move.
	newAddr, err := tm.Grow(addr, SlabWords+100)
	if err != nil {
		t.Fatal(err)
	}
	at63, _ := newAddr.WithOffset(63)
	nseg, off, _, fault := tm.Translate(at63, Read)
	if fault != nil {
		t.Fatal(fault)
	}
	if nseg.Data[off] != word.FromInt(63) {
		t.Fatalf("grow lost word 63: %v", nseg.Data[off])
	}
	// The fresh tail reads as uninitialised even with zero-fill elision.
	if !nseg.Data[SlabWords].IsUninit() {
		t.Fatalf("grown tail not uninitialised: %v", nseg.Data[SlabWords])
	}
	// The old name still aliases the new segment within its old bound.
	o1, _ := addr.WithOffset(1)
	oseg, ooff, _, fault := tm.Translate(o1, Read)
	if fault != nil {
		t.Fatal(fault)
	}
	if oseg != nseg || ooff != 1 {
		t.Fatal("old name does not alias the grown object")
	}
}

func TestScanListCompaction(t *testing.T) {
	s := NewSpace()
	segs := make([]*Segment, 0, 1024)
	for i := 0; i < 1024; i++ {
		segs = append(segs, s.Alloc(16, 0, KindObject))
	}
	if got := s.scanLen(); got != 1024 {
		t.Fatalf("scan list = %d, want 1024", got)
	}
	// Free most of them: the scan list compacts instead of walking dead
	// entries forever (the PR 2 leak).
	for _, seg := range segs[:1000] {
		s.Free(seg)
	}
	if got := s.scanLen(); got > 512 {
		t.Fatalf("scan list still %d entries after freeing 1000 of 1024", got)
	}
	n := 0
	s.Live(func(*Segment) { n++ })
	if n != 24 {
		t.Fatalf("Live visited %d, want 24", n)
	}
	// Recycling a compacted-out segment re-lists it.
	seg := s.Alloc(16, 0, KindObject)
	found := false
	s.Live(func(l *Segment) { found = found || l == seg })
	if !found {
		t.Fatal("recycled segment missing from the scan list")
	}
	// Compaction is deferred while a collection cycle is sweeping.
	s.SetGCActive(true)
	before := s.scanLen()
	for _, sg := range segs[1000:] {
		s.Free(sg)
	}
	if got := s.scanLen(); got != before {
		t.Fatalf("scan list compacted during GC: %d -> %d", before, got)
	}
	s.SetGCActive(false)
}

func TestAllocateBlackDuringGC(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(8, 0, KindObject)
	if a.Mark {
		t.Fatal("segment born marked outside a collection cycle")
	}
	s.SetGCActive(true)
	b := s.Alloc(8, 0, KindObject)
	if !b.Mark {
		t.Fatal("segment born unmarked during an active cycle")
	}
	s.Free(b)
	c := s.Alloc(8, 0, KindObject)
	if !c.Mark {
		t.Fatal("recycled segment born unmarked during an active cycle")
	}
	s.SetGCActive(false)
}

// TestSlabCloneIndependence: two spaces imported from one exported state
// share no storage with each other, with the state or with the source,
// and each carries the source's segments, free lists and page table.
// Words past the base high-water mark are never carved, so an import
// leaves them zero whatever the state holds there.
func TestSlabCloneIndependence(t *testing.T) {
	s := NewSpace()
	huge := s.Alloc(SlabWords+1, 0, KindObject)
	huge.Data[SlabWords] = word.FromInt(9)
	live := s.Alloc(40, 7, KindObject)
	live.Data[0] = word.FromInt(1)
	pooled := s.Alloc(16, 0, KindObject)
	s.Free(pooled)

	st := s.ExportState()
	last := len(st.Slabs) - 1
	tail := st.Slabs[last].Data
	tail[len(tail)-1] = word.FromInt(5) // past NextBase: never carved
	ns, err := ImportSpace(st)
	if err != nil {
		t.Fatal(err)
	}
	other, err := ImportSpace(st)
	if err != nil {
		t.Fatal(err)
	}
	if ns.LiveCount() != s.LiveCount() || ns.Stats != s.Stats {
		t.Fatalf("import counts diverge: %d/%d", ns.LiveCount(), s.LiveCount())
	}
	if !ns.slabs[last].data[len(tail)-1].IsUninit() {
		t.Fatal("import copied a word past the base high-water mark")
	}
	cl, ok := ns.ByBase(live.Base)
	if !ok || cl == live || cl.Data[0] != word.FromInt(1) {
		t.Fatal("import of live segment wrong")
	}
	if got, ok := ns.ByBase(huge.Base); !ok || got.Data[SlabWords] != word.FromInt(9) {
		t.Fatal("import of huge segment lost data")
	}
	// Mutating the source, one import or the other is invisible to the
	// rest and to the state.
	live.Data[0] = word.FromInt(2)
	if cl.Data[0] != word.FromInt(1) {
		t.Fatal("import shares backing store with the source")
	}
	cl.Data[1] = word.FromInt(3)
	if live.Data[1] == word.FromInt(3) {
		t.Fatal("source shares backing store with the import")
	}
	if oc, _ := other.ByBase(live.Base); oc.Data[0] != word.FromInt(1) || oc.Data[1] == word.FromInt(3) {
		t.Fatal("two imports of one state share backing store")
	}
	if w := st.Slabs[live.slab].Data[live.Base-st.Slabs[live.slab].Base+1]; w == word.FromInt(3) {
		t.Fatal("import shares backing store with the state")
	}
	// The free lists were carried over: every space recycles the same
	// pooled base, independently.
	ra, rb, rc := s.Alloc(16, 0, KindObject), ns.Alloc(16, 0, KindObject), other.Alloc(16, 0, KindObject)
	if ra.Base != pooled.Base || rb.Base != pooled.Base || rc.Base != pooled.Base {
		t.Fatalf("free lists not imported: %#x / %#x / %#x, want %#x", ra.Base, rb.Base, rc.Base, pooled.Base)
	}
}

func TestCloneParityBothPaths(t *testing.T) {
	// After a fixed history, a space imported from its exported state and
	// the space it was exported from must each go on exactly as the
	// fixture recorded: same future bases, same stats, same live count.
	want := loadDriveFixture(t).CloneTail
	s := NewSpace()
	drive(s, cloneHistory)
	c := reimport(s)
	for _, path := range []struct {
		name  string
		space *Space
	}{{"import", c}, {"source", s}} {
		got := runSteps(path.space, cloneTail)
		diffBases(t, path.name+" post-import", want.Bases, got.Bases)
		if got.Stats != want.Stats || got.Live != want.Live {
			t.Errorf("%s post-import: stats %+v live %d, fixture %+v live %d", path.name, got.Stats, got.Live, want.Stats, want.Live)
		}
	}
}
