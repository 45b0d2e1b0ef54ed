package gc_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/object"
	"repro/internal/smalltalk"
	"repro/internal/word"
)

func newMachine(t *testing.T, src string) *core.Machine {
	t.Helper()
	m := core.New(core.Config{})
	if src != "" {
		c, err := smalltalk.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := smalltalk.LoadCOM(m, c); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestCollectEmptyMachine(t *testing.T) {
	m := newMachine(t, "")
	st := gc.Collect(m)
	if st.SweptObjects != 0 || st.RecycledContexts != 0 {
		t.Fatalf("empty machine swept things: %+v", st)
	}
	if st.Marked == 0 {
		t.Fatal("class objects not marked")
	}
}

func TestCollectFreesUnreachableObjects(t *testing.T) {
	m := newMachine(t, "")
	before := m.Space.LiveCount()
	for i := 0; i < 10; i++ {
		if _, err := m.Send(m.ClassPointer(m.Image.Array), "new:", word.FromInt(8)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Space.LiveCount() != before+10 {
		t.Fatalf("allocations missing: %d", m.Space.LiveCount())
	}
	st := gc.Collect(m)
	if st.SweptObjects != 10 {
		t.Fatalf("swept %d objects, want 10", st.SweptObjects)
	}
	if m.Space.LiveCount() != before {
		t.Fatalf("live count %d, want %d", m.Space.LiveCount(), before)
	}
}

func TestCollectKeepsRootedObjects(t *testing.T) {
	m := newMachine(t, "")
	arr, err := m.Send(m.ClassPointer(m.Image.Array), "new:", word.FromInt(8))
	if err != nil {
		t.Fatal(err)
	}
	m.AddRoot(arr)
	dead, _ := m.Send(m.ClassPointer(m.Image.Array), "new:", word.FromInt(8))
	_ = dead
	st := gc.Collect(m)
	if st.SweptObjects != 1 {
		t.Fatalf("swept %d, want only the unrooted array", st.SweptObjects)
	}
	// The rooted array is still usable.
	if _, err := m.Send(arr, "at:put:", word.FromInt(0), word.FromInt(5)); err != nil {
		t.Fatalf("rooted array died: %v", err)
	}
	m.ClearRoots()
	st = gc.Collect(m)
	if st.SweptObjects != 1 {
		t.Fatalf("swept %d after unrooting, want 1", st.SweptObjects)
	}
}

func TestCollectFollowsObjectGraph(t *testing.T) {
	m := newMachine(t, "")
	outer, _ := m.Send(m.ClassPointer(m.Image.Array), "new:", word.FromInt(4))
	inner, _ := m.Send(m.ClassPointer(m.Image.Array), "new:", word.FromInt(4))
	if _, err := m.Send(outer, "at:put:", word.FromInt(0), inner); err != nil {
		t.Fatal(err)
	}
	m.AddRoot(outer)
	st := gc.Collect(m)
	if st.SweptObjects != 0 {
		t.Fatalf("swept %d: inner object reachable through outer", st.SweptObjects)
	}
	got, err := m.Send(outer, "at:", word.FromInt(0))
	if err != nil || got != inner {
		t.Fatalf("graph broken after GC: %v %v", got, err)
	}
}

func TestDanglingAfterCollect(t *testing.T) {
	m := newMachine(t, "")
	dead, _ := m.Send(m.ClassPointer(m.Image.Array), "new:", word.FromInt(4))
	gc.Collect(m)
	// The collected object's name is unbound: access traps rather than
	// aliasing whatever reuses the segment.
	if _, err := m.Send(dead, "at:", word.FromInt(0)); err == nil {
		t.Fatal("dangling pointer still accessible after GC")
	}
}

func TestGrownObjectSurvivesGC(t *testing.T) {
	m := newMachine(t, "")
	arr, _ := m.Send(m.ClassPointer(m.Image.Array), "new:", word.FromInt(4))
	m.Send(arr, "at:put:", word.FromInt(0), word.FromInt(42))
	grown, err := m.Send(arr, "grow:", word.FromInt(64))
	if err != nil {
		t.Fatal(err)
	}
	// Root only via the OLD name: marking must follow the forwarding.
	m.AddRoot(arr)
	st := gc.Collect(m)
	if st.SweptObjects != 0 {
		t.Fatalf("swept %d: grown object reachable via old alias", st.SweptObjects)
	}
	got, err := m.Send(grown, "at:", word.FromInt(0))
	if err != nil || got != word.FromInt(42) {
		t.Fatalf("grown object lost data: %v %v", got, err)
	}
}

func TestLIFOContextsNeverReachGC(t *testing.T) {
	m := newMachine(t, `
		extend SmallInt [
			method down [ self isZero ifTrue: [ ^0 ]. ^(self - 1) down ]
		]
	`)
	if _, err := m.Send(word.FromInt(50), "down"); err != nil {
		t.Fatal(err)
	}
	st := gc.Collect(m)
	if st.RecycledContexts != 0 {
		t.Fatalf("GC recycled %d contexts: LIFO returns should have freed them eagerly", st.RecycledContexts)
	}
	if m.Stats.LIFOShare() != 1.0 {
		t.Fatalf("LIFO share = %v", m.Stats.LIFOShare())
	}
}

func TestCapturedContextRecycledByGC(t *testing.T) {
	// A method that stores a pointer to its own context into a heap
	// object makes that context non-LIFO: the return keeps it alive,
	// and only the collector may reclaim it once the heap object dies.
	m := newMachine(t, "")
	// Capturing one's own context is not expressible in the language;
	// install the escaping method as assembly: movea takes the address
	// of context word 0 — a pointer to the running context — and
	// at:put: stores it into the holder (argument in slot 4).
	installAsm(t, m, "escape:", 1, `
		movea c5, c0
		atput c5, c4, =0
		ret   =0
	`)

	holder, _ := m.Send(m.ClassPointer(m.Image.Array), "new:", word.FromInt(2))
	m.AddRoot(holder)
	if _, err := m.Send(word.FromInt(1), "escape:", holder); err != nil {
		t.Fatal(err)
	}
	if m.Stats.NonLIFO == 0 {
		t.Fatal("escaping context returned as LIFO")
	}
	// While the holder lives, the context survives collection.
	st := gc.Collect(m)
	if st.RecycledContexts != 0 {
		t.Fatalf("recycled %d contexts while still referenced", st.RecycledContexts)
	}
	// Drop the reference; now the collector reclaims it.
	if _, err := m.Send(holder, "at:put:", word.FromInt(0), word.Nil); err != nil {
		t.Fatal(err)
	}
	st = gc.Collect(m)
	if st.RecycledContexts != 1 {
		t.Fatalf("recycled %d contexts, want 1", st.RecycledContexts)
	}
}

// garbageMachine returns a machine with n unreachable arrays plus one
// rooted one.
func garbageMachine(t *testing.T, cfg core.Config, n int) (*core.Machine, word.Word) {
	t.Helper()
	m := core.New(cfg)
	rooted, err := m.Send(m.ClassPointer(m.Image.Array), "new:", word.FromInt(8))
	if err != nil {
		t.Fatal(err)
	}
	m.AddRoot(rooted)
	for i := 0; i < n; i++ {
		if _, err := m.Send(m.ClassPointer(m.Image.Array), "new:", word.FromInt(8)); err != nil {
			t.Fatal(err)
		}
	}
	return m, rooted
}

func TestIncrementalCollectMatchesFull(t *testing.T) {
	// A cycle swept in tiny steps must reclaim exactly what one
	// stop-the-world Collect reclaims, and leave identical statistics.
	mFull, _ := garbageMachine(t, core.Config{}, 25)
	mInc, _ := garbageMachine(t, core.Config{}, 25)

	full := gc.Collect(mFull)

	var c gc.Collector
	c.Start(mInc)
	if !c.Active() {
		t.Fatal("collector idle after Start")
	}
	steps := 0
	var inc gc.Stats
	for {
		st, done := c.Step(3)
		steps++
		if done {
			inc = st
			break
		}
	}
	if steps < 2 {
		t.Fatalf("sweep finished in %d steps; chunking not exercised", steps)
	}
	if inc != full {
		t.Fatalf("incremental stats %+v != full %+v", inc, full)
	}
	if got, want := mInc.Space.LiveCount(), mFull.Space.LiveCount(); got != want {
		t.Fatalf("live count %d != full-collect %d", got, want)
	}
	if c.Cycles != 1 {
		t.Fatalf("cycles = %d, want 1", c.Cycles)
	}
	if mInc.Space.GCActive() {
		t.Fatal("space still allocate-black after the cycle completed")
	}
}

// Collecting garbageMachine(25) leaves these statistics. They were read
// while the map-backed allocator the slab one replaced still existed and
// collected identically.
var (
	pinnedCollect = gc.Stats{Marked: 9, SweptObjects: 25, RecycledContexts: 0, Live: 9}
	pinnedAlloc   = memory.AllocStats{
		Allocs: [memory.NumKinds]uint64{26, 0, 0, 8},
		Frees:  [memory.NumKinds]uint64{25, 0, 0, 0},
		Words:  [memory.NumKinds]uint64{208, 0, 0, 8},
	}
	pinnedLive = 9
)

func TestCollectMatchesPinnedStats(t *testing.T) {
	m, _ := garbageMachine(t, core.Config{}, 25)
	if st := gc.Collect(m); st != pinnedCollect {
		t.Fatalf("gc stats diverge:\n pinned %+v\n now    %+v", pinnedCollect, st)
	}
	if m.Space.Stats != pinnedAlloc {
		t.Fatalf("alloc stats diverge:\n pinned %+v\n now    %+v", pinnedAlloc, m.Space.Stats)
	}
	if got := m.Space.LiveCount(); got != pinnedLive {
		t.Fatalf("live count %d, pinned %d", got, pinnedLive)
	}
}

func TestMutatorRunsBetweenSweepSteps(t *testing.T) {
	// The serving pattern: the machine keeps executing sends between
	// sweep steps. Objects allocated mid-cycle are born marked and must
	// survive the remainder of the sweep even when unreferenced; the
	// NEXT cycle reclaims them.
	m, rooted := garbageMachine(t, core.Config{}, 10)
	var c gc.Collector
	c.Start(m)
	if _, done := c.Step(2); done {
		t.Fatal("sweep completed in one small step; fixture too small")
	}
	// Allocate fresh garbage and touch the rooted object mid-sweep.
	for i := 0; i < 3; i++ {
		if _, err := m.Send(m.ClassPointer(m.Image.Array), "new:", word.FromInt(8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Send(rooted, "at:put:", word.FromInt(0), word.FromInt(5)); err != nil {
		t.Fatal(err)
	}
	var first gc.Stats
	for {
		st, done := c.Step(2)
		if done {
			first = st
			break
		}
	}
	if first.SweptObjects != 10 {
		t.Fatalf("first cycle swept %d objects, want the 10 pre-mark ones", first.SweptObjects)
	}
	// The rooted object must still be usable after the interleaved cycle.
	if got, err := m.Send(rooted, "at:", word.FromInt(0)); err != nil || got != word.FromInt(5) {
		t.Fatalf("rooted object damaged: %v %v", got, err)
	}
	second := gc.Collect(m)
	if second.SweptObjects != 3 {
		t.Fatalf("second cycle swept %d objects, want the 3 mid-sweep ones", second.SweptObjects)
	}
}

// installAsm installs a tiny assembly method on SmallInt.
func installAsm(t *testing.T, m *core.Machine, selector string, nargs int, src string) {
	t.Helper()
	asm := isa.NewAssembler()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	meth := &object.Method{
		Selector: m.Image.Atoms.Intern(selector),
		NumArgs:  nargs,
		NumTemps: 2,
		Literals: p.Literals,
		Code:     p.Code,
	}
	if err := m.InstallMethod(m.Image.SmallInt, meth); err != nil {
		t.Fatal(err)
	}
}
