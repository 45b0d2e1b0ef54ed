package workload

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/itlb"
	"repro/internal/memory"
	"repro/internal/object"
)

// The interpreter fast path (predecoded code, per-site inline caches in
// front of the instruction cache and the ITLB, zero-allocation dispatch)
// and the memory-system fast path (slab-backed absolute space, dense page
// table, size-class free lists, zero-fill elision, bulk clone) must be
// pure simulator accelerations: the machine modelled is the same whatever
// state they are in. These tests run the full workload suite along
// different paths through them and assert identical checksums and
// identical modelled statistics on every accounting surface — core.Stats,
// ITLB lookup and cache counters, the instruction cache, the ATLB,
// translation counts and the allocator's AllocStats. Any divergence in
// cycles, hit ratios or replacement behaviour fails loudly.
// TestMachineAccountingGolden pins the same surfaces against history.

// accounted is every accounting surface the fast paths could plausibly
// disturb.
type accounted struct {
	Sum    int32             `json:"checksum"`
	Stats  core.Stats        `json:"stats"`
	ICache cache.Stats       `json:"icache"`
	ITLBC  cache.Stats       `json:"itlb_cache"`
	ITLB   itlb.Stats        `json:"itlb"`
	ATLB   cache.Stats       `json:"atlb"`
	Team   memory.TeamStats  `json:"team"`
	Alloc  memory.AllocStats `json:"alloc"`
	GC     gc.Stats          `json:"gc"`
	Live   int               `json:"live"`
}

// runAccounted executes one program on a fresh machine — plus a final
// garbage collection, so the sweep path is on every parity surface too —
// and returns the full accounting.
func runAccounted(t *testing.T, p Program, cfg core.Config) accounted {
	t.Helper()
	m, err := NewCOM(p, cfg)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	if err := WarmCOM(m, p); err != nil {
		t.Fatalf("%s warmup: %v", p.Name, err)
	}
	return measure(t, m, p)
}

// measure runs the program's measured send on a warmed machine and returns
// the full accounting.
func measure(t *testing.T, m *core.Machine, p Program) accounted {
	t.Helper()
	sum, err := RunCOM(m, p)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return account(m, sum)
}

// account collects a machine's garbage and returns its full accounting,
// with sum as the checksum.
func account(m *core.Machine, sum int32) accounted {
	gcStats := gc.Collect(m)
	return accounted{
		Sum:    sum,
		Stats:  m.Stats,
		ICache: m.IC.Stats,
		ITLBC:  m.ITLB.CacheStats(),
		ITLB:   m.ITLB.Stats,
		ATLB:   m.Team.ATLBStats(),
		Team:   m.Team.Stats,
		Alloc:  m.Space.Stats,
		GC:     gcStats,
		Live:   m.Space.LiveCount(),
	}
}

// diffAccounted asserts two runs modelled the same machine.
func diffAccounted(t *testing.T, want int32, a, b accounted, aName, bName string) {
	t.Helper()
	if a.Sum != want || b.Sum != want {
		t.Fatalf("checksums: %s %d, %s %d, want %d", aName, a.Sum, bName, b.Sum, want)
	}
	if a.Stats != b.Stats {
		t.Errorf("core.Stats diverge:\n %s %+v\n %s %+v", aName, a.Stats, bName, b.Stats)
	}
	if a.ICache != b.ICache {
		t.Errorf("icache stats diverge:\n %s %+v\n %s %+v", aName, a.ICache, bName, b.ICache)
	}
	if a.ITLBC != b.ITLBC {
		t.Errorf("ITLB cache stats diverge:\n %s %+v\n %s %+v", aName, a.ITLBC, bName, b.ITLBC)
	}
	if a.ITLB != b.ITLB {
		t.Errorf("ITLB lookup stats diverge:\n %s %+v\n %s %+v", aName, a.ITLB, bName, b.ITLB)
	}
	if a.ATLB != b.ATLB {
		t.Errorf("ATLB stats diverge:\n %s %+v\n %s %+v", aName, a.ATLB, bName, b.ATLB)
	}
	if a.Team != b.Team {
		t.Errorf("translation stats diverge:\n %s %+v\n %s %+v", aName, a.Team, bName, b.Team)
	}
	if a.Alloc != b.Alloc {
		t.Errorf("AllocStats diverge:\n %s %+v\n %s %+v", aName, a.Alloc, bName, b.Alloc)
	}
	if a.GC != b.GC {
		t.Errorf("gc stats diverge:\n %s %+v\n %s %+v", aName, a.GC, bName, b.GC)
	}
	if a.Live != b.Live {
		t.Errorf("live counts diverge: %s %d, %s %d", aName, a.Live, bName, b.Live)
	}
}

// coldSites is how many executed instructions the cold run of
// TestFastPathStatsParity lets pass between drops of every site array.
const coldSites = 64

// TestFastPathStatsParity: the per-site inline caches change no modelled
// number. Each program runs once as usual and once with every method's
// predecoded site array dropped every coldSites instructions, so its sites
// keep re-predecoding and re-learning their inline caches against a warm
// instruction cache and ITLB. Both runs must account identically, with the
// ITLB and without it.
func TestFastPathStatsParity(t *testing.T) {
	for _, noITLB := range []bool{false, true} {
		for _, p := range Suite() {
			name := p.Name
			if noITLB {
				name += "/noitlb"
			}
			t.Run(name, func(t *testing.T) {
				warm := runAccounted(t, p, core.Config{NoITLB: noITLB})
				var meths []*object.Method
				events := 0
				m, err := NewCOM(p, core.Config{NoITLB: noITLB, OnEvent: func(core.Event) {
					if events++; events%coldSites == 0 {
						for _, meth := range meths {
							meth.Fast = nil
						}
					}
				}})
				if err != nil {
					t.Fatal(err)
				}
				m.Image.EachClass(func(c *object.Class) {
					c.Methods(func(meth *object.Method) { meths = append(meths, meth) })
				})
				if err := WarmCOM(m, p); err != nil {
					t.Fatal(err)
				}
				diffAccounted(t, p.Check, warm, measure(t, m, p), "warm", "cold")
			})
		}
	}
}

// TestMemoryFastPathStatsParity: the two ways a warmed space is copied —
// Space.Clone's bulk slab and header-arena copy, and a rebuild from its
// exported state through ImportSpace — leave spaces that allocate,
// recycle and collect identically. A collection before the snapshot puts
// freed segments, free lists and a compacted scan list in both copies.
func TestMemoryFastPathStatsParity(t *testing.T) {
	for _, p := range Suite() {
		t.Run(p.Name, func(t *testing.T) {
			m, err := NewCOM(p, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := WarmCOM(m, p); err != nil {
					t.Fatal(err)
				}
				gc.Collect(m)
			}
			snap, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			st, err := snap.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := core.ImportSnapshot(st)
			if err != nil {
				t.Fatal(err)
			}
			cloned, rebuilt := snap.NewMachine(), restored.NewMachine()
			var sums [2]int32
			for i, m := range []*core.Machine{cloned, rebuilt} {
				if sums[i], err = RunCOM(m, p); err != nil {
					t.Fatal(err)
				}
			}
			// The accounting does not see addresses; the heap's bases in
			// scan order, before the collection, show any difference in
			// the order segments were reused.
			if a, b := liveBases(cloned), liveBases(rebuilt); !slices.Equal(a, b) {
				t.Errorf("live heaps diverge in base or scan order (cloned %d segments, restored %d)", len(a), len(b))
			}
			diffAccounted(t, p.Check, account(cloned, sums[0]), account(rebuilt, sums[1]), "cloned", "restored")
		})
	}
}

// liveBases lists the base of every live segment in scan order.
func liveBases(m *core.Machine) []memory.AbsAddr {
	var out []memory.AbsAddr
	m.Space.Live(func(seg *memory.Segment) { out = append(out, seg.Base) })
	return out
}

// TestFastPathZeroAllocs pins the zero-allocation claim for the
// interpreter inner loop: a warm machine serving repeated sends of every
// suite program must not allocate per send.
func TestFastPathZeroAllocs(t *testing.T) {
	for _, p := range Suite() {
		switch p.Name {
		case "points", "sort", "tree", "dispatch":
			continue // these programs allocate machine objects by design (new)
		}
		t.Run(p.Name, func(t *testing.T) {
			m, err := NewCOM(p, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := WarmCOM(m, p); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(10, func() {
				if err := WarmCOM(m, p); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("%s: %v allocs per warm send, want 0", p.Name, avg)
			}
		})
	}
}
