package workload

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/itlb"
	"repro/internal/memory"
)

// The interpreter fast path (predecoded code, per-site inline caches in
// front of the instruction cache and the ITLB, zero-allocation dispatch)
// and the memory-system fast path (slab-backed absolute space, dense page
// table, size-class free lists, zero-fill elision) must be pure simulator
// accelerations: the machine modelled is bit-identical with each of them
// on or off. These tests run the full workload suite across the ablations
// and assert identical checksums and identical modelled statistics on
// every accounting surface — core.Stats, ITLB lookup and cache counters,
// the instruction cache, the ATLB, translation counts and the allocator's
// AllocStats. Any divergence in cycles, hit ratios or replacement
// behaviour fails loudly.

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
	sum, err := RunCOM(m, p)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
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

func TestFastPathStatsParity(t *testing.T) {
	for _, noITLB := range []bool{false, true} {
		for _, p := range Suite() {
			name := p.Name
			if noITLB {
				name += "/noitlb"
			}
			t.Run(name, func(t *testing.T) {
				fast := runAccounted(t, p, core.Config{NoITLB: noITLB})
				seed := runAccounted(t, p, core.Config{NoITLB: noITLB, NoInlineCache: true})
				diffAccounted(t, p.Check, fast, seed, "fast", "seed")
			})
		}
	}
}

// TestMemoryFastPathStatsParity pins the PR 3 claim: the slab-backed
// absolute space — with and without the zero-fill elision — models exactly
// the machine the PR 2 map-backed space modelled, across the whole suite
// and through a full collection.
func TestMemoryFastPathStatsParity(t *testing.T) {
	for _, p := range Suite() {
		t.Run(p.Name, func(t *testing.T) {
			slab := runAccounted(t, p, core.Config{})
			legacy := runAccounted(t, p, core.Config{LegacySpace: true})
			filled := runAccounted(t, p, core.Config{ZeroFillContexts: true})
			diffAccounted(t, p.Check, slab, legacy, "slab", "legacy")
			diffAccounted(t, p.Check, slab, filled, "slab", "zerofill")
		})
	}
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
