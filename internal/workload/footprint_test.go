package workload

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestMachineFootprint bounds what a stamped worker costs: 32 machines
// stamped from the suite snapshot hold at most 120 KiB of live heap
// apiece. Most of a worker is its copy of object memory and the pages of
// its modelled caches that hold lines (a cache allocates its lines a page
// at a time, so the 4096-line icache of a machine that has run nothing
// holds no page at all), so padding crept back into a cache line, a
// cache allocated whole, or a side table grown per machine, shows up
// here.
func TestMachineFootprint(t *testing.T) {
	const machines, bound = 32, 120 << 10
	m := core.New(core.Config{})
	if _, err := LoadSuite(m); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	stamped := make([]*core.Machine, machines)
	for i := range stamped {
		stamped[i] = snap.NewMachine()
	}
	perMachine := (liveHeap() - before) / machines
	runtime.KeepAlive(stamped)
	if perMachine > bound {
		t.Fatalf("%d stamped machines hold %d B of live heap each, want at most %d", machines, perMachine, bound)
	}
	t.Logf("%d B of live heap per stamped machine", perMachine)
}
