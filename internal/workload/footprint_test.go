package workload

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestMachineFootprint bounds what a stamped worker costs: 32 machines
// stamped from the suite snapshot hold at most 200 KiB of live heap
// apiece. Most of a worker is its modelled caches (the 4096-line icache
// tag store alone is 64 KiB) and its clone of object memory, so padding
// crept back into a cache line, or a side table grown per machine, shows
// up here.
func TestMachineFootprint(t *testing.T) {
	const machines, bound = 32, 200 << 10
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
