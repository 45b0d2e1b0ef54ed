package serve_test

import (
	"errors"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/word"
)

// TestShardFootprint bounds what a shard costs beyond its machine, its
// flight ring and its two histograms: the shard's own fields and its
// queue. A queue slot is a result cell's pointer, so a 4-worker pool at
// QueueDepth 256 holds 2 KiB of queue per shard; slots that held request
// copies (96 bytes each) would cost 24 KiB and fail the bound.
func TestShardFootprint(t *testing.T) {
	const workers, depth, bound = 4, 256, 8 << 10
	snap, _ := suiteSnapshot(t)
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	before := liveHeap()
	machines := make([]*core.Machine, workers)
	for i := range machines {
		machines[i] = snap.NewMachine()
	}
	perMachine := (liveHeap() - before) / workers
	runtime.KeepAlive(machines)
	machines = nil

	before = liveHeap()
	// A one-slot ring leaves the recorder's share negligible.
	pool := serve.NewPool(snap, serve.Config{Workers: workers, QueueDepth: depth, FlightRingSize: 1, GCEvery: -1})
	perShard := (liveHeap() - before) / workers
	pool.Close()

	hists := 2 * int64(unsafe.Sizeof(stats.ConcurrentHistogram{}))
	fixed := perShard - perMachine - hists
	if fixed > bound {
		t.Fatalf("a shard costs %d B beyond its %d B machine and %d B of histograms, want at most %d", fixed, perMachine, hists, bound)
	}
	t.Logf("%d B per shard beyond its machine and histograms", fixed)
}

// TestCompletedCellKeepsNoRequest: a result cell carries its request only
// while the request is queued. Once it is served, or refused at a full
// queue, the cell back in the pool keeps none of its arguments alive, so
// one collection frees them.
func TestCompletedCellKeepsNoRequest(t *testing.T) {
	snap, progs := suiteSnapshot(t)
	p := progs[0]
	pool := serve.NewPool(snap, serve.Config{Workers: 1, QueueDepth: 1, GCEvery: -1})
	defer pool.Close()

	const sends = 3
	freed := make(chan struct{}, sends)
	submit := func() *serve.Future {
		args := make([]word.Word, 4)
		runtime.SetFinalizer(&args[0], func(*word.Word) { freed <- struct{}{} })
		return pool.Go(serve.Request{Receiver: word.FromInt(p.Warm), Selector: p.Entry, Args: args})
	}
	// With the worker held, at most one request reaches it and one waits
	// in the queue, so the last send is refused at the door.
	release := pool.Quiesce()
	var futs [sends]*serve.Future
	for i := range futs {
		futs[i] = submit()
	}
	release()
	refused := 0
	for _, f := range futs {
		if errors.Is(f.Wait().Err, serve.ErrOverloaded) {
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("no send was refused at the full queue")
	}
	futs = [sends]*serve.Future{}

	runtime.GC()
	for n := 0; n < sends; n++ {
		select {
		case <-freed:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d requests' arguments still alive after a collection", sends-n, sends)
		}
	}
}
