package obarch

// One benchmark per figure/table of the paper (the runners listed by
// internal/experiments.All). Each bench regenerates its experiment and
// reports the headline number as a custom metric, so
// `go test -bench=. -benchmem` reproduces the evaluation.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fith"
	"repro/internal/flight"
	"repro/internal/image"
	"repro/internal/memory"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/word"
	"repro/internal/workload"
)

// BenchmarkFig10ITLB regenerates figure 10 (ITLB hit ratio vs size) and
// reports the paper's headline point: the 512-entry 2-way hit ratio.
func BenchmarkFig10ITLB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range r.Series {
			if s.Name == "2-way" {
				b.ReportMetric(s.YAt(9)*100, "%hit@512x2w")
			}
		}
	}
}

// BenchmarkFig11ICache regenerates figure 11 (instruction cache hit ratio
// vs size), reporting the 4096-entry 2-way point.
func BenchmarkFig11ICache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range r.Series {
			if s.Name == "2-way" {
				b.ReportMetric(s.YAt(12)*100, "%hit@4096x2w")
			}
		}
	}
}

// BenchmarkFig10Assoc regenerates the direct-mapped comparison against the
// published software-cache band.
func BenchmarkFig10Assoc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10b()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Series[0].YAt(9)*100, "%hit@512x1w")
	}
}

// BenchmarkT1CallReturn measures the §3.6 call/return cycle costs.
func BenchmarkT1CallReturn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.T1CallReturn(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT2StackVs3Addr measures the dynamic instruction ratio between
// the Fith stack machine and the three-address COM.
func BenchmarkT2StackVs3Addr(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.T2StackVs3Addr(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT3ContextStats measures context allocation/reference shares.
func BenchmarkT3ContextStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.T3ContextTraffic(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT4ContextCache sweeps context cache sizes.
func BenchmarkT4ContextCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.T4ContextCache(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT5AddrFormats compares the address formats.
func BenchmarkT5AddrFormats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.T5AddressFormats(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT6LookupElim measures the ITLB's end-to-end cycle savings.
func BenchmarkT6LookupElim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.T6LookupElimination(); err != nil {
			b.Fatal(err)
		}
	}
}

// Raw machine throughput benches: how fast the simulators themselves run.

func BenchmarkCOMInterpreter(b *testing.B) {
	p := workload.Arith()
	m, err := workload.NewCOM(p, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		before := m.Stats.Instructions
		if _, err := workload.RunCOM(m, p); err != nil {
			b.Fatal(err)
		}
		instrs += m.Stats.Instructions - before
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
}

// BenchmarkInterpreterInnerLoop measures the predecoded Step loop on a
// warm machine: repeated sends of the arith program at warmup size, with
// per-instruction cost and allocations reported. The acceptance bar for
// the fast path is 0 allocs/op here — the inner loop must never touch the
// Go heap.
func BenchmarkInterpreterInnerLoop(b *testing.B) {
	p := workload.Arith()
	m, err := workload.NewCOM(p, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.WarmCOM(m, p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	before := m.Stats.Instructions
	for i := 0; i < b.N; i++ {
		if err := workload.WarmCOM(m, p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	instrs := m.Stats.Instructions - before
	if instrs > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
	}
}

func BenchmarkFithInterpreter(b *testing.B) {
	p := workload.Arith()
	vm, err := workload.NewFith(p, fith.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.RunFith(vm, p); err != nil {
			b.Fatal(err)
		}
	}
}

// Memory-system benches: the slab-backed absolute space. The sub-bench
// names stay "slab" so result rows compare across history.

// BenchmarkAlloc measures steady-state allocator churn in the paper's
// dominant shape: context-sized segments recycled through the free lists
// (§2.3 — 85% of allocations are contexts), with a sprinkling of object
// allocations on the side.
func BenchmarkAlloc(b *testing.B) {
	b.Run("slab", func(b *testing.B) {
		space := memory.NewSpace()
		const depth = 64
		segs := make([]*memory.Segment, 0, depth)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kind := memory.KindContext
			if i%8 == 7 {
				kind = memory.KindObject
			}
			segs = append(segs, space.Alloc(32, 0, kind))
			if len(segs) == depth {
				for _, seg := range segs {
					space.Free(seg)
				}
				segs = segs[:0]
			}
		}
	})
}

// BenchmarkClone measures Space.Clone on an image-shaped heap: thousands
// of live segments of mixed sizes and kinds plus pooled free segments.
// The measured space is itself a clone, exactly as in serving — a
// snapshot freezes one clone and workers are stamped from it — which is
// the layout the slab space is built for: whole-slab memcpy, verbatim
// page table, one bulk copy of the contiguous segment-header arena.
func BenchmarkClone(b *testing.B) {
	b.Run("slab", func(b *testing.B) {
		space := memory.NewSpace()
		// A served heap's shape: pooled contexts (32 words), a majority
		// of small live objects (the suite's Points are 2 words, its
		// arrays 8), and method/table segments.
		sizes := []uint64{2, 32, 4, 8, 2, 32, 8, 16, 2, 64}
		kinds := []memory.Kind{
			memory.KindObject, memory.KindContext, memory.KindObject,
			memory.KindObject, memory.KindObject, memory.KindContext,
			memory.KindObject, memory.KindMethod, memory.KindObject,
			memory.KindTable,
		}
		var dead []*memory.Segment
		for i := 0; i < 16384; i++ {
			seg := space.Alloc(sizes[i%len(sizes)], 0, kinds[i%len(kinds)])
			if i%5 == 4 {
				dead = append(dead, seg)
			}
		}
		for _, seg := range dead {
			space.Free(seg)
		}
		snap, _ := space.Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ns, _ := snap.Clone(); ns == nil {
				b.Fatal("nil clone")
			}
		}
	})
}

// Serving benches: the concurrent pool against the single-machine baseline.

// poolSnapshot compiles, loads and warms the arith program once for the
// pool benchmarks.
func poolSnapshot(b *testing.B) (*core.Snapshot, workload.Program) {
	b.Helper()
	p := workload.Arith()
	m, err := workload.NewCOM(p, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.WarmCOM(m, p); err != nil {
		b.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	return snap, p
}

// BenchmarkPoolThroughput measures serving throughput (sends/sec) at 1, 4
// and GOMAXPROCS workers. Each send runs the arith program at warmup size;
// clients submit from GOMAXPROCS goroutines. Comparing worker counts
// against BenchmarkCOMInterpreter's single-machine baseline shows the
// pool's scaling.
func BenchmarkPoolThroughput(b *testing.B) {
	snap, p := poolSnapshot(b)
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, workers := range counts {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := serve.NewPool(snap, serve.Config{Workers: workers, QueueDepth: 256})
			defer pool.Close()
			req := serve.Request{Receiver: word.FromInt(p.Warm), Selector: p.Entry}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if res := pool.Do(req); res.Err != nil {
						b.Error(res.Err)
						return
					}
				}
			})
			b.StopTimer()
			met := pool.Metrics()
			if met.Requests > 0 {
				b.ReportMetric(float64(met.Instructions)/float64(met.Requests), "instrs/send")
			}
		})
	}
}

// tinySnapshot compiles a minimal one-method image and warms it: a send
// of "double" costs a handful of interpreted instructions, so pool
// benchmarks against it measure the serving transport — routing, queue
// hand-off, result delivery, metrics — rather than the interpreter.
func tinySnapshot(b *testing.B) *core.Snapshot {
	b.Helper()
	sys := NewSystem(Options{})
	if err := sys.Load(`extend SmallInt [ method double [ ^self + self ] ]`); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.SendInt(21, "double"); err != nil {
		b.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	return snap
}

// BenchmarkPoolDoParallel measures the contended Do path — GOMAXPROCS
// client goroutines hammering a GOMAXPROCS-worker pool with tiny sends.
// The acceptance bar is 0 allocs/op. The sub-bench keeps the name it had
// beside the per-call-channel lifecycle it was measured against, so the
// CI gate's row names hold.
func BenchmarkPoolDoParallel(b *testing.B) {
	snap := tinySnapshot(b)
	b.Run("lifecycle=pooled", func(b *testing.B) {
		pool := serve.NewPool(snap, serve.Config{
			Workers:    runtime.GOMAXPROCS(0),
			QueueDepth: 256,
			GCEvery:    -1,
		})
		defer pool.Close()
		req := serve.Request{Receiver: word.FromInt(21), Selector: "double"}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if res := pool.Do(req); res.Err != nil {
					b.Error(res.Err)
					return
				}
			}
		})
	})
}

// BenchmarkFlightRecord measures the flight recorder's raw write path —
// one lifecycle event into a shard ring, the cost every instrumented
// point pays. The CI gate asserts 0 allocs/op: the recorder must never
// give back the serving path's zero-allocation property.
func BenchmarkFlightRecord(b *testing.B) {
	rec := flight.New(1, 0)
	r := rec.Ring(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RecordAt(flight.KindExecEnd, uint64(i), uint64(i), int64(i))
	}
}

// BenchmarkPoolGo measures the queued submission path — Go then Wait, so
// every request takes the full enqueue/worker/deliver round-trip through
// a pooled future. It must report 0 allocs/op.
func BenchmarkPoolGo(b *testing.B) {
	snap := tinySnapshot(b)
	b.Run("lifecycle=pooled", func(b *testing.B) {
		pool := serve.NewPool(snap, serve.Config{
			Workers:    1,
			QueueDepth: 256,
			GCEvery:    -1,
		})
		defer pool.Close()
		req := serve.Request{Receiver: word.FromInt(21), Selector: "double"}
		// Warm the cell pool.
		if res := pool.Go(req).Wait(); res.Err != nil {
			b.Fatal(res.Err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := pool.Go(req).Wait(); res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	})
}

// BenchmarkPoolGoBurst measures the contended queued path: bursts of 16
// pipelined submissions per wait, so the shard queue is deep, the worker
// drains batches, and every request takes the pooled-cell hand-off.
func BenchmarkPoolGoBurst(b *testing.B) {
	snap := tinySnapshot(b)
	b.Run("lifecycle=pooled", func(b *testing.B) {
		pool := serve.NewPool(snap, serve.Config{
			Workers:    runtime.GOMAXPROCS(0),
			QueueDepth: 256,
			GCEvery:    -1,
		})
		defer pool.Close()
		req := serve.Request{Receiver: word.FromInt(21), Selector: "double"}
		const burst = 16
		var futs [burst]*serve.Future
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range futs {
				futs[j] = pool.Go(req)
			}
			for _, f := range futs {
				if res := f.Wait(); res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/send")
	})
}

// BenchmarkShedPath measures the overload refusal itself: admission is
// closed outright (MaxInFlight < 0 — the deterministic stand-in for a
// pool at its ceiling), so every Do is rejected before touching a shard
// queue or a machine. This is the path that runs millions of times a
// second exactly when the server is drowning, so it must stay
// zero-allocation — CI asserts 0 allocs/op on it.
func BenchmarkShedPath(b *testing.B) {
	snap := tinySnapshot(b)
	pool := serve.NewPool(snap, serve.Config{
		Workers:     1,
		MaxInFlight: -1,
		GCEvery:     -1,
	})
	defer pool.Close()
	req := serve.Request{Receiver: word.FromInt(21), Selector: "double"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := pool.Do(req); !errors.Is(res.Err, serve.ErrOverloaded) {
			b.Fatalf("closed admission answered %v", res.Err)
		}
	}
}

// BenchmarkRoutingSkewed measures join-shortest-queue routing under the
// traffic shape it exists for: a hot affinity key pins a pipeline of
// expensive sends (the 1506-instruction arith program) onto shard 0
// while the measured client sends keyless tiny requests. JSQ probes two
// depth counters and dodges the hot shard. The headline metric is the
// keyless client's p99 latency.
func BenchmarkRoutingSkewed(b *testing.B) {
	sys := NewSystem(Options{})
	if err := sys.Load(`extend SmallInt [ method double [ ^self + self ] ]`); err != nil {
		b.Fatal(err)
	}
	arith := workload.Arith()
	if _, err := workload.LoadSuite(sys.M); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.SendInt(21, "double"); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.SendInt(arith.Warm, arith.Entry); err != nil {
		b.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	const workers = 4
	b.Run("routing=jsq", func(b *testing.B) {
		pool := serve.NewPool(snap, serve.Config{
			Workers:    workers,
			QueueDepth: 256,
			GCEvery:    -1,
		})
		defer pool.Close()
		keyless := serve.Request{Receiver: word.FromInt(21), Selector: "double"}
		hot := serve.Request{Receiver: word.FromInt(arith.Warm), Selector: arith.Entry, Key: workers} // pins shard 0

		// A bounded pipeline of keyed arith keeps shard 0's queue
		// non-empty for the whole measurement: every 4th iteration
		// submits one (waiting out the oldest once two are in flight),
		// so the backlog pressure is deterministic and independent of
		// how many cores the host has. Only the keyless Do is timed.
		var backlog []*serve.Future
		var hist stats.Histogram
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%4 == 0 {
				if len(backlog) == 2 {
					backlog[0].Wait()
					backlog = append(backlog[:0], backlog[1])
				}
				backlog = append(backlog, pool.Go(hot))
			}
			t0 := time.Now()
			if res := pool.Do(keyless); res.Err != nil {
				b.Fatal(res.Err)
			}
			hist.Observe(time.Since(t0))
		}
		b.StopTimer()
		for _, f := range backlog {
			f.Wait()
		}
		b.ReportMetric(float64(hist.Quantile(0.50).Nanoseconds())/1e3, "p50_us")
		b.ReportMetric(float64(hist.Quantile(0.99).Nanoseconds())/1e3, "p99_us")
	})
}

// BenchmarkWarmStart compares the two ways to stand up a worker machine
// holding the full workload suite: cloning a snapshot versus re-running
// compile+load for every program. The ratio is the pool's whole reason to
// exist — and only the clone starts with a warm ITLB.
func BenchmarkWarmStart(b *testing.B) {
	build := func(b *testing.B) *core.Machine {
		m := core.New(core.Config{})
		if _, err := workload.LoadSuite(m); err != nil {
			b.Fatal(err)
		}
		return m
	}
	b.Run("clone", func(b *testing.B) {
		m := build(b)
		snap, err := m.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if c := snap.NewMachine(); c == nil {
				b.Fatal("nil clone")
			}
		}
	})
	b.Run("compile+load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			build(b)
		}
	})
}

// Persistent-image benches: the serialisation path that lets obarchd
// restarts skip compile+load. The acceptance bar for PR 4 is image load
// ≥3× faster than compile+load of the same suite (BenchmarkWarmStart's
// compile+load sub-bench is the baseline on the same machine image).

// suiteImage builds the full-suite machine, snapshots it and returns the
// serialised image bytes.
func suiteImage(b *testing.B) (*core.Snapshot, []byte) {
	b.Helper()
	m := core.New(core.Config{})
	if _, err := workload.LoadSuite(m); err != nil {
		b.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := image.Write(&buf, snap); err != nil {
		b.Fatal(err)
	}
	return snap, buf.Bytes()
}

// BenchmarkImageSave measures serialising the full-suite snapshot.
func BenchmarkImageSave(b *testing.B) {
	snap, img := suiteImage(b)
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		buf.Grow(len(img))
		if err := image.Write(&buf, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImageLoad measures deserialising the full-suite image — the
// cost of an obarchd warm boot, to compare against BenchmarkWarmStart's
// compile+load sub-bench (the cold boot it replaces).
func BenchmarkImageLoad(b *testing.B) {
	_, img := suiteImage(b)
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := image.Read(bytes.NewReader(img)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSendPath measures a single warm message send on the COM.
func BenchmarkSendPath(b *testing.B) {
	sys := NewSystem(Options{})
	if err := sys.Load(`extend SmallInt [ method double [ ^self + self ] ]`); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.SendInt(1, "double"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SendInt(int32(i), "double"); err != nil {
			b.Fatal(err)
		}
	}
}
