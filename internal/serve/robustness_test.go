package serve_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/serve"
	"repro/internal/smalltalk"
	"repro/internal/word"
)

// spinSnapshot captures an image with a divergent method (spinForever,
// only a deadline stops it) and a trivial one (quick) — the occupancy
// fixture the overload and shedding tests drive.
func spinSnapshot(t *testing.T) *core.Snapshot {
	t.Helper()
	m := core.New(core.Config{})
	c, err := smalltalk.Compile(`
extend SmallInt [
	method spinForever [
		| i |
		i := 0.
		[ i < self ] whileTrue: [ i := i * 1 ].
		^i
	]
	method quick [ ^self + self ]
]`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := smalltalk.LoadCOM(m, c); err != nil {
		t.Fatalf("load: %v", err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return snap
}

// TestPoolOverloadRejects saturates a one-deep queue behind a pinned
// machine: further submissions must refuse with ErrOverloaded instead of
// blocking, allocation-free, with the refusals counted and recorded —
// and the queued work must still drain once the machine frees up.
func TestPoolOverloadRejects(t *testing.T) {
	snap := spinSnapshot(t)
	pool := serve.NewPool(snap, serve.Config{Workers: 1, QueueDepth: 1, Timeout: 300 * time.Millisecond})
	defer pool.Close()

	// Occupy the machine inline for the pool timeout.
	occ := make(chan serve.Result, 1)
	go func() { occ <- pool.Do(serve.Request{Receiver: word.FromInt(1), Selector: "spinForever"}) }()
	time.Sleep(30 * time.Millisecond)
	quick := serve.Request{Receiver: word.FromInt(21), Selector: "quick"}
	// The worker dequeues this and parks on the busy machine's execMu...
	f1 := pool.Go(quick)
	time.Sleep(30 * time.Millisecond)
	// ...so this one fills the queue's single slot.
	f2 := pool.Go(quick)
	time.Sleep(30 * time.Millisecond)

	const rejections = 16
	for i := 0; i < rejections; i++ {
		if res := pool.Do(quick); !errors.Is(res.Err, serve.ErrOverloaded) {
			t.Fatalf("Do against a full queue returned %v, want ErrOverloaded", res.Err)
		}
	}
	if !raceEnabled {
		if avg := testing.AllocsPerRun(50, func() {
			if res := pool.Do(quick); !errors.Is(res.Err, serve.ErrOverloaded) {
				t.Fatalf("Do against a full queue returned %v", res.Err)
			}
		}); avg != 0 {
			t.Errorf("queue-full rejection allocates %.2f objects per call, want 0", avg)
		}
	}
	if res := pool.Go(quick).Wait(); !errors.Is(res.Err, serve.ErrOverloaded) {
		t.Fatalf("Go against a full queue returned %v, want ErrOverloaded", res.Err)
	}

	// The occupier times out and the queued work drains untouched by the
	// refusals.
	if res := <-occ; res.Err == nil {
		t.Fatal("occupier did not time out")
	}
	for i, f := range []*serve.Future{f1, f2} {
		got, err := f.Wait().Int()
		if err != nil || got != 42 {
			t.Fatalf("queued request %d: got %d, %v", i, got, err)
		}
	}

	met := pool.Metrics()
	if met.Rejected < rejections+1 {
		t.Errorf("metrics counted %d rejections, want at least %d", met.Rejected, rejections+1)
	}
	if want := uint64(3); met.Requests != want {
		t.Errorf("metrics counted %d requests, want %d", met.Requests, want)
	}
	rejectEvents := 0
	for _, ev := range pool.FlightRecorder().Events() {
		if ev.Kind == flight.KindReject {
			rejectEvents++
		}
	}
	if rejectEvents == 0 {
		t.Error("no reject events reached the flight recorder")
	}
}

// TestPoolShedsExpiredAtDispatch pins the latent-bug fix: a queued
// request whose deadline expired while it waited is shed at dispatch —
// distinct error, distinct counter, zero machine steps — while a
// patient neighbour queued behind it is served normally.
func TestPoolShedsExpiredAtDispatch(t *testing.T) {
	snap := spinSnapshot(t)
	pool := serve.NewPool(snap, serve.Config{Workers: 1, QueueDepth: 4})
	defer pool.Close()

	occ := make(chan serve.Result, 1)
	go func() {
		occ <- pool.Do(serve.Request{Receiver: word.FromInt(1), Selector: "spinForever", Timeout: 250 * time.Millisecond})
	}()
	time.Sleep(30 * time.Millisecond)
	// Expires long before the occupier frees the machine.
	fExp := pool.Go(serve.Request{Receiver: word.FromInt(21), Selector: "quick", Timeout: 50 * time.Millisecond})
	// Queued behind it with time to spare.
	fOK := pool.Go(serve.Request{Receiver: word.FromInt(21), Selector: "quick", Timeout: 10 * time.Second})

	res := fExp.Wait()
	if !errors.Is(res.Err, serve.ErrExpired) {
		t.Fatalf("expired request returned %v, want ErrExpired", res.Err)
	}
	if res.Steps != 0 || res.Cycles != 0 {
		t.Fatalf("shed request still executed: %d steps, %d cycles", res.Steps, res.Cycles)
	}
	if got, err := fOK.Wait().Int(); err != nil || got != 42 {
		t.Fatalf("patient request: got %d, %v", got, err)
	}
	if res := <-occ; res.Err == nil {
		t.Fatal("occupier did not time out")
	}

	met := pool.Metrics()
	if met.SheddedExpired != 1 {
		t.Errorf("metrics counted %d sheds, want 1", met.SheddedExpired)
	}
	if met.Timeouts != 1 {
		t.Errorf("metrics counted %d execution timeouts, want 1 (the occupier only)", met.Timeouts)
	}
	if met.Requests != 2 {
		t.Errorf("metrics counted %d executed requests, want 2", met.Requests)
	}
	sheds := 0
	for _, ev := range pool.FlightRecorder().Events() {
		if ev.Kind == flight.KindShed {
			sheds++
		}
	}
	if sheds != 1 {
		t.Errorf("flight recorder holds %d shed events, want 1", sheds)
	}
}

// TestPoolInFlightCeiling covers both ceiling modes: a negative
// MaxInFlight closes admission entirely (every path refuses, the
// overload signal trips), and a positive ceiling admits sequential
// traffic untouched.
func TestPoolInFlightCeiling(t *testing.T) {
	snap := spinSnapshot(t)
	quick := serve.Request{Receiver: word.FromInt(21), Selector: "quick"}

	closed := serve.NewPool(snap, serve.Config{Workers: 1, MaxInFlight: -1})
	defer closed.Close()
	if reason := closed.NotReady(); reason != "overloaded" {
		t.Errorf("admission-closed pool reports %q, want overloaded", reason)
	}
	if res := closed.Do(quick); !errors.Is(res.Err, serve.ErrOverloaded) {
		t.Fatalf("Do under a closed ceiling returned %v", res.Err)
	}
	if res := closed.Go(quick).Wait(); !errors.Is(res.Err, serve.ErrOverloaded) {
		t.Fatalf("Go under a closed ceiling returned %v", res.Err)
	}
	for _, f := range []*serve.Future{closed.Go(quick), closed.Go(quick), closed.Go(quick)} {
		if res := f.Wait(); !errors.Is(res.Err, serve.ErrOverloaded) {
			t.Fatalf("pipelined Go under a closed ceiling returned %v", res.Err)
		}
	}
	if met := closed.Metrics(); met.Rejected != 5 || met.Requests != 0 {
		t.Errorf("closed ceiling counted %d rejected / %d served, want 5 / 0", met.Rejected, met.Requests)
	}

	open := serve.NewPool(snap, serve.Config{Workers: 1, MaxInFlight: 2})
	defer open.Close()
	for i := 0; i < 8; i++ {
		if got, err := open.Do(quick).Int(); err != nil || got != 42 {
			t.Fatalf("request %d under an open ceiling: got %d, %v", i, got, err)
		}
	}
	if reason := open.NotReady(); reason != "" {
		t.Errorf("quiescent pool reports %q, want ready", reason)
	}
	if n := open.InFlight(); n != 0 {
		t.Errorf("quiescent pool reports %d in flight", n)
	}
	if met := open.Metrics(); met.Rejected != 0 || met.Requests != 8 {
		t.Errorf("open ceiling counted %d rejected / %d served, want 0 / 8", met.Rejected, met.Requests)
	}
}

// TestPoolPanicRecovery drives the fully predictable chaos plan — every
// second execution panics — through a single shard: each panic comes
// back as a failed Result wrapping ErrPanic, the machine is re-stamped
// from the snapshot and immediately serves the next request, the
// accounting conserves across the swaps, and the health flag tracks the
// last outcome.
func TestPoolPanicRecovery(t *testing.T) {
	snap := spinSnapshot(t)
	pool := serve.NewPool(snap, serve.Config{
		Workers: 1,
		Faults:  &serve.Faults{PanicEvery: 2}, // seed 0: panics on executions 2, 4, 6...
	})
	defer pool.Close()
	quick := serve.Request{Receiver: word.FromInt(21), Selector: "quick"}

	const rounds = 6
	for i := 1; i <= rounds; i++ {
		res := pool.Do(quick)
		if i%2 == 0 {
			if !errors.Is(res.Err, serve.ErrPanic) {
				t.Fatalf("execution %d: got %v, want ErrPanic", i, res.Err)
			}
		} else if got, err := res.Int(); err != nil || got != 42 {
			t.Fatalf("execution %d: got %d, %v", i, got, err)
		}
	}
	if n := pool.UnhealthyShards(); n != 1 {
		t.Errorf("after a panic, %d unhealthy shards, want 1", n)
	}
	if got, err := pool.Do(quick).Int(); err != nil || got != 42 {
		t.Fatalf("post-panic probe: got %d, %v", got, err)
	}
	if n := pool.UnhealthyShards(); n != 0 {
		t.Errorf("after a success, %d unhealthy shards, want 0", n)
	}

	met := pool.Metrics()
	if met.Panics != 3 || met.Restamps != 3 {
		t.Errorf("counted %d panics / %d restamps, want 3 / 3", met.Panics, met.Restamps)
	}
	if met.Requests != rounds+1 || met.Errors != 3 || met.Timeouts != 0 {
		t.Errorf("counted %d requests / %d errors / %d timeouts, want %d / 3 / 0",
			met.Requests, met.Errors, met.Timeouts, rounds+1)
	}
	// Retired machines keep contributing: the modelled totals conserve
	// across re-stamps.
	pool.Close()
	if ms := pool.MachineStats(); ms.Instructions < met.Instructions {
		t.Errorf("machine stats lost retired work: %d < %d metrics instructions", ms.Instructions, met.Instructions)
	}
	kinds := map[flight.Kind]int{}
	for _, ev := range pool.FlightRecorder().Events() {
		kinds[ev.Kind]++
		if ev.Kind == flight.KindPanic && ev.Arg != flight.PanicChaos {
			t.Errorf("injected panic recorded with arg %d, want PanicChaos", ev.Arg)
		}
	}
	if kinds[flight.KindPanic] != 3 || kinds[flight.KindRestamp] != 3 {
		t.Errorf("flight recorder holds %d panic / %d restamp events, want 3 / 3",
			kinds[flight.KindPanic], kinds[flight.KindRestamp])
	}
}

// TestChaosSoak is the headline robustness test, meant for -race: seeded
// panics, stalls and dispatch clogs injected mid-traffic under
// concurrent clients mixing every submission path, some of it on a
// hair-trigger deadline and some of it bursty enough to overflow the
// shallow queues. The process must never die, every shard must keep
// serving (re-stamped as needed), and the request accounting must
// conserve exactly: completed + shed + rejected == submitted.
func TestChaosSoak(t *testing.T) {
	snap, progs := suiteSnapshot(t)
	const workers = 4
	pool := serve.NewPool(snap, serve.Config{
		Workers:    workers,
		QueueDepth: 8,
		GCEvery:    16,
		Faults: &serve.Faults{
			Seed:       42,
			PanicEvery: 7,
			StallEvery: 5,
			Stall:      200 * time.Microsecond,
			ClogEvery:  6,
			Clog:       300 * time.Microsecond,
		},
	})
	defer pool.Close()

	var submitted, completed, shed, rejected, failed atomic.Int64
	classify := func(res serve.Result) {
		switch {
		case res.Err == nil:
			completed.Add(1)
		case errors.Is(res.Err, serve.ErrExpired):
			shed.Add(1)
		case errors.Is(res.Err, serve.ErrOverloaded):
			rejected.Add(1)
		case errors.Is(res.Err, serve.ErrClosed):
			t.Errorf("pool refused mid-soak with %v", res.Err)
		default:
			failed.Add(1) // panics, timeout traps
		}
	}

	const clients = 8
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for i, p := range progs {
					req := serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry}
					if i%4 == 3 {
						req.Timeout = time.Millisecond // hair trigger: shed or trap under chaos
					}
					switch (g + i) % 3 {
					case 0:
						submitted.Add(1)
						classify(pool.Do(req))
					case 1:
						submitted.Add(1)
						classify(pool.Go(req).Wait())
					default:
						submitted.Add(2)
						a, b := pool.Go(req), pool.Go(req)
						classify(a.Wait())
						classify(b.Wait())
					}
				}
				// A burst far past the shallow queues: most of these are
				// refused at the door, exercising the reject path under
				// concurrency.
				p := progs[g%len(progs)]
				burst := make([]*serve.Future, 16)
				for i := range burst {
					submitted.Add(1)
					burst[i] = pool.Go(serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry})
				}
				for _, f := range burst {
					classify(f.Wait())
				}
			}
		}(g)
	}
	wg.Wait()

	met := pool.Metrics()
	if got, want := completed.Load()+failed.Load(), int64(met.Requests); got != want {
		t.Errorf("executed accounting drifted: %d classified vs %d metrics requests", got, want)
	}
	if got, want := rejected.Load(), int64(met.Rejected); got != want {
		t.Errorf("rejection accounting drifted: %d classified vs %d metrics", got, want)
	}
	if got, want := shed.Load(), int64(met.SheddedExpired); got != want {
		t.Errorf("shed accounting drifted: %d classified vs %d metrics", got, want)
	}
	total := completed.Load() + shed.Load() + rejected.Load() + failed.Load()
	if total != submitted.Load() {
		t.Errorf("conservation violated: %d classified vs %d submitted", total, submitted.Load())
	}
	if met.Panics == 0 {
		t.Error("the seeded plan injected no panics; the soak exercised nothing")
	}
	if met.Panics != met.Restamps {
		t.Errorf("%d panics but %d restamps: a quarantined machine was not replaced", met.Panics, met.Restamps)
	}

	// Every shard — including any that just panicked — still serves: pin
	// a probe to each and allow for the probe itself drawing a scheduled
	// fault.
	p := progs[0]
	for k := 1; k <= workers; k++ {
		ok := false
		for attempt := 0; attempt < 5 && !ok; attempt++ {
			res := pool.Do(serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry, Key: uint64(k)})
			if got, err := res.Int(); err == nil && got == p.Check {
				ok = true
			}
		}
		if !ok {
			t.Errorf("shard for key %d stopped serving after the soak", k)
		}
	}
}
