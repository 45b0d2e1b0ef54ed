package serve_test

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/image"
	"repro/internal/serve"
	"repro/internal/smalltalk"
	"repro/internal/word"
	"repro/internal/workload"
)

// suiteSnapshot compiles and loads the entire workload suite into one
// machine, warms it, and captures a snapshot. Every pool in these tests is
// stamped out of this single image — the serving model under test.
func suiteSnapshot(t testing.TB) (*core.Snapshot, []workload.Program) {
	t.Helper()
	m := core.New(core.Config{})
	progs, err := workload.LoadSuite(m)
	if err != nil {
		t.Fatalf("load suite: %v", err)
	}
	for _, p := range progs {
		if _, err := m.Send(word.FromInt(p.Warm), p.Entry); err != nil {
			t.Fatalf("warm %s: %v", p.Name, err)
		}
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return snap, progs
}

func TestPoolServesSuiteConcurrently(t *testing.T) {
	snap, progs := suiteSnapshot(t)
	pool := serve.NewPool(snap, serve.Config{Workers: 4, GCEvery: 16})
	defer pool.Close()

	const clients = 8
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for _, p := range progs {
					res := pool.Do(serve.Request{
						Receiver: word.FromInt(p.Size),
						Selector: p.Entry,
					})
					got, err := res.Int()
					if err != nil {
						t.Errorf("client %d: %s: %v", g, p.Name, err)
						return
					}
					if got != p.Check {
						t.Errorf("client %d: %s checksum %d, want %d", g, p.Name, got, p.Check)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	met := pool.Metrics()
	want := uint64(clients * 2 * len(progs))
	if met.Requests != want {
		t.Fatalf("metrics saw %d requests, want %d", met.Requests, want)
	}
	if met.Errors != 0 {
		t.Fatalf("metrics saw %d errors", met.Errors)
	}
	if met.ITLB.Value() < 0.9 {
		t.Fatalf("aggregate ITLB hit ratio %v too low for a warm-started pool", met.ITLB)
	}
	if met.Instructions == 0 || met.Cycles == 0 {
		t.Fatalf("metrics lost the machine accounting: %+v", met)
	}
}

func TestPoolAffinityKeyPinsShard(t *testing.T) {
	snap, progs := suiteSnapshot(t)
	pool := serve.NewPool(snap, serve.Config{Workers: 4})
	defer pool.Close()

	p := progs[0]
	req := serve.Request{Receiver: word.FromInt(p.Warm), Selector: p.Entry, Key: 7}
	first := pool.Do(req)
	if first.Err != nil {
		t.Fatalf("keyed request: %v", first.Err)
	}
	for i := 0; i < 8; i++ {
		res := pool.Do(req)
		if res.Err != nil {
			t.Fatalf("keyed request %d: %v", i, res.Err)
		}
		if res.Worker != first.Worker {
			t.Fatalf("key 7 moved from worker %d to %d", first.Worker, res.Worker)
		}
	}
}

func TestPoolStepBudgetAndRecovery(t *testing.T) {
	snap, progs := suiteSnapshot(t)
	pool := serve.NewPool(snap, serve.Config{Workers: 1})
	defer pool.Close()

	p := progs[0]
	res := pool.Do(serve.Request{
		Receiver: word.FromInt(p.Size),
		Selector: p.Entry,
		MaxSteps: 100, // far too small for the measured size
	})
	if res.Err == nil {
		t.Fatalf("100-step budget did not trap")
	}
	// The same worker serves correctly afterwards: the abort left no
	// residue and the default budget is restored.
	res = pool.Do(serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry})
	got, err := res.Int()
	if err != nil {
		t.Fatalf("post-budget-trap request: %v", err)
	}
	if got != p.Check {
		t.Fatalf("post-budget-trap checksum %d, want %d", got, p.Check)
	}
}

func TestPoolTimeout(t *testing.T) {
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
	pool := serve.NewPool(snap, serve.Config{Workers: 1, Timeout: 30 * time.Millisecond})
	defer pool.Close()

	res := pool.Do(serve.Request{Receiver: word.FromInt(1), Selector: "spinForever"})
	if res.Err == nil {
		t.Fatalf("divergent request did not time out")
	}
	var trap *core.Trap
	if !errors.As(res.Err, &trap) || trap.Kind != "timeout" {
		t.Fatalf("expected a timeout trap, got %v", res.Err)
	}
	// The worker machine survives the abort.
	got, err := pool.Do(serve.Request{Receiver: word.FromInt(21), Selector: "quick"}).Int()
	if err != nil {
		t.Fatalf("post-timeout request: %v", err)
	}
	if got != 42 {
		t.Fatalf("post-timeout 21 quick = %d", got)
	}
	if met := pool.Metrics(); met.Timeouts != 1 {
		t.Fatalf("metrics counted %d timeouts, want 1", met.Timeouts)
	}
}

// TestPoolPipelinedGoAndClose submits every suite program with Go before
// waiting for any, then closes the pool: Close is idempotent, and Do and
// Go after it both answer ErrClosed.
func TestPoolPipelinedGoAndClose(t *testing.T) {
	snap, progs := suiteSnapshot(t)
	pool := serve.NewPool(snap, serve.Config{Workers: 2})

	reqs := make([]serve.Request, len(progs))
	futs := make([]*serve.Future, len(progs))
	for i, p := range progs {
		reqs[i] = serve.Request{Receiver: word.FromInt(p.Warm), Selector: p.Entry}
		futs[i] = pool.Go(reqs[i])
	}
	for i, f := range futs {
		if res := f.Wait(); res.Err != nil {
			t.Fatalf("Go %s: %v", progs[i].Name, res.Err)
		}
	}

	pool.Close()
	pool.Close() // idempotent
	if res := pool.Do(reqs[0]); !errors.Is(res.Err, serve.ErrClosed) {
		t.Fatalf("Do after Close returned %v, want ErrClosed", res.Err)
	}
	if res := pool.Go(reqs[1]).Wait(); !errors.Is(res.Err, serve.ErrClosed) {
		t.Fatalf("Go after Close returned %v, want ErrClosed", res.Err)
	}

	// Quiescent after Close: machine stats are aggregated and consistent
	// with the per-request accounting.
	ms := pool.MachineStats()
	met := pool.Metrics()
	if ms.Instructions < met.Instructions {
		t.Fatalf("machine instructions %d below metric total %d", ms.Instructions, met.Instructions)
	}
}

func TestPoolGCBoundsHeapGrowth(t *testing.T) {
	snap, progs := suiteSnapshot(t)
	// Collect aggressively so allocation-heavy programs are reclaimed.
	pool := serve.NewPool(snap, serve.Config{Workers: 1, GCEvery: 4})
	p := progs[2] // points: allocates two objects per iteration
	for i := 0; i < 12; i++ {
		if res := pool.Do(serve.Request{Receiver: word.FromInt(p.Warm), Selector: p.Entry}); res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
	}
	pool.Close()
	if met := pool.Metrics(); met.GCs < 2 {
		t.Fatalf("expected at least 2 collections, got %d", met.GCs)
	}
}

// TestPoolIncrementalGCUnderLoad is the GC-under-serving stress test: an
// aggressive collection cadence, so cycles span requests and the mutators
// run between sweep steps, under enough concurrent clients that the race
// detector gets a real workout. Every answer must still checksum, the
// shards must have both completed cycles and accounted their pause time,
// and the flight rings must show a slice that left sweep work pending.
func TestPoolIncrementalGCUnderLoad(t *testing.T) {
	snap, progs := suiteSnapshot(t)
	pool := serve.NewPool(snap, serve.Config{Workers: 4, GCEvery: 2})
	defer pool.Close()

	const clients = 8
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, p := range progs {
					res := pool.Do(serve.Request{
						Receiver: word.FromInt(p.Size),
						Selector: p.Entry,
						Key:      uint64(g%3) * 7, // mix keyed, keyless and inline paths
					})
					got, err := res.Int()
					if err != nil {
						t.Errorf("client %d: %s: %v", g, p.Name, err)
						return
					}
					if got != p.Check {
						t.Errorf("client %d: %s checksum %d, want %d", g, p.Name, got, p.Check)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if depths := pool.QueueDepths(); len(depths) != 4 {
		t.Fatalf("queue depths for %d shards, want 4", len(depths))
	}
	met := pool.Metrics()
	if met.Errors != 0 {
		t.Fatalf("metrics saw %d errors", met.Errors)
	}
	if met.GCs == 0 {
		t.Fatal("no collection cycle completed despite GCEvery=2")
	}
	if met.GCPause == 0 {
		t.Fatal("collection cycles ran but no pause time was accounted")
	}
	spanned := false
	for _, ev := range pool.FlightRecorder().Events() {
		if ev.Kind == flight.KindGCEnd && ev.Arg > 0 {
			spanned = true
			break
		}
	}
	if !spanned {
		t.Fatal("no sweep slice left work pending: no cycle spanned requests")
	}
}

// TestPoolHeapStaysBounded drives round-robin suite sends through a
// 1-worker pool on the default collection cadence and checks that a
// checkpoint stops growing once the paced sweep keeps up: the image after
// 6000 sends is at most 1.25x the image after 2000, and a cycle completes
// about every GCEvery sends. A sweep of a fixed chunk per request falls
// behind the suite's allocation and fails both.
func TestPoolHeapStaysBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("6000 suite sends take minutes under the race detector")
	}
	snap, progs := suiteSnapshot(t)
	pool := serve.NewPool(snap, serve.Config{Workers: 1})
	defer pool.Close()
	imageBytes := func() int {
		t.Helper()
		live, err := pool.SnapshotLive()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := image.Write(&buf, live); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}

	const (
		mid, sends = 2000, 6000
		gcEvery    = 512 // the pool's default cadence
	)
	var atMid int
	for i := 0; i < sends; i++ {
		p := progs[i%len(progs)]
		got, err := pool.Do(serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry}).Int()
		if err != nil || got != p.Check {
			t.Fatalf("send %d: %s = %d, %v; want %d", i, p.Name, got, err, p.Check)
		}
		if i+1 == mid {
			atMid = imageBytes()
		}
	}
	atEnd := imageBytes()
	met := pool.Metrics()
	t.Logf("image %d B at %d sends, %d B at %d (%.2fx); %d cycles", atMid, mid, atEnd, sends, float64(atEnd)/float64(atMid), met.GCs)
	if float64(atEnd) > 1.25*float64(atMid) {
		t.Errorf("image grew %.2fx from %d to %d sends, want at most 1.25x", float64(atEnd)/float64(atMid), mid, sends)
	}
	if want := uint64(sends/gcEvery - 1); met.GCs < want {
		t.Errorf("%d collection cycles in %d sends, want at least %d", met.GCs, sends, want)
	}
}

// TestPoolPipelinedGoSharded pipelines a large mixed run — keyed and
// keyless requests across every suite program, all submitted with Go
// before any is waited for — across four shards, and validates that
// every result comes back through its own request's Future with the
// right checksum, and that keyed requests respected affinity.
func TestPoolPipelinedGoSharded(t *testing.T) {
	snap, progs := suiteSnapshot(t)
	pool := serve.NewPool(snap, serve.Config{Workers: 4, QueueDepth: 96})
	defer pool.Close()

	const n = 96
	reqs := make([]serve.Request, n)
	futs := make([]*serve.Future, n)
	for i := range reqs {
		p := progs[i%len(progs)]
		reqs[i] = serve.Request{Receiver: word.FromInt(p.Warm), Selector: p.Entry}
		if i%3 == 0 {
			reqs[i].Key = uint64(i%5 + 1)
		}
		futs[i] = pool.Go(reqs[i])
	}
	keyWorker := map[uint64]int{}
	for i, f := range futs {
		res := f.Wait()
		p := progs[i%len(progs)]
		if res.Err != nil {
			t.Fatalf("request %d (%s): %v", i, p.Name, res.Err)
		}
		if got, _ := res.Int(); got == 0 && p.Check != 0 {
			t.Fatalf("request %d (%s): zero checksum", i, p.Name)
		}
		if k := reqs[i].Key; k != 0 {
			if w, seen := keyWorker[k]; seen && w != res.Worker {
				t.Fatalf("key %d served by workers %d and %d", k, w, res.Worker)
			} else {
				keyWorker[k] = res.Worker
			}
		}
	}
	met := pool.Metrics()
	if met.Requests != n {
		t.Fatalf("metrics counted %d requests, want %d", met.Requests, n)
	}
}

// TestPoolMixedDoGoPipelined hammers one pool with Do, Go beside Do, and
// pipelined Go from concurrent clients; run under -race this exercises
// the inline fast-path handoff between callers and workers.
func TestPoolMixedDoGoPipelined(t *testing.T) {
	snap, progs := suiteSnapshot(t)
	pool := serve.NewPool(snap, serve.Config{Workers: 2})
	defer pool.Close()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := progs[g%len(progs)]
			req := serve.Request{Receiver: word.FromInt(p.Warm), Selector: p.Entry}
			for round := 0; round < 5; round++ {
				switch g % 3 {
				case 0:
					if res := pool.Do(req); res.Err != nil {
						t.Errorf("Do: %v", res.Err)
					}
				case 1:
					f := pool.Go(req)
					if res := pool.Do(req); res.Err != nil {
						t.Errorf("Do after Go: %v", res.Err)
					}
					if res := f.Wait(); res.Err != nil {
						t.Errorf("Go: %v", res.Err)
					}
				default:
					futs := []*serve.Future{pool.Go(req), pool.Go(req), pool.Go(req)}
					for _, f := range futs {
						if res := f.Wait(); res.Err != nil {
							t.Errorf("pipelined Go: %v", res.Err)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCloseWaitsForInlineDo pins the shutdown invariant the inline fast
// path must preserve: Close returns only once no machine is executing —
// including machines driven inline on caller goroutines — so reading
// MachineStats after Close is race-free. Run under -race this fails if
// Close stops waiting for inline drivers.
func TestCloseWaitsForInlineDo(t *testing.T) {
	snap, progs := suiteSnapshot(t)
	pool := serve.NewPool(snap, serve.Config{Workers: 1})
	p := progs[1] // recurse at measured size: long enough to straddle Close
	done := make(chan serve.Result, 1)
	go func() {
		done <- pool.Do(serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry})
	}()
	time.Sleep(2 * time.Millisecond) // let the inline execution start
	pool.Close()
	stats := pool.MachineStats() // must not race with the inline driver
	res := <-done
	if got, err := res.Int(); err != nil || got != p.Check {
		t.Fatalf("inline request across Close: %v %v, want %d", got, err, p.Check)
	}
	if stats.Instructions == 0 {
		t.Fatalf("machine stats empty after Close")
	}
}

// TestTryDo pins when TryDo runs a request on the caller. In a pool
// built with two Ps: only when nothing waits behind the request, its
// shard is idle and no other shard is. In one built with one P: whenever
// its shard is idle. Otherwise it executes nothing and reports false;
// refusals are answers and report true. The reading it hands back is
// where its service span ended (or now, for an answered refusal), so a
// caller's next stage starts there.
func TestTryDo(t *testing.T) {
	req := func(key uint64) serve.Request {
		return serve.Request{Receiver: word.FromInt(4), Selector: "answer", Key: key}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	one := serve.NewPool(answerSnapshot(t, 1), serve.Config{Workers: 1})
	defer one.Close()
	now := core.Monotonic()
	res, done, ok := one.TryDo(req(0), now, false)
	if !ok || res.Err != nil || res.Value.Int() != 5 {
		t.Fatalf("idle 1-worker pool: %+v, %v; want 5 run inline", res, ok)
	}
	if done-now != int64(res.Latency) {
		t.Fatalf("done - now = %d, want Latency %d", done-now, res.Latency)
	}
	// Work behind the request: the caller hands this one off and moves on.
	if _, _, ok := one.TryDo(req(0), core.Monotonic(), true); ok {
		t.Fatal("TryDo ran inline with work behind the request")
	}

	// Both shards idle: running inline would leave a worker idle beside
	// the caller.
	two := serve.NewPool(answerSnapshot(t, 1), serve.Config{
		Workers: 2,
		Faults:  &serve.Faults{StallEvery: 1, Stall: 200 * time.Millisecond},
	})
	defer two.Close()
	if _, _, ok := two.TryDo(req(2), core.Monotonic(), false); ok {
		t.Fatal("TryDo ran inline with another shard idle")
	}
	if n := two.Metrics().Requests; n != 0 {
		t.Fatalf("a declined TryDo executed %d requests", n)
	}
	// Shard 1 busy: shard 0 runs inline on the caller.
	busy := two.Go(req(1))
	for two.QueueDepths()[1] == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, _, ok := two.TryDo(req(2), core.Monotonic(), true); ok {
		t.Fatal("TryDo ran inline with work behind the request")
	}
	if res, _, ok := two.TryDo(req(2), core.Monotonic(), false); !ok || res.Err != nil || res.Worker != 0 || res.Value.Int() != 5 {
		t.Fatalf("other shard busy: %+v, %v; want 5 from worker 0 inline", res, ok)
	}
	if res := busy.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}

	closedOff := serve.NewPool(answerSnapshot(t, 1), serve.Config{Workers: 1, MaxInFlight: -1})
	defer closedOff.Close()
	now = core.Monotonic()
	if res, done, ok := closedOff.TryDo(req(0), now, false); !ok || !errors.Is(res.Err, serve.ErrOverloaded) || done != now {
		t.Fatalf("closed ceiling: %+v, %d, %v; want ErrOverloaded answered at %d", res, done, ok, now)
	}
	one.Close()
	if res, _, ok := one.TryDo(req(0), core.Monotonic(), false); !ok || !errors.Is(res.Err, serve.ErrClosed) {
		t.Fatalf("closed pool: %+v, %v; want ErrClosed answered", res, ok)
	}

	// One P: no worker could run the request before the caller is done
	// with it, so an idle shard runs it inline, whatever waits behind it
	// and however many shards are idle.
	runtime.GOMAXPROCS(1)
	oneP := serve.NewPool(answerSnapshot(t, 1), serve.Config{Workers: 2})
	defer oneP.Close()
	for _, behind := range []bool{false, true} {
		if res, _, ok := oneP.TryDo(req(2), core.Monotonic(), behind); !ok || res.Err != nil || res.Worker != 0 || res.Value.Int() != 5 {
			t.Fatalf("one P, both shards idle, behind %v: %+v, %v; want 5 from worker 0 inline", behind, res, ok)
		}
	}
	// A held shard is busy: the request is left to the queue.
	release := oneP.Quiesce()
	_, _, ok = oneP.TryDo(req(2), core.Monotonic(), false)
	release()
	if ok {
		t.Fatal("one P: TryDo ran inline on a held shard")
	}
	if n := oneP.Metrics().Requests; n != 2 {
		t.Fatalf("one P: %d requests executed, want the 2 run inline", n)
	}
}
