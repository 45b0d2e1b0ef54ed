package serve_test

import (
	"errors"
	"fmt"
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

// answerSnapshot compiles an image whose answer method adds val — two
// calls with different vals give two behaviourally distinct images, the
// fixture a rotation test needs to see the swap actually take.
func answerSnapshot(t *testing.T, val int) *core.Snapshot {
	t.Helper()
	m := core.New(core.Config{})
	c, err := smalltalk.Compile(fmt.Sprintf(`
extend SmallInt [
	method answer [ ^self + %d ]
]`, val))
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

// TestRotateUnderTraffic is the zero-downtime proof: concurrent clients
// hammer the pool while it rotates onto a behaviourally different image,
// and not one request fails — every result is either the old or the new
// answer, conservation holds, every shard serves the new behaviour
// afterwards, and the machine-level accounting survives the swap.
func TestRotateUnderTraffic(t *testing.T) {
	const workers = 4
	old := answerSnapshot(t, 1)
	next := answerSnapshot(t, 2)
	// The rotate events must survive until the test counts them, so the
	// traffic before the count is bounded: a request leaves at most five
	// events on its shard's ring (enqueue, dispatch, exec_end and a
	// collection slice's two), so budget requests, however they fall
	// across shards, cannot lap a ring of ringSize slots. Clients that
	// find the budget spent wait for the count, then run freely.
	const ringSize = 1 << 16
	const budget = ringSize / 8
	pool := serve.NewPool(old, serve.Config{Workers: workers, FlightRingSize: ringSize})

	req := serve.Request{Receiver: word.FromInt(0), Selector: "answer"}
	var submitted, failed, sawOld, sawNew atomic.Uint64
	var tickets atomic.Int64
	tickets.Store(budget)
	counted := make(chan struct{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if tickets.Add(-1) < 0 {
					<-counted
				}
				submitted.Add(1)
				got, err := pool.Do(req).Int()
				switch {
				case err != nil:
					failed.Add(1)
					t.Errorf("request failed mid-rotation: %v", err)
				case got == 1:
					sawOld.Add(1)
				case got == 2:
					sawNew.Add(1)
				default:
					failed.Add(1)
					t.Errorf("answer = %d, want 1 or 2", got)
				}
			}
		}()
	}

	// Rotate once a quarter of the budget has run, so the swap lands
	// mid-traffic with requests still to spend.
	for submitted.Load() < budget/4 {
		time.Sleep(100 * time.Microsecond)
	}
	if err := pool.Rotate(next); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	// Per-ring snapshots: the merged Events() view sorts, which these
	// rings are too large for.
	rotateEvents := make([]int, workers)
	rec := pool.FlightRecorder()
	for i := 0; i < rec.Shards(); i++ {
		for _, ev := range rec.Ring(i).Snapshot(nil) {
			if ev.Kind == flight.KindRotate {
				rotateEvents[i]++
			}
		}
	}
	close(counted)
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d of %d requests failed during rotation, want 0", failed.Load(), submitted.Load())
	}
	if sawOld.Load() == 0 || sawNew.Load() == 0 {
		t.Errorf("traffic saw old=%d new=%d answers; want both (rotation happened mid-traffic)", sawOld.Load(), sawNew.Load())
	}

	// Every shard serves the new image now — pin a request to each.
	for i := 0; i < workers; i++ {
		keyed := req
		keyed.Key = uint64(workers + i)
		got, err := pool.Do(keyed).Int()
		if err != nil || got != 2 {
			t.Fatalf("shard %d post-rotation: got %d, %v; want 2", i, got, err)
		}
	}

	met := pool.Metrics()
	if met.Rotations != 1 || met.RotateFailures != 0 {
		t.Errorf("rotations = %d, failures = %d; want 1, 0", met.Rotations, met.RotateFailures)
	}
	total := met.Requests + met.Rejected + met.SheddedExpired
	want := submitted.Load() + uint64(workers) // the keyed probes above
	if total != want {
		t.Errorf("conservation: completed %d + rejected %d + shed %d = %d, want %d submitted",
			met.Requests, met.Rejected, met.SheddedExpired, total, want)
	}

	for i, n := range rotateEvents {
		if n != 1 {
			t.Errorf("shard %d's ring holds %d rotate events, want 1", i, n)
		}
	}

	pool.Close()
	// Retired-stats folding: the rotated-out machines' work is still in
	// the totals — at least one instruction per served request.
	if ms := pool.MachineStats(); ms.Instructions < met.Requests {
		t.Errorf("MachineStats lost work across rotation: %d instructions for %d requests", ms.Instructions, met.Requests)
	}
}

// TestRotateRollback injects a stamp failure on the second shard: the
// rotation must report the failure, roll the first shard back, leave
// every shard serving the old image, and count a RotateFailure — the
// pool exactly as found.
func TestRotateRollback(t *testing.T) {
	const workers = 3
	old := answerSnapshot(t, 1)
	next := answerSnapshot(t, 2)
	pool := serve.NewPool(old, serve.Config{
		Workers: workers,
		Faults:  &serve.Faults{RotateFailAt: 2},
	})
	defer pool.Close()

	req := serve.Request{Receiver: word.FromInt(0), Selector: "answer"}
	if got, err := pool.Do(req).Int(); err != nil || got != 1 {
		t.Fatalf("pre-rotation answer: %d, %v; want 1", got, err)
	}

	if err := pool.Rotate(next); err == nil {
		t.Fatal("rotate with an injected stamp failure reported success")
	}

	// All shards still serve the old image, shard 0 (stamped then rolled
	// back) included.
	for i := 0; i < workers; i++ {
		keyed := req
		keyed.Key = uint64(workers + i)
		got, err := pool.Do(keyed).Int()
		if err != nil || got != 1 {
			t.Fatalf("shard %d after rollback: got %d, %v; want 1", i, got, err)
		}
	}

	met := pool.Metrics()
	if met.Rotations != 0 || met.RotateFailures != 1 {
		t.Errorf("rotations = %d, failures = %d; want 0, 1", met.Rotations, met.RotateFailures)
	}
}

// TestRotateClosedAndNil pins the refusal edges: rotating a closed pool
// answers ErrClosed, a nil snapshot is refused, and neither counts as a
// rotation.
func TestRotateClosedAndNil(t *testing.T) {
	old := answerSnapshot(t, 1)
	pool := serve.NewPool(old, serve.Config{Workers: 1})
	if err := pool.Rotate(nil); err == nil {
		t.Error("rotate(nil) succeeded")
	}
	pool.Close()
	if err := pool.Rotate(old); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("rotate on closed pool: %v, want ErrClosed", err)
	}
	if _, err := pool.SnapshotLive(); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("SnapshotLive on closed pool: %v, want ErrClosed", err)
	}
	if met := pool.Metrics(); met.Rotations != 0 {
		t.Errorf("refused rotations still counted: %d", met.Rotations)
	}
}

// TestQuiesceBlocksExecution proves Quiesce is a real request boundary:
// while held, a submitted request queues but does not execute; on
// release it completes normally — delayed, never failed.
func TestQuiesceBlocksExecution(t *testing.T) {
	pool := serve.NewPool(answerSnapshot(t, 1), serve.Config{Workers: 2})
	defer pool.Close()

	release := pool.Quiesce()
	fut := pool.Go(serve.Request{Receiver: word.FromInt(0), Selector: "answer"})
	done := make(chan serve.Result, 1)
	go func() { done <- fut.Wait() }()
	select {
	case res := <-done:
		t.Fatalf("request completed under quiescence: %+v", res)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case res := <-done:
		if got, err := res.Int(); err != nil || got != 1 {
			t.Fatalf("post-release result: %d, %v; want 1", got, err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("request never completed after release")
	}
}

// TestSnapshotLiveReflectsTraffic captures a live snapshot mid-service
// and checks it is genuinely live: its frozen accounting includes the
// instructions traffic executed on shard 0 (the boot snapshot's does
// not), a machine booted from it still serves, and the capture left a
// checkpoint event in the flight recorder.
func TestSnapshotLiveReflectsTraffic(t *testing.T) {
	const workers = 2
	boot := answerSnapshot(t, 1)
	pool := serve.NewPool(boot, serve.Config{Workers: workers})
	defer pool.Close()

	// Pin traffic to shard 0 so the live snapshot (taken from shard 0)
	// provably includes it.
	req := serve.Request{Receiver: word.FromInt(0), Selector: "answer", Key: workers}
	for i := 0; i < 16; i++ {
		if res := pool.Do(req); res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
	}

	snap, err := pool.SnapshotLive()
	if err != nil {
		t.Fatalf("SnapshotLive: %v", err)
	}
	if snap.Stats().Instructions <= boot.Stats().Instructions {
		t.Errorf("live snapshot instructions %d not beyond boot's %d — captured the boot image, not live state",
			snap.Stats().Instructions, boot.Stats().Instructions)
	}
	m := snap.NewMachine()
	got, err := m.Send(word.FromInt(0), "answer")
	if err != nil {
		t.Fatalf("machine from live snapshot: %v", err)
	}
	if v := got.Int(); v != 1 {
		t.Fatalf("live snapshot machine answered %d, want 1", v)
	}

	checkpointEvents := 0
	for _, ev := range pool.FlightRecorder().Events() {
		if ev.Kind == flight.KindCheckpoint {
			checkpointEvents++
		}
	}
	if checkpointEvents != 1 {
		t.Errorf("flight recorder holds %d checkpoint events, want 1", checkpointEvents)
	}

	// The pool kept serving after the capture.
	if got, err := pool.Do(req).Int(); err != nil || got != 1 {
		t.Fatalf("post-capture request: %d, %v; want 1", got, err)
	}
}

// TestSnapshotLiveRotateRace pins the capture/rotation exclusion rule:
// a live snapshot must never observe a mid-swap pool. The chaos fault
// makes every rotation swap shard 0 onto the new image and then roll it
// back (the stamp of the last shard fails), so the pool's durable state
// is always the old image — yet before SnapshotLive serialized with
// Rotate via rotMu, a capture could quiesce inside the swap window and
// freeze the new image: a checkpoint of state the operator believes was
// reverted. Concurrent SnapshotLive/Rotate/Do loops drive the window;
// every captured snapshot must answer as the old image.
func TestSnapshotLiveRotateRace(t *testing.T) {
	const workers = 2
	old := answerSnapshot(t, 1)
	next := answerSnapshot(t, 2)
	pool := serve.NewPool(old, serve.Config{
		Workers: workers,
		// Fail the forward stamp of the last shard: shard 0 swaps to
		// next, then the whole rotation rolls back to old.
		Faults: &serve.Faults{RotateFailAt: workers},
	})
	defer pool.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Rotation loop: every attempt either loses rotMu to a capture
	// (ErrRotating) or runs the swap-then-rollback sequence. Neither may
	// ever commit.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := pool.Rotate(next); err == nil {
				t.Error("chaos-injected rotation reported success")
				return
			}
		}
	}()

	// Traffic loop: requests may transiently see the new image inside
	// the swap window (zero-downtime rotation serves shard-by-shard),
	// but must never fail outright.
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := serve.Request{Receiver: word.FromInt(0), Selector: "answer"}
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, err := pool.Do(req).Int()
			if err != nil {
				if errors.Is(err, serve.ErrOverloaded) {
					continue
				}
				// ErrClosed means the main goroutine already failed and
				// its deferred Close won; don't bury the real assertion.
				if !errors.Is(err, serve.ErrClosed) {
					t.Errorf("traffic: %v", err)
				}
				return
			}
			if got != 1 && got != 2 {
				t.Errorf("traffic answered %d, want 1 or 2", got)
				return
			}
		}
	}()

	// Capture loop, on the test goroutine: every snapshot must reflect
	// the old image — a capture answering 2 froze a rolled-back swap.
	deadline := time.Now().Add(500 * time.Millisecond)
	captures := 0
	for time.Now().Before(deadline) {
		snap, err := pool.SnapshotLive()
		if err != nil {
			t.Fatalf("SnapshotLive: %v", err)
		}
		captures++
		m := snap.NewMachine()
		got, err := m.Send(word.FromInt(0), "answer")
		if err != nil {
			t.Fatalf("capture %d: %v", captures, err)
		}
		if v := got.Int(); v != 1 {
			t.Fatalf("capture %d answered %d, want 1 — snapshot persisted a mid-swap image the rotation rolled back", captures, v)
		}
	}
	close(stop)
	wg.Wait()
	if captures < 3 {
		t.Fatalf("only %d captures in the race window; too few to exercise the interleaving", captures)
	}
	if met := pool.Metrics(); met.Rotations != 0 {
		t.Fatalf("rotations = %d, want 0 (every attempt was chaos-failed)", met.Rotations)
	}
}

// TestRotateConcurrentRefused pins the single-rotation rule: a second
// Rotate while one is mid-swap answers ErrRotating instead of
// interleaving half-swaps.
func TestRotateConcurrentRefused(t *testing.T) {
	old := answerSnapshot(t, 1)
	next := answerSnapshot(t, 2)
	pool := serve.NewPool(old, serve.Config{Workers: 2})
	defer pool.Close()

	// Hold shard 0's turn by quiescing on a side goroutine is not
	// possible without deadlock (Rotate wants the same locks), so race
	// two rotations instead: exactly one must win; the loser either
	// sees ErrRotating or runs after the winner (both legal), but never
	// a torn pool.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- pool.Rotate(next) }()
	}
	e1, e2 := <-errs, <-errs
	if e1 != nil && e2 != nil {
		t.Fatalf("both rotations failed: %v / %v", e1, e2)
	}
	got, err := pool.Do(serve.Request{Receiver: word.FromInt(0), Selector: "answer"}).Int()
	if err != nil || got != 2 {
		t.Fatalf("post-race answer: %d, %v; want 2", got, err)
	}
}
