package serve_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/gc"
	"repro/internal/memory"
	"repro/internal/serve"
	"repro/internal/smalltalk"
	"repro/internal/word"
	"repro/internal/workload"
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
	if met.Rotations != 1 {
		t.Errorf("rotations = %d, want 1", met.Rotations)
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
// and checks it is genuinely live: its captured accounting includes the
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

// TestSnapshotLiveMidSweep: a checkpoint can land while shard 0's
// incremental collection is mid-sweep, since a cycle's sweep spans
// requests. The capture keeps the heap's mark bits as they are and
// carries no collection: a stamp has none active, answers every suite
// program, and accounts exactly as a stamp of the same capture did when
// stamping deep-copied the machine and dropped the collector's flag (the
// pinned figures were read from that implementation). Shard 0's own
// cycle is undisturbed and finishes.
func TestSnapshotLiveMidSweep(t *testing.T) {
	snap, progs := suiteSnapshot(t)
	pool := serve.NewPool(snap, serve.Config{Workers: 1, GCEvery: 2})
	defer pool.Close()
	// lastSweep answers the work the latest sweep slice left pending;
	// quiescing first waits out a slice still riding behind an answer.
	lastSweep := func() (pending uint64, seen bool) {
		pool.Quiesce()()
		for _, ev := range pool.FlightRecorder().Events() {
			if ev.Kind == flight.KindGCEnd {
				pending, seen = ev.Arg, true
			}
		}
		return pending, seen
	}
	send := func(i int) {
		t.Helper()
		p := progs[i%len(progs)]
		if got, err := pool.Do(serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry}).Int(); err != nil || got != p.Check {
			t.Fatalf("send %d, %s: %d, %v; want %d", i, p.Name, got, err, p.Check)
		}
	}
	sends := 0
	for ; ; sends++ {
		if pending, _ := lastSweep(); pending > 0 {
			break
		}
		if sends == 200 {
			t.Fatal("no sweep slice left work pending after 200 sends")
		}
		send(sends)
	}

	live, err := pool.SnapshotLive()
	if err != nil {
		t.Fatalf("SnapshotLive mid-sweep: %v", err)
	}
	// The capture keeps the heap's mark bits as the mark phase left them.
	st := live.State().Space
	marked := 0
	for _, seg := range st.Segments {
		if seg.Mark && !seg.Freed {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("a mid-sweep capture holds no marked segment")
	}
	if got := live.Stats().Instructions; got != 1027053 {
		t.Errorf("captured at %d instructions, want 1027053", got)
	}
	m := live.NewMachine()
	if m.Space.GCActive() {
		t.Fatal("a stamp of a mid-sweep capture has a collection active")
	}
	m.Space.Live(func(seg *memory.Segment) {
		if seg.Mark != st.Segments[m.Space.SegIndex(seg)].Mark {
			t.Fatalf("a stamp's segment at %#x does not keep its captured mark bit", uint64(seg.Base))
		}
	})
	for _, p := range progs {
		if v, err := workload.RunCOM(m, p); err != nil || v != p.Check {
			t.Fatalf("stamp: %s = %d, %v; want %d", p.Name, v, err, p.Check)
		}
	}
	gcStats := gc.Collect(m)
	wantStats := core.Stats{
		Instructions: 1263481, Cycles: 3657294, Sends: 198211, PrimOps: 535496,
		ControlOps: 529774, Returns: 198225, LIFOReturns: 198225,
		Branches: 208407, TakenBranches: 109388, CtxOperandRefs: 1933475,
		MemRefs: 215463, MemRefsToCtx: 198225, CtxAllocs: 198253, ObjAllocs: 1119,
		SendCycles: 1193868, LookupCycles: 300,
	}
	wantAlloc := memory.AllocStats{
		Allocs: [4]uint64{1119, 304, 34, 19},
		Frees:  [4]uint64{1119, 0, 0, 0},
		Words:  [4]uint64{2423, 9728, 619, 19},
	}
	wantGC := gc.Stats{Marked: 19, SweptObjects: 950, Live: 357}
	if m.Stats != wantStats || m.Space.Stats != wantAlloc || gcStats != wantGC || m.Space.LiveCount() != 357 {
		t.Errorf("stamp accounting diverges:\n core %+v\n want %+v\n alloc %+v\n want %+v\n gc %+v live %d\n want %+v live 357",
			m.Stats, wantStats, m.Space.Stats, wantAlloc, gcStats, m.Space.LiveCount(), wantGC)
	}

	// Shard 0's cycle goes on from where the capture found it.
	for i := 0; ; i++ {
		if pending, _ := lastSweep(); pending == 0 {
			break
		}
		if i == 200 {
			t.Fatal("shard 0's sweep never finished after the capture")
		}
		send(sends + i)
	}
}

// TestSnapshotLiveRotateRace drives SnapshotLive, Rotate and Do loops
// at once. None of the three may fail (an overload refusal excepted),
// every capture answers as the old or the new image, both committed, and
// every capture taken after the last rotation returns answers as the
// new one.
func TestSnapshotLiveRotateRace(t *testing.T) {
	const workers = 2
	old := answerSnapshot(t, 1)
	next := answerSnapshot(t, 2)
	pool := serve.NewPool(old, serve.Config{Workers: workers})
	defer pool.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Traffic loop: requests see either image while rotations swap the
	// shards one at a time, and never fail.
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
			if errors.Is(err, serve.ErrOverloaded) {
				continue
			}
			if err != nil {
				t.Errorf("traffic: %v", err)
				return
			}
			if got != 1 && got != 2 {
				t.Errorf("traffic answered %d, want 1 or 2", got)
				return
			}
		}
	}()

	// Rotation loop: alternate between the images for the race window,
	// ending on next. rotations is read only after rotated closes.
	rotated := make(chan struct{})
	var rotations uint64
	go func() {
		defer close(rotated)
		deadline := time.Now().Add(300 * time.Millisecond)
		for i := 0; ; i++ {
			target := next
			if i%2 == 1 {
				target = old
			}
			if err := pool.Rotate(target); err != nil {
				t.Errorf("rotation %d: %v", i, err)
				return
			}
			rotations++
			if target == next && !time.Now().Before(deadline) {
				return
			}
		}
	}()

	// Capture loop, on the test goroutine, until three captures have
	// been taken after the last rotation returned.
	racing, settled := 0, 0
	for settled < 3 {
		after := false
		select {
		case <-rotated:
			after = true
		default:
		}
		snap, err := pool.SnapshotLive()
		if err != nil {
			t.Errorf("SnapshotLive: %v", err)
			break
		}
		got, err := snap.NewMachine().Send(word.FromInt(0), "answer")
		if err != nil {
			t.Errorf("capture: %v", err)
			break
		}
		if v := got.Int(); v != 2 && (after || v != 1) {
			t.Errorf("capture answered %d (taken after the last rotation: %v), want 2 or, while rotating, 1", v, after)
			break
		}
		if after {
			settled++
		} else {
			racing++
		}
	}
	close(stop)
	wg.Wait()
	<-rotated
	if racing < 3 {
		t.Errorf("only %d captures raced the rotations; too few to exercise the interleaving", racing)
	}
	if met := pool.Metrics(); met.Rotations != rotations {
		t.Errorf("rotations = %d, want the %d the loop made", met.Rotations, rotations)
	}
}

// blockedIn reports whether some goroutine is waiting for a sync.Mutex
// inside fn, a function name as goroutine stack dumps print it.
func blockedIn(fn string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, _, _ := strings.Cut(g, "\n")
		if strings.Contains(header, "[sync.Mutex.Lock") && strings.Contains(g, fn) {
			return true
		}
	}
	return false
}

// waitBlocked waits until a goroutine is waiting for a sync.Mutex inside
// fn. It fails the test if early (which may be nil) receives first, or
// after 5 s.
func waitBlocked(t *testing.T, fn string, early <-chan error) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !blockedIn(fn); {
		select {
		case err := <-early:
			t.Fatalf("%s returned %v instead of waiting for its lock", fn, err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never waited for its lock", fn)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRotateDuringSnapshotLive: a Rotate issued while a capture waits for
// shard 0 waits its turn and succeeds, and the capture answers as one of
// the two images.
func TestRotateDuringSnapshotLive(t *testing.T) {
	const workers = 2
	next := answerSnapshot(t, 2)
	pool := serve.NewPool(answerSnapshot(t, 1), serve.Config{Workers: workers})
	defer pool.Close()

	release := sync.OnceFunc(pool.Quiesce())
	defer release()
	type capture struct {
		snap *core.Snapshot
		err  error
	}
	captured := make(chan capture, 1)
	go func() {
		snap, err := pool.SnapshotLive()
		captured <- capture{snap, err}
	}()
	waitBlocked(t, "serve.(*Pool).SnapshotLive", nil)
	rotated := make(chan error, 1)
	go func() { rotated <- pool.Rotate(next) }()
	waitBlocked(t, "serve.(*Pool).Rotate", rotated)
	release()

	if err := <-rotated; err != nil {
		t.Fatalf("Rotate issued during a capture: %v, want success", err)
	}
	c := <-captured
	if c.err != nil {
		t.Fatalf("SnapshotLive: %v", c.err)
	}
	got, err := c.snap.NewMachine().Send(word.FromInt(0), "answer")
	if v := got.Int(); err != nil || (v != 1 && v != 2) {
		t.Fatalf("capture answered %d, %v; want 1 or 2", v, err)
	}
	for i := 0; i < workers; i++ {
		req := serve.Request{Receiver: word.FromInt(0), Selector: "answer", Key: uint64(workers + i)}
		if got, err := pool.Do(req).Int(); err != nil || got != 2 {
			t.Fatalf("shard %d after the rotation: %d, %v; want 2", i, got, err)
		}
	}
}

// TestSnapshotLiveLeavesOtherShards: a capture freezes shard 0 only, so
// it returns while shard 1 is still running a request.
func TestSnapshotLiveLeavesOtherShards(t *testing.T) {
	const stall = time.Second
	pool := serve.NewPool(answerSnapshot(t, 1), serve.Config{
		Workers: 2,
		Faults:  &serve.Faults{StallEvery: 1, Stall: stall},
	})
	defer pool.Close()

	start := time.Now()
	busy := pool.Go(serve.Request{Receiver: word.FromInt(0), Selector: "answer", Key: 3})
	// Shard 1 holds its execMu from the request's dispatch event until
	// the stall and the send are done.
	for executing := false; !executing; {
		if time.Since(start) > 5*time.Second {
			t.Fatal("shard 1's request never began executing")
		}
		time.Sleep(time.Millisecond)
		for _, ev := range pool.FlightRecorder().Ring(1).Snapshot(nil) {
			executing = executing || ev.Kind == flight.KindDispatch
		}
	}
	if _, err := pool.SnapshotLive(); err != nil {
		t.Fatalf("SnapshotLive: %v", err)
	}
	if d := time.Since(start); d >= stall {
		t.Errorf("SnapshotLive returned %v after shard 1's request was submitted, so it waited out that request's %v stall", d, stall)
	}
	if got, err := busy.Wait().Int(); err != nil || got != 1 {
		t.Fatalf("shard 1's request: %d, %v; want 1", got, err)
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
