package serve_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/serve"
	"repro/internal/word"
)

// TestFlightEventsUnderTraffic drives Do, Go and pipelined Go and checks
// the recorder holds the chains they should have left: queued requests
// show enqueue→dispatch→exec_end, inline requests show
// exec_start→exec_end, and queue waits feed the queue-wait histogram.
func TestFlightEventsUnderTraffic(t *testing.T) {
	snap, progs := suiteSnapshot(t)
	pool := serve.NewPool(snap, serve.Config{Workers: 2})
	defer pool.Close()
	p := progs[0]
	req := serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry}
	// Keys 1 and 2 pin shards 1 and 0.
	k1, k2 := req, req
	k1.Key, k2.Key = 1, 2

	if res := pool.Do(req); res.Err != nil {
		t.Fatalf("Do: %v", res.Err)
	}
	if res := pool.Go(req).Wait(); res.Err != nil {
		t.Fatalf("Go: %v", res.Err)
	}
	for _, f := range []*serve.Future{pool.Go(k1), pool.Go(k2), pool.Go(k1)} {
		if res := f.Wait(); res.Err != nil {
			t.Fatalf("pipelined Go: %v", res.Err)
		}
	}

	rec := pool.FlightRecorder()
	if rec.Shards() != 2 {
		t.Fatalf("recorder has %d shards, want 2", rec.Shards())
	}
	evs := rec.Events()
	kinds := map[flight.Kind]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	// Do ran inline (idle pool): one exec_start. Go queued one request
	// and the pipelined Go three more, each stamping its own enqueue —
	// four enqueues, four dispatches. Every request ended: five exec_ends.
	if kinds[flight.KindExecStart] != 1 {
		t.Errorf("exec_start count = %d, want 1: %v", kinds[flight.KindExecStart], kinds)
	}
	if kinds[flight.KindEnqueue] != 4 {
		t.Errorf("enqueue count = %d, want 4: %v", kinds[flight.KindEnqueue], kinds)
	}
	if kinds[flight.KindDispatch] != 4 {
		t.Errorf("dispatch count = %d, want 4: %v", kinds[flight.KindDispatch], kinds)
	}
	if kinds[flight.KindExecEnd] != 5 {
		t.Errorf("exec_end count = %d, want 5: %v", kinds[flight.KindExecEnd], kinds)
	}
	if kinds[flight.KindAbort] != 0 {
		t.Errorf("abort count = %d, want 0", kinds[flight.KindAbort])
	}
	// Every dispatched request's wait landed in the queue-wait histogram.
	if h := pool.QueueWaitHistogram(); h.Count() != 4 {
		n := h.Count()
		t.Errorf("queue-wait samples = %d, want 4", n)
	}
	// Per-request chains are coherent: each exec_end's request id has a
	// dispatch or exec_start before it at a timestamp no later.
	starts := map[uint64]int64{}
	for _, ev := range evs {
		if ev.Kind == flight.KindDispatch || ev.Kind == flight.KindExecStart {
			starts[ev.Req] = ev.TS
		}
	}
	ends := 0
	for _, ev := range evs {
		if ev.Kind != flight.KindExecEnd {
			continue
		}
		ends++
		ts, ok := starts[ev.Req]
		if !ok {
			t.Errorf("exec_end for req %d has no start event", ev.Req)
		} else if ev.TS < ts {
			t.Errorf("exec_end for req %d at %d precedes its start at %d", ev.Req, ev.TS, ts)
		}
	}
	if ends != 5 {
		t.Errorf("chained exec_ends = %d, want 5", ends)
	}
}

// TestStagesShareStamps pins the one clock: the submitter's core.Monotonic
// reading is the enqueue stamp (GoAt) or the exec-start stamp (TryDo), a
// dispatch's queue wait is its own timestamp minus the enqueue's, and a
// request's service latency is exactly the distance from its dispatch or
// exec_start event to its exec_end — one reading each, shared by the
// events, the histograms and the Result.
func TestStagesShareStamps(t *testing.T) {
	req := serve.Request{Receiver: word.FromInt(4), Selector: "answer"}
	// last maps each kind to its newest event on the pool's one shard.
	last := func(p *serve.Pool) map[flight.Kind]flight.Event {
		out := map[flight.Kind]flight.Event{}
		for _, ev := range p.FlightRecorder().Events() {
			out[ev.Kind] = ev
		}
		return out
	}

	queued := serve.NewPool(answerSnapshot(t, 1), serve.Config{Workers: 1})
	defer queued.Close()
	epoch := queued.FlightRecorder().Epoch()
	now := core.Monotonic()
	res := queued.GoAt(req, now).Wait()
	if res.Err != nil || res.Value.Int() != 5 {
		t.Fatalf("GoAt: %+v", res)
	}
	ev := last(queued)
	enq, disp, end := ev[flight.KindEnqueue], ev[flight.KindDispatch], ev[flight.KindExecEnd]
	if enq.TS != now-epoch {
		t.Errorf("enqueue TS = %d, want the submitter's reading %d", enq.TS, now-epoch)
	}
	if int64(disp.Arg) != disp.TS-enq.TS {
		t.Errorf("dispatch Arg = %d, want dispatch TS - enqueue TS = %d", disp.Arg, disp.TS-enq.TS)
	}
	if end.TS-disp.TS != int64(res.Latency) {
		t.Errorf("exec_end - dispatch = %d, want Latency %d", end.TS-disp.TS, res.Latency)
	}
	if h := queued.QueueWaitHistogram(); h.Count() != 1 {
		t.Errorf("queue-wait samples = %d, want 1", h.Count())
	}

	inline := serve.NewPool(answerSnapshot(t, 1), serve.Config{Workers: 1})
	defer inline.Close()
	epoch = inline.FlightRecorder().Epoch()
	now = core.Monotonic()
	res, done, ok := inline.TryDo(req, now, false)
	if !ok || res.Err != nil || res.Value.Int() != 5 {
		t.Fatalf("TryDo: %+v, %v", res, ok)
	}
	ev = last(inline)
	start, end := ev[flight.KindExecStart], ev[flight.KindExecEnd]
	if start.TS != now-epoch {
		t.Errorf("exec_start TS = %d, want the caller's reading %d", start.TS, now-epoch)
	}
	if end.TS-start.TS != int64(res.Latency) {
		t.Errorf("TryDo: exec_end - exec_start = %d, want Latency %d", end.TS-start.TS, res.Latency)
	}
	if done-epoch != end.TS {
		t.Errorf("TryDo done = %d, want the exec_end reading %d", done-epoch, end.TS)
	}
	res = inline.Do(req)
	ev = last(inline)
	if start, end := ev[flight.KindExecStart], ev[flight.KindExecEnd]; end.TS-start.TS != int64(res.Latency) {
		t.Errorf("Do: exec_end - exec_start = %d, want Latency %d", end.TS-start.TS, res.Latency)
	}
	if _, ok := ev[flight.KindEnqueue]; ok {
		t.Errorf("the inline lane recorded an enqueue: %v", ev)
	}
}

// TestSlowCapture arms a 1ns threshold so every request is "slow" and
// checks the capture carries the spans, the per-request stats delta, and
// the event chain; then that the ring keeps the newest 32 captures.
func TestSlowCapture(t *testing.T) {
	snap, progs := suiteSnapshot(t)
	pool := serve.NewPool(snap, serve.Config{
		Workers:       1,
		SlowThreshold: time.Nanosecond,
	})
	defer pool.Close()
	if pool.SlowThreshold() != time.Nanosecond {
		t.Fatalf("SlowThreshold = %v", pool.SlowThreshold())
	}
	const keep, sent = 32, 34
	p := progs[0]
	for i := 0; i < sent; i++ {
		req := serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry, Key: uint64(i + 1)}
		if res := pool.Go(req).Wait(); res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
	}
	slow := pool.SlowRequests()
	if len(slow) != keep {
		t.Fatalf("kept %d captures, want %d", len(slow), keep)
	}
	// Newest win: the survivors are requests 3 to 34, oldest first.
	for i, c := range slow {
		if want := uint64(sent - keep + 1 + i); c.Key != want {
			t.Errorf("survivor %d has key %d, want %d", i, c.Key, want)
		}
	}
	for i, c := range slow {
		if c.ID == 0 || c.Worker != 0 || c.Selector != p.Entry {
			t.Errorf("capture %d identity: %+v", i, c)
		}
		if c.Latency <= 0 || c.Steps == 0 || c.When.IsZero() {
			t.Errorf("capture %d spans: latency=%v steps=%d when=%v", i, c.Latency, c.Steps, c.When)
		}
		if c.Stats.Instructions != c.Steps {
			t.Errorf("capture %d stats delta: %d instructions vs %d steps", i, c.Stats.Instructions, c.Steps)
		}
		if len(c.Events) < 3 {
			t.Errorf("capture %d has %d events, want the full chain", i, len(c.Events))
		}
		for _, ev := range c.Events {
			if ev.Req != c.ID {
				t.Errorf("capture %d holds foreign event %+v", i, ev)
			}
		}
	}
}

// TestSlowCaptureDisabledByDefault: no threshold, no captures, no
// pre-stats copying on the hot path.
func TestSlowCaptureDisabledByDefault(t *testing.T) {
	snap, progs := suiteSnapshot(t)
	pool := serve.NewPool(snap, serve.Config{Workers: 1})
	defer pool.Close()
	p := progs[0]
	req := serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry}
	if res := pool.Do(req); res.Err != nil {
		t.Fatalf("Do: %v", res.Err)
	}
	if pool.SlowThreshold() != 0 {
		t.Errorf("SlowThreshold = %v, want 0", pool.SlowThreshold())
	}
	if n := len(pool.SlowRequests()); n != 0 {
		t.Errorf("captured %d requests with capture disabled", n)
	}
}

// TestFlightReaderDuringTraffic drains merged recorder snapshots while
// submitters hammer the pool from several goroutines — the /debug and
// /metrics read pattern, and under -race the serve-level safety test.
func TestFlightReaderDuringTraffic(t *testing.T) {
	snap, progs := suiteSnapshot(t)
	pool := serve.NewPool(snap, serve.Config{Workers: 2, FlightRingSize: 64})
	defer pool.Close()
	p := progs[0]
	const submitters = 3
	const perSubmitter = 40
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry, Key: uint64(g + 1)}
			for i := 0; i < perSubmitter; i++ {
				if res := pool.Do(req); res.Err != nil {
					t.Errorf("submitter %d: %v", g, res.Err)
					return
				}
			}
		}(g)
	}
	rec := pool.FlightRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, ev := range rec.Events() {
				if ev.Kind < flight.KindEnqueue || ev.Kind > flight.KindRestamp {
					t.Errorf("torn event kind: %+v", ev)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if len(rec.Events()) == 0 {
		t.Error("no events survived the traffic")
	}
}
