package serve_test

import (
	"testing"

	"repro/internal/serve"
	"repro/internal/word"
)

// TestRequestLifecycleZeroAlloc pins the tentpole bar outside the bench
// suite: a warm pool serves Do (inline and queued) and Go without
// touching the Go heap.
func TestRequestLifecycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool reuse; allocation bar is enforced by the bench gate")
	}
	snap, progs := suiteSnapshot(t)
	p := progs[0]
	req := serve.Request{Receiver: word.FromInt(p.Warm), Selector: p.Entry}

	pool := serve.NewPool(snap, serve.Config{Workers: 1, GCEvery: -1})
	defer pool.Close()
	// Warm the future pool and the machine.
	for i := 0; i < 8; i++ {
		if res := pool.Go(req).Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		if res := pool.Do(req); res.Err != nil {
			t.Fatal(res.Err)
		}
	}); avg != 0 {
		t.Fatalf("Do allocates %.2f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if res := pool.Go(req).Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}); avg != 0 {
		t.Fatalf("Go+Wait allocates %.2f objects per call, want 0", avg)
	}
}
