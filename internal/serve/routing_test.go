package serve_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/serve"
	"repro/internal/word"
)

// TestJSQRoutingStress is the race-enabled routing stress test: a skewed
// keyspace — two hot affinity keys pinning their shards — plus a keyless
// flood from concurrent clients, under JSQ. It asserts every answer
// checksums, that no shard starves while the hot shards are pinned, and that the queue-depth
// accounting drains back to exactly zero once every result is collected.
func TestJSQRoutingStress(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Log("GOMAXPROCS=1: queues rarely form; still validating accounting and checksums")
	}
	snap, progs := suiteSnapshot(t)
	const workers = 4
	pool := serve.NewPool(snap, serve.Config{Workers: workers})
	defer pool.Close()

	const (
		hotClients     = 2
		keylessClients = 6
		rounds         = 3
	)
	var wg sync.WaitGroup
	run := func(g int, key uint64) {
		defer wg.Done()
		for round := 0; round < rounds; round++ {
			for i, p := range progs {
				req := serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry, Key: key}
				var res serve.Result
				switch i % 2 {
				case 0:
					res = pool.Do(req)
				default:
					res = pool.Go(req).Wait()
				}
				got, err := res.Int()
				if err != nil {
					t.Errorf("client %d %s: %v", g, p.Name, err)
					return
				}
				if got != p.Check {
					t.Errorf("client %d %s: checksum %d, want %d", g, p.Name, got, p.Check)
					return
				}
				if key != 0 && res.Worker != int(key%workers) {
					t.Errorf("client %d: key %d served by shard %d, want %d", g, key, res.Worker, key%workers)
					return
				}
			}
		}
	}
	for g := 0; g < hotClients; g++ {
		wg.Add(1)
		// Both hot keys pin shard 0 — the maximally skewed keyspace.
		go run(g, uint64(workers*(g+1)))
	}
	for g := 0; g < keylessClients; g++ {
		wg.Add(1)
		go run(hotClients+g, 0)
	}
	wg.Wait()

	// Exact drain: every submitted request has been collected, so every
	// shard's depth counter is back to zero.
	for i, d := range pool.QueueDepths() {
		if d != 0 {
			t.Fatalf("shard %d depth %d after drain, want 0", i, d)
		}
	}
	// No shard starves: the keyless flood reaches every shard even with
	// the hot keys pinning shard 0.
	shards := pool.ShardMetrics()
	var total uint64
	for i, sm := range shards {
		if sm.Requests == 0 {
			t.Fatalf("shard %d served nothing under JSQ", i)
		}
		total += sm.Requests
	}
	want := uint64((hotClients + keylessClients) * rounds * len(progs))
	if total != want {
		t.Fatalf("shards served %d requests in total, want %d", total, want)
	}
	if met := pool.Metrics(); met.Requests != want || met.Errors != 0 {
		t.Fatalf("aggregate metrics %d requests / %d errors, want %d / 0", met.Requests, met.Errors, want)
	}
}

// TestMetricsConsistentSnapshots is the race-enabled torn-read test for
// the seqlock metrics scheme: concurrent readers interleave Metrics and
// ShardMetrics with serving traffic and assert the invariants a torn
// merge would break — the aggregate request count can never exceed the
// per-shard sum read afterwards, and every per-shard snapshot is
// internally consistent (errors ≤ requests, timeouts ≤ errors, max ≤
// total latency, ITLB hits ≤ lookups).
func TestMetricsConsistentSnapshots(t *testing.T) {
	snap, progs := suiteSnapshot(t)
	pool := serve.NewPool(snap, serve.Config{Workers: 4, GCEvery: 8})
	defer pool.Close()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				total := pool.Metrics()
				shards := pool.ShardMetrics()
				var sum uint64
				for i, sm := range shards {
					sum += sm.Requests
					if sm.Errors > sm.Requests {
						t.Errorf("shard %d: errors %d > requests %d", i, sm.Errors, sm.Requests)
						return
					}
					if sm.Timeouts > sm.Errors {
						t.Errorf("shard %d: timeouts %d > errors %d", i, sm.Timeouts, sm.Errors)
						return
					}
					if sm.MaxLatency > sm.TotalLatency {
						t.Errorf("shard %d: max latency %v > total %v", i, sm.MaxLatency, sm.TotalLatency)
						return
					}
					if sm.ITLB.Hits > sm.ITLB.Total {
						t.Errorf("shard %d: ITLB hits %d > lookups %d", i, sm.ITLB.Hits, sm.ITLB.Total)
						return
					}
				}
				if total.Requests > sum {
					t.Errorf("aggregate %d requests exceeds later per-shard sum %d (torn merge)", total.Requests, sum)
					return
				}
			}
		}()
	}

	var clients sync.WaitGroup
	for g := 0; g < 4; g++ {
		clients.Add(1)
		go func(g int) {
			defer clients.Done()
			for round := 0; round < 3; round++ {
				for _, p := range progs {
					res := pool.Do(serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry})
					if got, err := res.Int(); err != nil || got != p.Check {
						t.Errorf("client %d %s: %v %v", g, p.Name, got, err)
						return
					}
					// Tick the error counters too: a send the machine
					// rejects, so errors and the abort path interleave
					// with the readers.
					if res = pool.Do(serve.Request{Receiver: word.FromInt(1), Selector: "noSuchSelector"}); res.Err == nil {
						t.Errorf("client %d: unknown selector did not error", g)
						return
					}
				}
			}
		}(g)
	}
	clients.Wait()
	close(stop)
	readers.Wait()

	met := pool.Metrics()
	shards := pool.ShardMetrics()
	var sum uint64
	for _, sm := range shards {
		sum += sm.Requests
	}
	if met.Requests != sum {
		t.Fatalf("quiescent aggregate %d != per-shard sum %d", met.Requests, sum)
	}
	if h := pool.LatencyHistogram(); h.Count() != met.Requests {
		t.Fatalf("latency histogram holds %d samples for %d requests", h.Count(), met.Requests)
	}
}
