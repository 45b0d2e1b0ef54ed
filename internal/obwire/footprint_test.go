package obwire

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/word"
)

// liveHeap answers the Go heap still reachable after two collections
// (the second clears what sync.Pools kept from the first).
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestConnFootprint pins what holding a connection costs. 32 client/
// server pairs, each after one tiny send, hold at most 16 KiB of live
// heap apiece. A request carrying 64 KiB of arguments on every pair then
// leaves each pair under the same bound, so no buffer keeps the size of
// the largest frame it has carried. 32 pairs that have carried one ping
// each, the shape of the cluster router's health-ping connection, are
// held to the same bound. Pairs that have each carried a full
// DefaultWindow burst, so that both windows and all four buffers have
// grown to their caps, hold at most 80 KiB apiece.
func TestConnFootprint(t *testing.T) {
	const pairs, bound, grownBound = 32, 16 << 10, 80 << 10
	s, _ := startServer(t, serve.Config{Workers: 1, Timeout: 30 * time.Second}, Options{})
	// One pair first, so the pool's lazy state and sync.Pools are warm.
	warm, err := DialMux(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if r, err := warm.Do(serve.Request{Receiver: word.FromInt(1), Selector: "answer"}); err != nil || !r.OK() {
		t.Fatalf("warm-up send: %+v, %v", r, err)
	}
	if _, _, err := warm.Ping(time.Second); err != nil {
		t.Fatalf("warm-up ping: %v", err)
	}
	dial := func(addr string) *MuxClient {
		m, err := DialMux(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	held := func(what string, pairs int, bound int64, before uint64) {
		t.Helper()
		if got := (int64(liveHeap()) - int64(before)) / int64(pairs); got > bound {
			t.Fatalf("%s, %d pairs hold %d B of live heap each, want at most %d", what, pairs, got, bound)
		} else {
			t.Logf("%s: %d B of live heap per pair", what, got)
		}
	}

	before := liveHeap()
	clients := make([]*MuxClient, pairs)
	for i := range clients {
		clients[i] = dial(s.Addr().String())
		if r, err := clients[i].Do(serve.Request{Receiver: word.FromInt(int32(i)), Selector: "answer"}); err != nil || r.Value.Int() != int32(i)+1 {
			t.Fatalf("pair %d: %+v, %v", i, r, err)
		}
	}
	held("after one tiny send", pairs, bound, before)

	// 13108 five-byte words: a request frame of just over 64 KiB.
	big := serve.Request{Receiver: word.FromInt(1), Selector: "answer", Args: make([]word.Word, 13108)}
	for i := range big.Args {
		big.Args[i] = word.FromInt(int32(i))
	}
	for i, m := range clients {
		if r, err := m.Do(big); err != nil || r.Status != StatusMachineError {
			t.Fatalf("pair %d: 64 KiB request answered %+v, %v; want a machine error", i, r, err)
		}
	}
	big.Args = nil
	held("after a 64 KiB request", pairs, bound, before)

	before = liveHeap()
	for i := 0; i < pairs; i++ {
		if _, _, err := dial(s.Addr().String()).Ping(time.Second); err != nil {
			t.Fatalf("ping-only pair %d: %v", i, err)
		}
	}
	held("after one ping", pairs, bound, before)

	// Every burst queues behind one stalled execution, so each client
	// has DefaultWindow sends in flight and each server reader fills its
	// window before anything is answered.
	const grown, stall = 4, time.Second
	bs, req, unhold := stallingServer(t, 2*grown*DefaultWindow, stall)
	// The runtime keeps every goroutine descriptor it has made; making
	// the bursts' callers once beforehand keeps them out of the count.
	var spawn sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < grown*DefaultWindow; i++ {
		spawn.Add(1)
		go func() {
			defer spawn.Done()
			<-release
		}()
	}
	close(release)
	spawn.Wait()
	before = liveHeap()
	var wg sync.WaitGroup
	bursting := make([]*MuxClient, grown)
	for p := range bursting {
		m := dial(bs.Addr().String())
		bursting[p] = m
		for i := 0; i < DefaultWindow; i++ {
			wg.Add(1)
			go func(recv int32) {
				defer wg.Done()
				r := req
				r.Receiver = word.FromInt(recv)
				if resp, err := m.Do(r); err != nil || !resp.OK() || resp.Value.Int() != recv+1 {
					t.Errorf("burst send %d: %+v, %v; want %d", recv, resp, err, recv+1)
				}
			}(int32(i))
		}
	}
	waitFramesIn(t, bs, 1, time.Now().Add(stall))
	unhold()
	wg.Wait()
	for p, m := range bursting {
		if n := len(m.waiters.ring); n != DefaultWindow {
			t.Fatalf("burst pair %d: the client's window grew to %d slots, want %d", p, n, DefaultWindow)
		}
	}
	held("after a DefaultWindow burst", grown, grownBound, before)
}

// TestLargeFrameRoundTrip sends a selector of about 10 KiB — a request
// frame bigger than the connection's 4 KiB buffers — and requires its
// doesNotUnderstand answer, which names the selector and so is just as
// large, to come back whole; then a tiny send on the same connection.
func TestLargeFrameRoundTrip(t *testing.T) {
	s, _ := startServer(t, serve.Config{Workers: 1, Timeout: 30 * time.Second}, Options{})
	m, err := DialMux(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sel := strings.Repeat("noSuchSelector", 10<<10/len("noSuchSelector"))
	r, err := m.Do(serve.Request{Receiver: word.FromInt(1), Selector: sel})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusMachineError || !strings.Contains(r.Err, "doesNotUnderstand") || !strings.Contains(r.Err, sel) {
		t.Fatalf("10 KiB selector answered status %d, %d-byte error %.80q…", r.Status, len(r.Err), r.Err)
	}
	if r, err := m.Do(serve.Request{Receiver: word.FromInt(41), Selector: "answer"}); err != nil || r.Value.Int() != 42 {
		t.Fatalf("tiny send after the large frame: %+v, %v", r, err)
	}
}

// TestMuxWindowBurst fills a MuxClient's whole window at once:
// DefaultWindow callers released together, far more than 4 KiB of
// frames in each direction, and every caller gets its own answer back.
func TestMuxWindowBurst(t *testing.T) {
	s, _ := startServer(t, serve.Config{Workers: 2, QueueDepth: 2 * DefaultWindow, Timeout: 30 * time.Second}, Options{})
	m, err := DialMux(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < DefaultWindow; i++ {
		wg.Add(1)
		go func(recv int32) {
			defer wg.Done()
			<-start
			r, err := m.Do(serve.Request{Receiver: word.FromInt(recv), Selector: "answer"})
			if err != nil || !r.OK() || r.Value.Int() != recv+1 {
				t.Errorf("send %d: %+v, %v; want %d", recv, r, err, recv+1)
			}
		}(int32(i))
	}
	close(start)
	wg.Wait()
}
