// Mixed-transport chaos soak: the binary listener and the HTTP handler
// share one pool, so a node serving both at once under injected faults
// must conserve accounting across the union of the two traffic streams —
// completed + rejected + shed equals exactly what the clients submitted,
// with every refusal classified identically on either wire.
package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/word"
	"repro/internal/workload"
)

// TestMixedTransportChaosSoak drives concurrent HTTP and obwire clients
// at one chaos-armed pool: stalls and clogs against shallow queues force
// organic admission refusals, hair-trigger deadlines on the binary side
// force sheds, and the union of both streams must conserve exactly:
// requests + rejected + shed_expired == submitted. Run under -race this
// also hammers the shared decode/encode histograms and transport
// counters from both wires at once.
func TestMixedTransportChaosSoak(t *testing.T) {
	h, pool := newConfigServer(t, serve.Config{
		Workers:    2,
		QueueDepth: 2,
		Timeout:    30 * time.Second,
		Faults: &serve.Faults{
			Seed:       7,
			StallEvery: 5,
			Stall:      200 * time.Microsecond,
			ClogEvery:  6,
			Clog:       300 * time.Microsecond,
		},
	})
	defer pool.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bin := obwire.Serve(l, pool, obwire.Options{DecodeLat: &h.decLat, EncodeLat: &h.encLat})

	progs := workload.Suite()
	var submitted, completed, machineFailed, rejected, shed atomic.Int64
	classify := func(status int) {
		switch status {
		case http.StatusOK:
			completed.Add(1)
		case http.StatusUnprocessableEntity:
			machineFailed.Add(1)
		case http.StatusTooManyRequests:
			rejected.Add(1)
		case http.StatusServiceUnavailable:
			shed.Add(1)
		default:
			t.Errorf("unclassifiable status %d", status)
		}
	}

	const (
		httpClients = 3
		binClients  = 3
		rounds      = 3
		window      = 8
	)
	var wg sync.WaitGroup
	for g := 0; g < httpClients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, p := range progs {
					body := fmt.Sprintf(`{"receiver": %d, "selector": %q}`, p.Size, p.Entry)
					resp, err := http.Post(ts.URL+"/send", "application/json", strings.NewReader(body))
					if err != nil {
						t.Errorf("POST /send: %v", err)
						return
					}
					resp.Body.Close()
					submitted.Add(1)
					classify(resp.StatusCode)
				}
			}
		}()
	}
	for g := 0; g < binClients; g++ {
		c, err := obwire.DialMux(l.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		// window callers share the client's connection, so up to window
		// frames are in flight on it.
		var next atomic.Int64
		for range window {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < rounds*len(progs); i = int(next.Add(1)) - 1 {
					p := progs[i%len(progs)]
					req := serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry}
					if i%len(progs)%4 == 3 {
						// Expired before it can possibly dispatch: a
						// guaranteed shed, answered in-band as StatusShed.
						req.Timeout = time.Nanosecond
					}
					submitted.Add(1)
					resp, err := c.Do(req)
					if err != nil {
						t.Errorf("client %d: send: %v", g, err)
						return
					}
					classify(statusFromFrame(resp.Status))
				}
			}()
		}
	}
	wg.Wait()
	bin.Shutdown(t.Context())

	met := pool.Metrics()
	if got, want := completed.Load()+machineFailed.Load(), int64(met.Requests); got != want {
		t.Errorf("executed accounting drifted: %d classified vs %d metrics requests", got, want)
	}
	if got, want := rejected.Load(), int64(met.Rejected); got != want {
		t.Errorf("rejection accounting drifted: %d classified vs %d metrics", got, want)
	}
	if got, want := shed.Load(), int64(met.SheddedExpired); got != want {
		t.Errorf("shed accounting drifted: %d classified vs %d metrics", got, want)
	}
	total := int64(met.Requests + met.Rejected + met.SheddedExpired)
	if total != submitted.Load() {
		t.Errorf("conservation violated: requests(%d) + rejected(%d) + shed(%d) = %d, want %d submitted",
			met.Requests, met.Rejected, met.SheddedExpired, total, submitted.Load())
	}
	if shed.Load() == 0 {
		t.Error("hair-trigger deadlines produced no sheds; the soak exercised nothing")
	}

	bs := bin.Stats()
	binSubmitted := submitted.Load() - int64(httpClients*rounds*len(progs))
	if got := int64(bs.FramesIn); got != binSubmitted {
		t.Errorf("binary frames_in %d, want %d", got, binSubmitted)
	}
	if bs.FramesIn != bs.FramesOut {
		t.Errorf("frames_in %d != frames_out %d: a response was dropped", bs.FramesIn, bs.FramesOut)
	}
	if bs.ProtoErrors != 0 {
		t.Errorf("proto_errors %d on well-formed traffic", bs.ProtoErrors)
	}
}

// TestDrainAnswersInFlightBinaryFrames pins the shutdown ordering the
// daemon promises: the HTTP listener closing first must not strand the
// binary side — every frame already pipelined into the obwire window
// when graceful drain begins is answered and flushed before the
// connection closes. Stall faults keep the pool slow enough that the
// window is genuinely in flight (dispatched, unanswered) at drain time;
// under -race this also exercises the drain path against the serving
// path.
func TestDrainAnswersInFlightBinaryFrames(t *testing.T) {
	h, pool := newConfigServer(t, serve.Config{
		Workers:    1,
		QueueDepth: 64,
		Timeout:    30 * time.Second,
		Faults: &serve.Faults{
			Seed:       3,
			StallEvery: 1,
			Stall:      2 * time.Millisecond,
		},
	})
	defer pool.Close()
	ts := httptest.NewServer(h)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bin := obwire.Serve(l, pool, obwire.Options{})

	c, err := obwire.DialMux(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Fill a window: with one stalled worker, most of these are still
	// queued or executing when the drain starts. The receiver is kept
	// small so the work itself is cheap — the stall fault, not the
	// program, is what holds the window open.
	const inFlight = 32
	type answer struct {
		r   obwire.Response
		err error
	}
	answers := make(chan answer, inFlight)
	for i := 0; i < inFlight; i++ {
		go func() {
			r, err := c.Do(serve.Request{Receiver: word.FromInt(8), Selector: "benchRecurse"})
			answers <- answer{r, err}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for bin.Stats().FramesIn < inFlight {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames reached the server", bin.Stats().FramesIn, inFlight)
		}
		time.Sleep(time.Millisecond)
	}

	// The daemon's shutdown order: the HTTP listener is already gone
	// before the binary listener drains. Closing the test server hard
	// proves the binary drain owes nothing to the HTTP side.
	ts.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		bin.Shutdown(t.Context())
	}()

	// Every pipelined frame must come back with a real status — none
	// dropped, none stranded behind the closed listener. MuxClient
	// checks each answer's frame id against its send order.
	seen := make(map[uint64]bool)
	for i := 0; i < inFlight; i++ {
		a := <-answers
		if a.err != nil {
			t.Fatalf("recv %d during drain: %v (frame stranded)", i, a.err)
		}
		if a.r.Status != obwire.StatusOK {
			t.Fatalf("recv %d: status %d: %s", i, a.r.Status, a.r.Err)
		}
		seen[a.r.ID] = true
	}
	if len(seen) != inFlight {
		t.Fatalf("%d distinct frame ids answered, want %d", len(seen), inFlight)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("binary shutdown never finished after answering the window")
	}

	bs := bin.Stats()
	if bs.FramesIn != inFlight || bs.FramesOut != inFlight {
		t.Fatalf("frames in/out = %d/%d, want %d/%d", bs.FramesIn, bs.FramesOut, inFlight, inFlight)
	}
	if bs.ProtoErrors != 0 {
		t.Fatalf("proto_errors %d during graceful drain", bs.ProtoErrors)
	}
}

// statusFromFrame maps an obwire frame status onto the HTTP status the
// same outcome would have produced, pinning the cross-transport contract
// the doc table promises.
func statusFromFrame(s uint8) int {
	switch s {
	case obwire.StatusOK:
		return http.StatusOK
	case obwire.StatusOverloaded:
		return http.StatusTooManyRequests
	case obwire.StatusShed:
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}
