// Mixed-transport chaos soak: the binary listener and the HTTP handler
// share one pool, so a node serving both at once under injected faults
// must conserve accounting across the union of the two traffic streams —
// completed + rejected + shed equals exactly what the clients submitted,
// with every refusal classified identically on either wire.
package main

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/node"
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
	n := startSuiteNode(t, serve.Config{
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
					resp, err := http.Post(url(n)+"/send", "application/json", strings.NewReader(body))
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
		c, err := obwire.DialMux(n.BinaryAddr())
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
	n.Shutdown(t.Context())

	met := n.Pool().Metrics()
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

	bs := binaryStats(t, n)
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
// node promises: draining the HTTP listener must not strand the binary
// side — every frame already pipelined into the obwire window when
// Shutdown begins is answered and flushed before the connection closes,
// and only then is the pool closed. Stall faults keep the pool slow enough that the
// window is genuinely in flight (dispatched, unanswered) at drain time;
// under -race this also exercises the drain path against the serving
// path.
func TestDrainAnswersInFlightBinaryFrames(t *testing.T) {
	n := startSuiteNode(t, serve.Config{
		Workers:    1,
		QueueDepth: 64,
		Timeout:    30 * time.Second,
		Faults: &serve.Faults{
			Seed:       3,
			StallEvery: 1,
			Stall:      2 * time.Millisecond,
		},
	})

	c, err := obwire.DialMux(n.BinaryAddr())
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
	for binaryStats(t, n).FramesIn < inFlight {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames reached the server", binaryStats(t, n).FramesIn, inFlight)
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		n.Shutdown(t.Context())
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
		t.Fatal("Shutdown never finished after answering the window")
	}

	bs := binaryStats(t, n)
	if bs.FramesIn != inFlight || bs.FramesOut != inFlight {
		t.Fatalf("frames in/out = %d/%d, want %d/%d", bs.FramesIn, bs.FramesOut, inFlight, inFlight)
	}
	if bs.ProtoErrors != 0 {
		t.Fatalf("proto_errors %d during graceful drain", bs.ProtoErrors)
	}
}

func binaryStats(t *testing.T, n *node.Node) obwire.Stats {
	t.Helper()
	var st struct {
		Binary obwire.Stats `json:"binary"`
	}
	statsOf(t, n, &st)
	return st.Binary
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
