// The -transport binary client: the same workload replay, checksum
// validation, refusal accounting, and backoff story as the HTTP path,
// but over one persistent obwire.MuxClient per client. -pipeline N runs
// N lanes, each a goroutine with one send in flight, all sharing that
// connection, so up to N frames are in flight per client. With
// -pipeline 1 the one lane drives each send through the shared retryer
// — frame statuses map onto the HTTP statuses the retry loop already
// understands, so backoff behaviour carries over byte for byte. With
// -pipeline N > 1 refusals are counted in-band like batch entries: one
// refused frame is one lost send, classified by status, never retried.
package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpwire"
	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/word"
)

// binClient is one client's lazily-dialed obwire connection, shared by
// its lanes. A send that dies on the connection drops it; the next send
// on any lane redials it, once for all of them — the reconnect half of
// the retry story when the server is restarting. Consecutive dial
// failures back off on the retryer's own capped exponential ladder
// before the next attempt, so a client facing a dead address paces its
// redials instead of spinning a tight connect loop against it.
type binClient struct {
	addr  string
	mu    sync.Mutex // held across a dial, so waiting lanes reuse its result
	c     *obwire.MuxClient
	fails int // consecutive dial failures; reset by a successful dial

	// Injectable seams so the backoff schedule is unit-testable without
	// a real listener or wall-clock sleeps.
	dial  func(addr string) (*obwire.MuxClient, error)
	delay func(fails int) time.Duration
	sleep func(time.Duration)
}

// newBinClient wires a client to the real dialer and the shared
// retryer's backoff ladder: redials and refused-send retries pace
// themselves off the same capped full-jitter schedule.
func newBinClient(addr string, rt *retryer) *binClient {
	return &binClient{
		addr:  addr,
		dial:  obwire.DialMux,
		delay: func(fails int) time.Duration { return rt.backoffDelay(fails-1, 0) },
		sleep: time.Sleep,
	}
}

// conn answers the live connection, dialing one if there is none.
func (b *binClient) conn() (*obwire.MuxClient, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.c != nil {
		return b.c, nil
	}
	if b.fails > 0 {
		// Every attempt after a failure waits out the ladder first: a
		// tight-loop redial could hammer a restarting server with
		// thousands of connects per second.
		b.sleep(b.delay(b.fails))
	}
	c, err := b.dial(b.addr)
	if err != nil {
		b.fails++
		return nil, err
	}
	b.fails = 0
	b.c = c
	return c, nil
}

// drop closes c and forgets it, unless it is already gone: every lane
// whose send died on c drops it, and only the first one does anything.
func (b *binClient) drop(c *obwire.MuxClient) {
	b.mu.Lock()
	mine := b.c == c
	if mine {
		b.c = nil
	}
	b.mu.Unlock()
	if mine {
		c.Close()
	}
}

// send runs one frame over the shared connection. An error is
// connection-level: the connection is dropped, so the next send redials.
func (b *binClient) send(req serve.Request) (obwire.Response, error) {
	c, err := b.conn()
	if err != nil {
		return obwire.Response{}, err
	}
	r, err := c.Do(req)
	if err != nil {
		b.drop(c)
	}
	return r, err
}

// do is the synchronous round trip in the retryer's shape: value,
// HTTP-equivalent status, error. Status 0 is a transport failure.
func (b *binClient) do(req serve.Request) (int32, int, error) {
	r, err := b.send(req)
	if err != nil {
		return 0, 0, err
	}
	if !r.OK() {
		return 0, httpwire.Status(r.Status), fmt.Errorf("server error: %s", r.Err)
	}
	v, ok := r.Value.IntOK()
	if !ok {
		return 0, http.StatusOK, fmt.Errorf("non-integer result %v", r.Value)
	}
	return v, http.StatusOK, nil
}

// binRun is everything one binary-transport client goroutine needs —
// the shared counters are the same ones the HTTP path feeds, so the
// report and -out artifact are transport-agnostic.
type binRun struct {
	id       int
	addr     string
	pipeline int
	rounds   int
	warm     bool
	skew     float64
	programs []httpwire.ProgramInfo

	rng    *rand.Rand
	rt     *retryer
	record func(time.Duration)

	sent, posts, failed, keyed *atomic.Int64
	refusals                   *refusalCounters
}

// binSend is one send handed to a lane: the request, and the program
// whose checksum it must answer.
type binSend struct {
	p   httpwire.ProgramInfo
	req serve.Request
}

// run replays the suite over obwire: this goroutine picks each send's
// key and hands it to the next free lane, and returns once every lane
// has finished and the connection is closed.
func (r binRun) run() {
	// A rand.Rand is not safe for concurrent use, so the redialer and
	// each lane back off on their own streams, split off the client's.
	split := func() *retryer {
		rt := *r.rt
		rt.rng = rand.New(rand.NewPCG(r.rng.Uint64(), r.rng.Uint64()))
		return &rt
	}
	bc := newBinClient(r.addr, split())
	var mu sync.Mutex // the client's latency recorder is not concurrent
	record := func(d time.Duration) {
		mu.Lock()
		r.record(d)
		mu.Unlock()
	}
	sends := make(chan binSend)
	var wg sync.WaitGroup
	for range min(r.pipeline, obwire.DefaultWindow) {
		wg.Add(1)
		go func(rt *retryer) {
			defer wg.Done()
			for s := range sends {
				r.lane(bc, rt, record, s)
			}
		}(split())
	}
	for round := 0; round < r.rounds; round++ {
		for _, p := range r.programs {
			recv := p.Size
			if r.warm {
				recv = p.Warm
			}
			key := pickKey(r.rng, r.skew)
			if key != 0 {
				r.keyed.Add(1)
			}
			sends <- binSend{p: p, req: serve.Request{Receiver: word.FromInt(recv), Selector: p.Entry, Key: key}}
		}
	}
	close(sends)
	wg.Wait()
	if bc.c != nil {
		bc.c.Close()
	}
}

// lane runs one send to completion and counts it exactly once. Depth 1
// routes it through the retryer (backoff and reconnect included); deeper
// pipelines count a refusal in-band and a transport error as one lost
// send, never retried.
func (r binRun) lane(bc *binClient, rt *retryer, record func(time.Duration), s binSend) {
	r.sent.Add(1)
	t0 := time.Now()
	if r.pipeline <= 1 {
		got, err := rt.sendVia(func() (int32, int, time.Duration, error) {
			v, status, err := bc.do(s.req)
			return v, status, 0, err // no Retry-After channel in-band; the ladder alone paces
		})
		record(time.Since(t0))
		switch {
		case err != nil:
			r.failed.Add(1)
			fmt.Fprintf(os.Stderr, "loadgen: client %d %s: %v\n", r.id, s.p.Name, err)
		case !r.warm && got != s.p.Check:
			r.failed.Add(1)
			fmt.Fprintf(os.Stderr, "loadgen: client %d %s: checksum %d, want %d\n", r.id, s.p.Name, got, s.p.Check)
		}
		return
	}
	r.posts.Add(1)
	resp, err := bc.send(s.req)
	record(time.Since(t0))
	switch {
	case err != nil:
		r.refusals.transport.Add(1)
		r.failed.Add(1)
		fmt.Fprintf(os.Stderr, "loadgen: client %d %s: %v\n", r.id, s.p.Name, err)
	case !resp.OK():
		// In-band refusal or machine error: counted by kind like a
		// batch entry, one lost send, not retried.
		r.refusals.classifyStatus(resp.Status)
		r.failed.Add(1)
		fmt.Fprintf(os.Stderr, "loadgen: client %d %s: %s\n", r.id, s.p.Name, resp.Err)
	case !r.warm:
		if v, ok := resp.Value.IntOK(); !ok || v != s.p.Check {
			r.failed.Add(1)
			fmt.Fprintf(os.Stderr, "loadgen: client %d %s: checksum %v, want %d\n", r.id, s.p.Name, resp.Value, s.p.Check)
		}
	}
}
