// The -transport binary client: the same workload replay, checksum
// validation, refusal accounting, and backoff story as the HTTP path,
// but over one persistent obwire connection per client. With -pipeline 1
// each send is a synchronous round trip driven through the shared
// retryer — frame statuses map onto the HTTP statuses the retry loop
// already understands, so backoff behaviour carries over byte for byte.
// With -pipeline N each client keeps up to N frames in flight and
// refusals are counted in-band like batch entries: one refused frame is
// one lost send, classified by status, never retried.
package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/httpwire"
	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/word"
)

// binClient is one client's lazily-dialed obwire connection. A transport
// error drops it; the next send redials — the reconnect half of the
// retry story when the server is restarting. Consecutive dial failures
// back off on the retryer's own capped exponential ladder before the
// next attempt, so a client facing a dead address paces its redials
// instead of spinning a tight connect loop against it.
type binClient struct {
	addr  string
	c     *obwire.Client
	fails int // consecutive dial failures; reset by a successful dial

	// Injectable seams so the backoff schedule is unit-testable without
	// a real listener or wall-clock sleeps.
	dial  func(addr string) (*obwire.Client, error)
	delay func(fails int) time.Duration
	sleep func(time.Duration)
}

// newBinClient wires a client to the real dialer and the shared
// retryer's backoff ladder: redials and refused-send retries pace
// themselves off the same capped full-jitter schedule.
func newBinClient(addr string, rt *retryer) *binClient {
	return &binClient{
		addr:  addr,
		dial:  obwire.Dial,
		delay: func(fails int) time.Duration { return rt.backoffDelay(fails-1, 0) },
		sleep: time.Sleep,
	}
}

func (b *binClient) ensure() error {
	if b.c != nil {
		return nil
	}
	if b.fails > 0 {
		// Every attempt after a failure waits out the ladder first: the
		// previous tight-loop redial could hammer a restarting server
		// with thousands of connects per second.
		b.sleep(b.delay(b.fails))
	}
	c, err := b.dial(b.addr)
	if err != nil {
		b.fails++
		return err
	}
	b.fails = 0
	b.c = c
	return nil
}

func (b *binClient) drop() {
	if b.c != nil {
		b.c.Close()
		b.c = nil
	}
}

// do is the synchronous round trip in the retryer's shape: value,
// HTTP-equivalent status, error. Status 0 is a transport failure, which
// also drops the connection so the retry redials.
func (b *binClient) do(req serve.Request) (int32, int, error) {
	if err := b.ensure(); err != nil {
		return 0, 0, err
	}
	r, err := b.c.Do(req)
	if err != nil {
		b.drop()
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

// inflightSend is one pipelined frame awaiting its response: the program
// whose checksum it must answer, and when it was sent — the recorded
// latency spans the whole pipeline residence, which is what the client
// lived through.
type inflightSend struct {
	p  httpwire.ProgramInfo
	t0 time.Time
}

// run replays the suite over obwire. Depth 1 routes every send through
// the retryer (backoff and reconnect included); deeper pipelines keep
// the window full and classify refusals in-band.
func (r binRun) run() {
	bc := newBinClient(r.addr, r.rt)
	defer bc.drop()

	var q []inflightSend
	// recvOne consumes the oldest in-flight response. A transport error
	// loses the entire window: each lost send is a counted failure, the
	// connection drops, and the next send redials.
	recvOne := func() {
		e := q[0]
		q = q[1:]
		resp, err := bc.c.Recv()
		r.record(time.Since(e.t0))
		if err != nil {
			r.refusals.transport.Add(1)
			r.failed.Add(int64(len(q) + 1))
			fmt.Fprintf(os.Stderr, "loadgen: client %d %s: %v (%d pipelined sends lost)\n", r.id, e.p.Name, err, len(q)+1)
			q = q[:0]
			bc.drop()
			return
		}
		switch {
		case !resp.OK():
			// In-band refusal or machine error: counted by kind like a
			// batch entry, one lost send, not retried.
			r.refusals.classifyStatus(resp.Status)
			r.failed.Add(1)
			fmt.Fprintf(os.Stderr, "loadgen: client %d %s: %s\n", r.id, e.p.Name, resp.Err)
		case !r.warm:
			if v, ok := resp.Value.IntOK(); !ok || v != e.p.Check {
				r.failed.Add(1)
				fmt.Fprintf(os.Stderr, "loadgen: client %d %s: checksum %v, want %d\n", r.id, e.p.Name, resp.Value, e.p.Check)
			}
		}
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
			req := serve.Request{Receiver: word.FromInt(recv), Selector: p.Entry, Key: key}

			if r.pipeline <= 1 {
				t0 := time.Now()
				got, err := r.rt.sendVia(func() (int32, int, time.Duration, error) {
					v, status, err := bc.do(req)
					return v, status, 0, err // no Retry-After channel in-band; the ladder alone paces
				})
				r.record(time.Since(t0))
				r.sent.Add(1)
				if err != nil {
					r.failed.Add(1)
					fmt.Fprintf(os.Stderr, "loadgen: client %d %s: %v\n", r.id, p.Name, err)
					continue
				}
				if !r.warm && got != p.Check {
					r.failed.Add(1)
					fmt.Fprintf(os.Stderr, "loadgen: client %d %s: checksum %d, want %d\n", r.id, p.Name, got, p.Check)
				}
				continue
			}

			// Pipelined: redial if the last window died, enqueue, and
			// pull one response whenever the window is full.
			if err := bc.ensure(); err != nil {
				r.refusals.transport.Add(1)
				r.sent.Add(1)
				r.posts.Add(1)
				r.failed.Add(1)
				fmt.Fprintf(os.Stderr, "loadgen: client %d dial: %v\n", r.id, err)
				continue
			}
			if _, err := bc.c.Send(req); err != nil {
				r.refusals.transport.Add(1)
				r.sent.Add(1)
				r.posts.Add(1)
				r.failed.Add(int64(len(q) + 1))
				fmt.Fprintf(os.Stderr, "loadgen: client %d %s: send: %v (%d pipelined sends lost)\n", r.id, p.Name, err, len(q)+1)
				q = q[:0]
				bc.drop()
				continue
			}
			r.sent.Add(1)
			r.posts.Add(1)
			q = append(q, inflightSend{p: p, t0: time.Now()})
			for len(q) >= r.pipeline {
				recvOne()
			}
		}
	}
	for len(q) > 0 {
		recvOne()
	}
}
