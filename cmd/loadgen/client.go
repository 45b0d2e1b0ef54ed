// One loadgen client, on either wire. It replays the suite and hands
// each send to the next free of its -pipeline lanes, each a goroutine
// with one send in flight. Every lane sends through the client's sender
// (binClient.send over obwire, httpSender over HTTP) and through the one
// retry loop, retryer.send: a depth-1 lane spends -retries on refusals,
// deeper lanes spend none, so there a refusal is counted in-band, one
// lost send, like a batch entry. -batch K replays the suite as POST
// /batch requests instead.
package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpwire"
	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/word"
)

// sender carries one send over a client's wire and answers its frame,
// the server's Retry-After floor (0 when it named none), and an error
// when no answer came back at all.
type sender func(serve.Request) (obwire.Response, time.Duration, error)

// client is everything one client goroutine needs. The counters are
// shared by every client, so the report and -out artifact do not depend
// on the wire.
type client struct {
	id       int
	pipeline int // lanes, each with one send in flight
	retries  int // retry budget of a depth-1 lane
	rounds   int
	warm     bool
	skew     float64
	programs []httpwire.ProgramInfo

	// rng draws the client's keys; each lane and the redialer back off
	// on their own stream split off it, because a rand.Rand is not safe
	// for concurrent use. rt is the retryer they each get a copy of.
	rng    *rand.Rand
	rt     retryer
	record func(time.Duration)

	sent, failed, keyed *atomic.Int64
}

// laneSend is one send handed to a lane: the request, and the program
// whose checksum it must answer.
type laneSend struct {
	p   httpwire.ProgramInfo
	req serve.Request
}

// split answers a copy of the client's retryer on a fresh stream drawn
// from the client's.
func (cl *client) split() *retryer {
	rt := cl.rt
	rt.rng = rand.New(rand.NewPCG(cl.rng.Uint64(), cl.rng.Uint64()))
	return &rt
}

// replay hands send the suite's sends in order, rounds times over, each
// keyed from the client's stream.
func (cl *client) replay(send func(httpwire.ProgramInfo, serve.Request)) {
	for range cl.rounds {
		for _, p := range cl.programs {
			recv := p.Size
			if cl.warm {
				recv = p.Warm
			}
			key := pickKey(cl.rng, cl.skew)
			if key != 0 {
				cl.keyed.Add(1)
			}
			send(p, serve.Request{Receiver: word.FromInt(recv), Selector: p.Entry, Key: key})
		}
	}
}

// run replays the suite through via on the client's lanes and returns
// once every lane has finished.
func (cl *client) run(via sender) {
	var mu sync.Mutex // the client's latency recorder is not concurrent
	record := func(d time.Duration) {
		mu.Lock()
		cl.record(d)
		mu.Unlock()
	}
	retries := 0
	if cl.pipeline <= 1 {
		retries = cl.retries
	}
	sends := make(chan laneSend)
	var wg sync.WaitGroup
	for range min(cl.pipeline, obwire.DefaultWindow) {
		wg.Add(1)
		go func(rt *retryer) {
			defer wg.Done()
			cl.lane(via, rt, retries, record, sends)
		}(cl.split())
	}
	cl.replay(func(p httpwire.ProgramInfo, req serve.Request) { sends <- laneSend{p, req} })
	close(sends)
	wg.Wait()
}

// lane runs sends one at a time until sends closes and counts each
// exactly once. The recorded latency is what the client lived through:
// refused attempts and their backoffs included.
func (cl *client) lane(via sender, rt *retryer, retries int, record func(time.Duration), sends <-chan laneSend) {
	for s := range sends {
		cl.sent.Add(1)
		t0 := time.Now()
		resp, err := rt.send(via, s.req, retries)
		record(time.Since(t0))
		switch v, ok := resp.Value.IntOK(); {
		case err != nil:
			cl.fail(s.p, err)
		case !resp.OK():
			cl.fail(s.p, resp.Err)
		case !ok || (!cl.warm && v != s.p.Check):
			cl.fail(s.p, fmt.Sprintf("checksum %v, want %d", resp.Value, s.p.Check))
		}
	}
}

// fail counts one lost send and says why.
func (cl *client) fail(p httpwire.ProgramInfo, why any) {
	cl.failed.Add(1)
	fmt.Fprintf(os.Stderr, "loadgen: client %d %s: %v\n", cl.id, p.Name, why)
}

// runBatch replays the suite as POST /batch requests of k sends each.
// Refusals arrive in-band per send under HTTP 200 and are counted by
// their error text, not retried: a refused entry is one lost send.
func (cl *client) runBatch(addr string, k int) {
	var reqs []httpwire.SendRequest
	var expect []httpwire.ProgramInfo
	flush := func() {
		if len(reqs) == 0 {
			return
		}
		t0 := time.Now()
		got, err := sendBatch(addr, reqs)
		cl.record(time.Since(t0))
		cl.rt.posts.Add(1)
		cl.sent.Add(int64(len(reqs)))
		if err != nil {
			cl.failed.Add(int64(len(reqs)))
			fmt.Fprintf(os.Stderr, "loadgen: client %d batch: %v\n", cl.id, err)
		} else {
			for i, p := range expect {
				switch {
				case got[i].Error != "":
					cl.rt.c.classify(got[i].Error)
					cl.fail(p, got[i].Error)
				case !cl.warm:
					if f, ok := got[i].Result.(float64); !ok || int32(f) != p.Check {
						cl.fail(p, fmt.Sprintf("checksum %v, want %d", got[i].Result, p.Check))
					}
				}
			}
		}
		reqs, expect = reqs[:0], expect[:0]
	}
	cl.replay(func(p httpwire.ProgramInfo, req serve.Request) {
		reqs = append(reqs, wireRequest(req))
		expect = append(expect, p)
		if len(reqs) >= k {
			flush()
		}
	})
	flush()
}
