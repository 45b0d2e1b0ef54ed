// The -transport binary sender: one persistent obwire.MuxClient per
// client, shared by all its lanes, so up to -pipeline frames are in
// flight per client, and redialed once for all of them when it dies.
package main

import (
	"sync"
	"time"

	"repro/internal/obwire"
	"repro/internal/serve"
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

// send runs one frame over the shared connection: it is the client's
// sender over obwire. A frame carries no Retry-After, so the floor is
// always 0 and the ladder alone paces. An error is connection-level: the
// connection is dropped, so the next send redials.
func (b *binClient) send(req serve.Request) (obwire.Response, time.Duration, error) {
	c, err := b.conn()
	if err != nil {
		return obwire.Response{}, 0, err
	}
	r, err := c.Do(req)
	if err != nil {
		b.drop(c)
	}
	return r, 0, err
}

// runBinary runs cl's lanes over one lazily dialed obwire connection and
// hangs it up once they are done. The redialer backs off on its own rng
// stream, split off the client's before the lanes split theirs.
func (cl *client) runBinary(addr string) {
	bc := newBinClient(addr, cl.split())
	cl.run(bc.send)
	if bc.c != nil {
		bc.c.Close()
	}
}
