// Client-side backoff: when obarchd pushes back (an admission refusal, a
// deadline shed, or the connection itself fails), hammering the same node
// straight away is how a load test turns into a retry storm. Refused
// sends instead retry on exponential backoff with full jitter, and every
// form of pushback is counted so the run report and -out artifact show
// how hard the server defended itself. Both wires speak one taxonomy, the
// obwire frame status: the HTTP sender maps its answers onto it.
package main

import (
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obwire"
	"repro/internal/serve"
)

// refusalCounters aggregates every client's view of server pushback.
type refusalCounters struct {
	retries   atomic.Int64 // backoff-then-retry cycles actually taken
	rejected  atomic.Int64 // admission refusals observed (429, StatusOverloaded)
	shed      atomic.Int64 // deadline sheds observed (503, StatusShed)
	transport atomic.Int64 // connection-level failures observed
}

// classify sorts one inline batch failure by its error text: the batch
// path reports per-send refusals in-band under HTTP 200, so the message
// is all there is to go on. Unrecognised errors are real failures and
// stay unclassified.
func (c *refusalCounters) classify(msg string) {
	switch {
	case strings.Contains(msg, "overloaded"):
		c.rejected.Add(1)
	case strings.Contains(msg, "expired"):
		c.shed.Add(1)
	}
}

// refused sorts one attempt's outcome, on either wire, into the counters
// and reports whether backing off and retrying can help: admission
// refusals and sheds are transient by construction, and a transport
// error usually means the node is restarting. Everything else (a machine
// error, a malformed answer) would fail identically again and stays
// unclassified.
func (c *refusalCounters) refused(status uint8, err error) bool {
	switch {
	case err != nil:
		c.transport.Add(1)
	case status == obwire.StatusOverloaded:
		c.rejected.Add(1)
	case status == obwire.StatusShed:
		c.shed.Add(1)
	default:
		return false
	}
	return true
}

// retryer drives one lane's refused sends through the backoff loop. rng
// is the lane's own deterministic stream, split off its client's, so a
// seeded run jitters reproducibly.
type retryer struct {
	base  time.Duration // first backoff; doubles per attempt
	rng   interface{ Int64N(int64) int64 }
	c     *refusalCounters
	posts *atomic.Int64 // every attempt on either wire, retries included
}

// maxRetryAfter caps how long a server-suggested Retry-After can hold
// the client: honoring an arbitrary header value would let one bad
// response park a load generator forever.
const maxRetryAfter = 5 * time.Second

// backoffDelay is full-jitter exponential backoff: uniform over
// (0, base<<attempt], capped at one second. Full jitter (rather than
// jitter around the midpoint) is what de-synchronises a fleet of
// clients that were all refused by the same overload spike. floor, when
// positive, is the server's own Retry-After suggestion: the jittered
// delay never comes back sooner than the server asked (bounded by
// maxRetryAfter), because a server that names a time knows more about
// its recovery than our exponent does.
func (r *retryer) backoffDelay(attempt int, floor time.Duration) time.Duration {
	d := r.base << attempt
	if d > time.Second || d <= 0 {
		d = time.Second
	}
	delay := time.Duration(r.rng.Int64N(int64(d))) + 1
	if floor > maxRetryAfter {
		floor = maxRetryAfter
	}
	if delay < floor {
		delay = floor
	}
	return delay
}

// retryAfter reads a response's Retry-After header as a delay floor:
// delta-seconds per RFC 9110 (the only form obarchd and obrouter emit),
// 0 when absent or unparseable. The HTTP-date form is deliberately
// ignored rather than guessed at.
func retryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// send drives one request through the retry loop: every attempt is
// counted and classified, a refusal backs off and retries until it
// sticks or the retries run out, and the last attempt's answer comes
// back. The server's Retry-After, when it names one, is the next
// backoff's floor.
func (r *retryer) send(via sender, req serve.Request, retries int) (obwire.Response, error) {
	for attempt := 0; ; attempt++ {
		resp, floor, err := via(req)
		r.posts.Add(1)
		if !r.c.refused(resp.Status, err) || attempt >= retries {
			return resp, err
		}
		r.c.retries.Add(1)
		time.Sleep(r.backoffDelay(attempt, floor))
	}
}
