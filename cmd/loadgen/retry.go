// Client-side backoff: when obarchd pushes back (429 at admission, 503
// for a deadline shed, or the connection itself fails), hammering the
// same node straight away is how a load test turns into a retry storm.
// Refused sends instead retry on exponential backoff with full jitter,
// and every form of pushback is counted so the run report and -out
// artifact show how hard the server defended itself.
package main

import (
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/httpwire"
	"repro/internal/obwire"
)

// refusalCounters aggregates every client's view of server pushback.
type refusalCounters struct {
	retries   atomic.Int64 // backoff-then-retry cycles actually taken
	rejected  atomic.Int64 // 429 admission refusals observed
	shed      atomic.Int64 // 503 deadline sheds observed
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

// classifyStatus is classify's binary-transport counterpart: pipelined
// obwire refusals arrive as frame statuses rather than error text.
func (c *refusalCounters) classifyStatus(status uint8) {
	switch status {
	case obwire.StatusOverloaded:
		c.rejected.Add(1)
	case obwire.StatusShed:
		c.shed.Add(1)
	}
}

// retryer drives one client's refused sends through the backoff loop.
// rng is the client's own deterministic stream (shared with its key
// picker), so a seeded run jitters reproducibly.
type retryer struct {
	max   int           // retries after the first attempt
	base  time.Duration // first backoff; doubles per attempt
	rng   interface{ Int64N(int64) int64 }
	c     *refusalCounters
	posts *atomic.Int64 // every HTTP attempt, retries included
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

// retryable classifies one attempt's outcome into the refusal counters
// and reports whether backing off and retrying can help: admission
// refusals and sheds are transient by construction, transport errors
// usually mean the node is restarting, and everything else (machine
// errors, malformed responses) would just fail identically again.
func (r *retryer) retryable(status int, err error) bool {
	switch {
	case err == nil:
		return false
	case status == http.StatusTooManyRequests:
		r.c.rejected.Add(1)
		return true
	case status == http.StatusServiceUnavailable:
		r.c.shed.Add(1)
		return true
	case status == 0:
		r.c.transport.Add(1)
		return true
	}
	return false
}

// sendVia drives one attempt function through the retry loop: refusals
// back off and retry until they stick or the budget runs out, and the
// returned error is the last attempt's. The attempt reports an
// HTTP-equivalent status (0 for transport failure), which is how the
// binary transport shares this loop and its counters with the HTTP one,
// plus the server's Retry-After suggestion (0 when none) as the backoff
// floor for the next attempt.
func (r *retryer) sendVia(via func() (int32, int, time.Duration, error)) (int32, error) {
	for attempt := 0; ; attempt++ {
		val, status, floor, err := via()
		r.posts.Add(1)
		if !r.retryable(status, err) || attempt >= r.max {
			return val, err
		}
		r.c.retries.Add(1)
		time.Sleep(r.backoffDelay(attempt, floor))
	}
}

// send posts one HTTP request through the retry loop.
func (r *retryer) send(addr string, req httpwire.SendRequest) (int32, error) {
	return r.sendVia(func() (int32, int, time.Duration, error) { return send(addr, req) })
}
