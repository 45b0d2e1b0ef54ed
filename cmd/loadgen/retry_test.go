package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"math/rand/v2"

	"repro/internal/httpwire"
)

func newRetryer(max int, base time.Duration) (*retryer, *refusalCounters, *atomic.Int64) {
	c := &refusalCounters{}
	posts := &atomic.Int64{}
	rng := rand.New(rand.NewPCG(1, 2))
	return &retryer{max: max, base: base, rng: rng, c: c, posts: posts}, c, posts
}

// TestBackoffDelay pins the full-jitter envelope: every delay is drawn
// from (0, base<<attempt], the ceiling doubles per attempt, and the
// whole ladder caps at one second no matter how deep the retry goes.
func TestBackoffDelay(t *testing.T) {
	rt, _, _ := newRetryer(10, 10*time.Millisecond)
	for attempt := 0; attempt < 8; attempt++ {
		ceil := 10 * time.Millisecond << attempt
		if ceil > time.Second {
			ceil = time.Second
		}
		for i := 0; i < 200; i++ {
			d := rt.backoffDelay(attempt, 0)
			if d <= 0 || d > ceil {
				t.Fatalf("attempt %d: delay %v outside (0, %v]", attempt, d, ceil)
			}
		}
	}
	// A base so large the shift overflows must still cap, not wedge.
	rt.base = time.Duration(1) << 60
	if d := rt.backoffDelay(5, 0); d <= 0 || d > time.Second {
		t.Fatalf("overflowing base: delay %v outside (0, 1s]", d)
	}
}

// TestBackoffDelayRetryAfterFloor pins the server-suggested floor: a
// jittered delay never undercuts the Retry-After the server named, and
// a hostile floor is bounded by maxRetryAfter rather than honored.
func TestBackoffDelayRetryAfterFloor(t *testing.T) {
	rt, _, _ := newRetryer(10, time.Microsecond)
	for i := 0; i < 200; i++ {
		if d := rt.backoffDelay(0, 50*time.Millisecond); d < 50*time.Millisecond {
			t.Fatalf("delay %v undercut the 50ms Retry-After floor", d)
		}
	}
	// A floor below the jittered draw must not drag the delay down.
	rt.base = 400 * time.Millisecond
	saw := false
	for i := 0; i < 200; i++ {
		if d := rt.backoffDelay(1, time.Millisecond); d > time.Millisecond {
			saw = true
			break
		}
	}
	if !saw {
		t.Fatal("a 1ms floor clamped every delay down to it")
	}
	if d := rt.backoffDelay(0, time.Hour); d > maxRetryAfter {
		t.Fatalf("hostile Retry-After honored beyond the %v cap: %v", maxRetryAfter, d)
	}
}

// TestRetryAfterHeader pins the header parse: delta-seconds in, 0 for
// absent, garbage, negative, or the HTTP-date form.
func TestRetryAfterHeader(t *testing.T) {
	mk := func(v string) http.Header {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return h
	}
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"1", time.Second},
		{" 2 ", 2 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"soon", 0},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0},
	}
	for _, c := range cases {
		if got := retryAfter(mk(c.in)); got != c.want {
			t.Errorf("retryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestSendSurfacesRetryAfter pins that the HTTP attempt hands the
// header through to the retry loop as its floor.
func TestSendSurfacesRetryAfter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintln(w, `{"result":null,"error":"serve: pool overloaded","worker":0}`)
	}))
	defer ts.Close()
	_, status, floor, err := send(ts.URL, httpwire.SendRequest{Receiver: "1", Selector: "x"})
	if err == nil || status != http.StatusTooManyRequests {
		t.Fatalf("refusal: status=%d err=%v", status, err)
	}
	if floor != time.Second {
		t.Fatalf("floor = %v, want 1s from the Retry-After header", floor)
	}
}

// TestRetrySendEventuallySucceeds: a server that refuses twice with 429
// then serves must cost exactly three posts, two counted rejections, two
// retries — and hand back the real result with no error.
func TestRetrySendEventuallySucceeds(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			// No Retry-After here: with the header honored as a backoff
			// floor, setting it would make this test sleep for real.
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"result":null,"error":"serve: pool overloaded","worker":0}`)
			return
		}
		fmt.Fprintln(w, `{"result":42,"error":"","worker":0}`)
	}))
	defer ts.Close()

	rt, c, posts := newRetryer(3, time.Microsecond)
	got, err := rt.send(ts.URL, httpwire.SendRequest{Receiver: "1", Selector: "x"})
	if err != nil {
		t.Fatalf("retried send failed: %v", err)
	}
	if got != 42 {
		t.Errorf("result = %d, want 42", got)
	}
	if posts.Load() != 3 || c.rejected.Load() != 2 || c.retries.Load() != 2 {
		t.Errorf("posts/rejected/retries = %d/%d/%d, want 3/2/2",
			posts.Load(), c.rejected.Load(), c.retries.Load())
	}
	if c.shed.Load() != 0 || c.transport.Load() != 0 {
		t.Errorf("shed/transport = %d/%d, want 0/0", c.shed.Load(), c.transport.Load())
	}
}

// TestRetrySendBudgetExhausted: a server that always sheds (503) burns
// the whole budget — max retries plus the first attempt — and the last
// refusal surfaces as the error.
func TestRetrySendBudgetExhausted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// No Retry-After: honored as a floor, it would slow this test.
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"result":null,"error":"serve: deadline expired before dispatch","worker":0}`)
	}))
	defer ts.Close()

	rt, c, posts := newRetryer(2, time.Microsecond)
	if _, err := rt.send(ts.URL, httpwire.SendRequest{Receiver: "1", Selector: "x"}); err == nil {
		t.Fatal("exhausted retries answered no error")
	}
	if posts.Load() != 3 || c.shed.Load() != 3 || c.retries.Load() != 2 {
		t.Errorf("posts/shed/retries = %d/%d/%d, want 3/3/2",
			posts.Load(), c.shed.Load(), c.retries.Load())
	}
}

// TestRetrySendMachineErrorNotRetried: a 422 is the machine's final
// answer — one post, no retries, no refusal counts.
func TestRetrySendMachineErrorNotRetried(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusUnprocessableEntity)
		fmt.Fprintln(w, `{"result":null,"error":"doesNotUnderstand: quadruple","worker":0}`)
	}))
	defer ts.Close()

	rt, c, posts := newRetryer(3, time.Microsecond)
	if _, err := rt.send(ts.URL, httpwire.SendRequest{Receiver: "1", Selector: "x"}); err == nil {
		t.Fatal("machine error answered no error")
	}
	if posts.Load() != 1 || c.retries.Load() != 0 || c.rejected.Load() != 0 || c.shed.Load() != 0 {
		t.Errorf("posts/retries/rejected/shed = %d/%d/%d/%d, want 1/0/0/0",
			posts.Load(), c.retries.Load(), c.rejected.Load(), c.shed.Load())
	}
}

// TestRetrySendTransport: a dead endpoint counts transport failures and
// retries them — the node might be mid-restart.
func TestRetrySendTransport(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // the URL now refuses connections

	rt, c, posts := newRetryer(1, time.Microsecond)
	if _, err := rt.send(ts.URL, httpwire.SendRequest{Receiver: "1", Selector: "x"}); err == nil {
		t.Fatal("dead endpoint answered no error")
	}
	if posts.Load() != 2 || c.transport.Load() != 2 || c.retries.Load() != 1 {
		t.Errorf("posts/transport/retries = %d/%d/%d, want 2/2/1",
			posts.Load(), c.transport.Load(), c.retries.Load())
	}
}

// TestClassifyBatchErrors pins the in-band batch refusal classification.
func TestClassifyBatchErrors(t *testing.T) {
	c := &refusalCounters{}
	c.classify("serve: pool overloaded")
	c.classify("serve: deadline expired before dispatch")
	c.classify("doesNotUnderstand: quadruple")
	if c.rejected.Load() != 1 || c.shed.Load() != 1 || c.transport.Load() != 0 {
		t.Errorf("rejected/shed/transport = %d/%d/%d, want 1/1/0",
			c.rejected.Load(), c.shed.Load(), c.transport.Load())
	}
}
