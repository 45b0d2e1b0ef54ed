package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/word"
)

func newRetryer(base time.Duration) (*retryer, *refusalCounters, *atomic.Int64) {
	c := &refusalCounters{}
	posts := &atomic.Int64{}
	rng := rand.New(rand.NewPCG(1, 2))
	return &retryer{base: base, rng: rng, c: c, posts: posts}, c, posts
}

// req is the one send the retry tests make.
var req = serve.Request{Receiver: word.FromInt(1), Selector: "x"}

// TestBackoffDelay pins the full-jitter envelope: every delay is drawn
// from (0, base<<attempt], the ceiling doubles per attempt, and the
// whole ladder caps at one second no matter how deep the retry goes.
func TestBackoffDelay(t *testing.T) {
	rt, _, _ := newRetryer(10 * time.Millisecond)
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
	rt, _, _ := newRetryer(time.Microsecond)
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

// TestSendSurfacesRetryAfter pins that the HTTP sender hands the header
// through to the retry loop as its floor.
func TestSendSurfacesRetryAfter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintln(w, `{"result":null,"error":"serve: pool overloaded","worker":0}`)
	}))
	defer ts.Close()
	resp, floor, err := httpSender(ts.URL)(req)
	if err != nil || resp.Status != obwire.StatusOverloaded {
		t.Fatalf("refusal: status=%d err=%v", resp.Status, err)
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

	rt, c, posts := newRetryer(time.Microsecond)
	got, err := rt.send(httpSender(ts.URL), req, 3)
	if err != nil || !got.OK() {
		t.Fatalf("retried send failed: %v %q", err, got.Err)
	}
	if v, _ := got.Value.IntOK(); v != 42 {
		t.Errorf("result = %v, want 42", got.Value)
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
// the whole budget — the retries plus the first attempt — and the last
// refusal comes back.
func TestRetrySendBudgetExhausted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// No Retry-After: honored as a floor, it would slow this test.
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"result":null,"error":"serve: deadline expired before dispatch","worker":0}`)
	}))
	defer ts.Close()

	rt, c, posts := newRetryer(time.Microsecond)
	if got, err := rt.send(httpSender(ts.URL), req, 2); err != nil || got.Status != obwire.StatusShed {
		t.Fatalf("exhausted retries answered status %d, err %v; want the last shed", got.Status, err)
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

	rt, c, posts := newRetryer(time.Microsecond)
	if got, err := rt.send(httpSender(ts.URL), req, 3); err != nil || got.Status != obwire.StatusMachineError {
		t.Fatalf("machine error answered status %d, err %v", got.Status, err)
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

	rt, c, posts := newRetryer(time.Microsecond)
	if _, err := rt.send(httpSender(ts.URL), req, 1); err == nil {
		t.Fatal("dead endpoint answered no error")
	}
	if posts.Load() != 2 || c.transport.Load() != 2 || c.retries.Load() != 1 {
		t.Errorf("posts/transport/retries = %d/%d/%d, want 2/2/1",
			posts.Load(), c.transport.Load(), c.retries.Load())
	}
}

// TestHTTPSender drives the HTTP sender against each kind of answer a
// node or the router gives, and pins the frame status it maps onto, the
// backoff floor it reports, and whether the retry loop retries it: only
// 429, 503 and transport failures are.
func TestHTTPSender(t *testing.T) {
	answer := func(status int, retryAfter, body string) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(status)
			fmt.Fprintln(w, body)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	refused := refusedURL(t)

	for _, tc := range []struct {
		name    string
		url     string
		status  uint8
		value   int32
		floor   time.Duration
		retried bool
		transp  bool
	}{
		{"200 numeric", answer(200, "", `{"result":42,"worker":0}`), obwire.StatusOK, 42, 0, false, false},
		{"200 non-numeric", answer(200, "", `{"result":"fortytwo","worker":0}`), obwire.StatusMachineError, 0, 0, false, false},
		{"200 no result", answer(200, "", `{"worker":0}`), obwire.StatusMachineError, 0, 0, false, false},
		{"200 undecodable", answer(200, "", `{"result":4`), obwire.StatusMachineError, 0, 0, false, false},
		{"422", answer(422, "", `{"result":null,"error":"doesNotUnderstand: x"}`), obwire.StatusMachineError, 0, 0, false, false},
		{"429 Retry-After", answer(429, "1", `{"result":null,"error":"serve: pool overloaded"}`), obwire.StatusOverloaded, 0, time.Second, true, false},
		{"429 undecodable", answer(429, "", `overloaded`), obwire.StatusOverloaded, 0, 0, true, false},
		{"503", answer(503, "", `{"result":null,"error":"serve: deadline expired before dispatch"}`), obwire.StatusShed, 0, 0, true, false},
		{"502 spent budget", answer(502, "", `{"result":null,"error":"cluster: no node answered"}`), obwire.StatusMachineError, 0, 0, false, false},
		{"refused connection", refused, 0, 0, 0, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, floor, err := httpSender(tc.url)(req)
			if (err != nil) != tc.transp {
				t.Fatalf("err = %v, want transport failure %v", err, tc.transp)
			}
			if err == nil && resp.Status != tc.status {
				t.Errorf("status %d, want %d (%q)", resp.Status, tc.status, resp.Err)
			}
			if !resp.OK() && err == nil && resp.Err == "" {
				t.Error("a failed answer carries no error text")
			}
			if v, _ := resp.Value.IntOK(); v != tc.value {
				t.Errorf("value %v, want %d", resp.Value, tc.value)
			}
			if floor != tc.floor {
				t.Errorf("floor %v, want %v", floor, tc.floor)
			}
			rt, c, posts := newRetryer(time.Microsecond)
			rt.send(httpSender(tc.url), req, 1)
			if retried := c.retries.Load() == 1; retried != tc.retried || posts.Load() != 1+c.retries.Load() {
				t.Errorf("retries %d over %d posts, want retried=%v", c.retries.Load(), posts.Load(), tc.retried)
			}
		})
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
