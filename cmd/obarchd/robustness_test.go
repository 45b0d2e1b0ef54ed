package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/httpwire"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestParseChaos covers the -chaos grammar: the empty plan, every key,
// and the malformed specs that must refuse at boot rather than arm a
// half-read plan.
func TestParseChaos(t *testing.T) {
	if f, err := parseChaos(""); f != nil || err != nil {
		t.Errorf(`parseChaos("") = %+v, %v; want nil, nil`, f, err)
	}
	f, err := parseChaos("seed=42,panic=100,stall=50:2ms,clog=64:1ms")
	if err != nil {
		t.Fatalf("full spec: %v", err)
	}
	want := serve.Faults{Seed: 42, PanicEvery: 100, StallEvery: 50, Stall: 2 * time.Millisecond, ClogEvery: 64, Clog: time.Millisecond}
	if *f != want {
		t.Errorf("full spec = %+v, want %+v", *f, want)
	}
	if f, err = parseChaos("panic=7"); err != nil || f.PanicEvery != 7 || f.Seed != 0 {
		t.Errorf("panic-only spec = %+v, %v", f, err)
	}
	for _, bad := range []string{
		"bogus",         // no key=value shape
		"wat=1",         // unknown key
		"seed=x",        // non-numeric seed
		"seed=-1",       // negative seed
		"panic=x",       // non-numeric cadence
		"panic=-1",      // negative cadence
		"stall=5",       // missing duration
		"stall=x:1ms",   // non-numeric cadence with duration
		"stall=5:xx",    // unparseable duration
		"clog=5:-1ms",   // negative duration
		"panic=1,,",     // empty clause
		"panic=1,wat=2", // good then bad
	} {
		if f, err := parseChaos(bad); err == nil {
			t.Errorf("parseChaos(%q) = %+v, want error", bad, f)
		}
	}
}

// TestServerOverloadRefusal closes admission outright (MaxInFlight < 0)
// and checks the whole refusal surface at once: /send answers 429 with
// Retry-After, /readyz flips to 503 "overloaded", and /stats and
// /metrics both account the rejection.
func TestServerOverloadRefusal(t *testing.T) {
	n := startSuiteNode(t, serve.Config{Workers: 1, MaxInFlight: -1, Timeout: 30 * time.Second})

	p := workload.Suite()[0]
	body := fmt.Sprintf(`{"receiver": %d, "selector": %q}`, p.Size, p.Entry)
	resp, err := http.Post(url(n)+"/send", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /send: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("/send under closed admission: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	var out httpwire.SendResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode refusal body: %v", err)
	}
	if !strings.Contains(out.Error, "overloaded") {
		t.Errorf("refusal error = %q, want it to name the overload", out.Error)
	}

	rr, err := http.Get(url(n) + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz under overload: status %d, want 503", rr.StatusCode)
	}
	reason, err := io.ReadAll(rr.Body)
	if err != nil {
		t.Fatalf("read /readyz body: %v", err)
	}
	if got := strings.TrimSpace(string(reason)); got != "overloaded" {
		t.Errorf("/readyz reason = %q, want \"overloaded\"", got)
	}

	sr, err := http.Get(url(n) + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer sr.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	if got, _ := st["rejected"].(float64); got < 1 {
		t.Errorf("/stats rejected = %v, want >= 1", st["rejected"])
	}
	if ready, _ := st["ready"].(bool); ready {
		t.Error("/stats reports ready under closed admission")
	}

	mr, err := http.Get(url(n) + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mr.Body.Close()
	raw, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	text := string(raw)
	for _, want := range []string{"obarch_rejected_total", "obarch_ready 0", "obarch_in_flight"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestReadyzDrainFlip: a healthy node is ready; once Shutdown has begun
// — a request held in the pool keeps the drain open — the probe answers
// 503 "draining" while /healthz keeps reporting liveness. The listeners
// are already closed then, so the probes go through the node's handler.
func TestReadyzDrainFlip(t *testing.T) {
	n := startSuiteNode(t, serve.Config{Workers: 2, Timeout: 30 * time.Second})
	get := func(path string) (int, string) {
		w := httptest.NewRecorder()
		n.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w.Code, strings.TrimSpace(w.Body.String())
	}
	if status, body := get("/readyz"); status != http.StatusOK || body != "ready" {
		t.Fatalf("healthy /readyz = %d %q, want 200 \"ready\"", status, body)
	}

	release := n.Pool().Quiesce()
	sent := make(chan error, 1)
	go func() {
		resp, err := http.Post(url(n)+"/send", "application/json", strings.NewReader(`{"receiver": 1, "selector": "+", "args": [1]}`))
		if err == nil {
			resp.Body.Close()
		}
		sent <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for depth := 0; depth == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			release()
			t.Fatal("the held request never reached the pool")
		}
		for _, d := range n.Pool().QueueDepths() {
			depth += d
		}
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		n.Shutdown(context.Background())
	}()
	for status, _ := get("/readyz"); status == http.StatusOK; status, _ = get("/readyz") {
		time.Sleep(time.Millisecond) // Shutdown flips the flag before anything else
	}
	status, body := get("/readyz")
	healthz, _ := get("/healthz")
	release()
	<-drained
	if err := <-sent; err != nil {
		t.Errorf("request held across the drain: %v", err)
	}
	if status != http.StatusServiceUnavailable || body != "draining" {
		t.Fatalf("draining /readyz = %d %q, want 503 \"draining\"", status, body)
	}
	if healthz != http.StatusOK {
		t.Fatalf("draining /healthz = %d, want 200: drain must not look like death", healthz)
	}
}

// TestReadyzQuarantineHeavy drives a single-shard pool whose every send
// panics: the recovery barrier turns the panic into a 422 result, the
// shard goes unhealthy, and with the majority of shards (1 of 1) in
// quarantine churn /readyz steers traffic away.
func TestReadyzQuarantineHeavy(t *testing.T) {
	n := startSuiteNode(t, serve.Config{
		Workers: 1,
		Faults:  &serve.Faults{PanicEvery: 1},
		Timeout: 30 * time.Second,
	})

	p := workload.Suite()[0]
	body := fmt.Sprintf(`{"receiver": %d, "selector": %q}`, p.Size, p.Entry)
	resp, err := http.Post(url(n)+"/send", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /send: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("panicked send: status %d, want 422", resp.StatusCode)
	}
	var out httpwire.SendResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode panicked send: %v", err)
	}
	if !strings.Contains(out.Error, "panicked") {
		t.Errorf("panicked send error = %q, want it to name the panic", out.Error)
	}

	rr, err := http.Get(url(n) + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer rr.Body.Close()
	reason, err := io.ReadAll(rr.Body)
	if err != nil {
		t.Fatalf("read /readyz body: %v", err)
	}
	if got := strings.TrimSpace(string(reason)); rr.StatusCode != http.StatusServiceUnavailable || got != "quarantine-heavy" {
		t.Fatalf("/readyz after panic = %d %q, want 503 \"quarantine-heavy\"", rr.StatusCode, got)
	}
	met := n.Pool().Metrics()
	if met.Panics != 1 || met.Restamps != 1 {
		t.Errorf("panics/restamps = %d/%d, want 1/1", met.Panics, met.Restamps)
	}
}
