package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/httpwire"
)

// TestRequestBodyCap pins the buffered-body bound: a body over
// httpwire.MaxBody is refused instead of being buffered to EOF.
func TestRequestBodyCap(t *testing.T) {
	h, pool := newSuiteServer(t, 1, "")
	defer pool.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()
	huge := `{"receiver": 21, "selector": "` + strings.Repeat("x", httpwire.MaxBody) + `"}`
	resp, err := http.Post(ts.URL+"/send", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatalf("POST huge body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge body: status %d, want 400", resp.StatusCode)
	}
}
