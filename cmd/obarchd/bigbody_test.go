package main

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/httpwire"
)

// TestRequestBodyCap pins the buffered-body bound: a body over
// httpwire.MaxBody is refused instead of being buffered to EOF.
func TestRequestBodyCap(t *testing.T) {
	n := startParityNode(t)
	huge := `{"receiver": 21, "selector": "` + strings.Repeat("x", httpwire.MaxBody) + `"}`
	resp, err := http.Post(url(n)+"/send", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatalf("POST huge body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge body: status %d, want 400", resp.StatusCode)
	}
}
