package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/serve"
)

// parityCase is one row of internal/httpwire/testdata/parity.json: a
// request, and the status and normalised body every HTTP edge — this
// node with either codec, and obrouter — must answer it with.
type parityCase struct {
	Name      string `json:"name"`
	Path      string `json:"path"`
	Body      string `json:"body"`
	LeadSpace int    `json:"lead_space"` // whitespace bytes sent before Body
	Status    int    `json:"status"`
	Response  string `json:"response"`
}

func (c parityCase) body() string { return strings.Repeat(" ", c.LeadSpace) + c.Body }

func loadParity(t testing.TB) []parityCase {
	t.Helper()
	raw, err := os.ReadFile("../../internal/httpwire/testdata/parity.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []parityCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	return cases
}

var varyingRE = regexp.MustCompile(`"(latency_us|cycles|worker)":-?\d+`)

// normalise zeroes the fields that legitimately vary run to run.
func normalise(s string) string {
	return strings.TrimSpace(varyingRE.ReplaceAllString(s, `"$1":0`))
}

// TestHTTPParityTable runs the shared parity table against this node
// with the fast codec and with encoding/json only. The table's image
// holds one method, SmallInt>>double; obrouter's run of the table uses
// the same source.
func TestHTTPParityTable(t *testing.T) {
	sys := obarch.NewSystem(obarch.Options{})
	if err := sys.Load(`extend SmallInt [ method double [ ^self + self ] ]`); err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, fast := range []bool{true, false} {
		pool := serve.NewPool(snap, serve.Config{Workers: 1, Timeout: 10 * time.Second})
		h := newServer(pool, nil, snap, "")
		h.fast = fast
		ts := httptest.NewServer(h)
		for _, c := range loadParity(t) {
			resp, err := http.Post(ts.URL+c.Path, "application/json", strings.NewReader(c.body()))
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if got := normalise(string(b)); resp.StatusCode != c.Status || got != c.Response {
				t.Errorf("fast=%v %s: got %d %s, want %d %s", fast, c.Name, resp.StatusCode, got, c.Status, c.Response)
			}
		}
		ts.Close()
		pool.Close()
	}
}
