package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obwire"
	"repro/internal/serve"
)

// parityCase is one row of internal/httpwire/testdata/parity.json, the
// table obarchd's TestHTTPParityTable runs against a node: the router
// must answer every request exactly as a node does.
type parityCase struct {
	Name      string `json:"name"`
	Path      string `json:"path"`
	Body      string `json:"body"`
	LeadSpace int    `json:"lead_space"` // whitespace bytes sent before Body
	Status    int    `json:"status"`
	Response  string `json:"response"`
}

var varyingRE = regexp.MustCompile(`"(latency_us|cycles|worker)":-?\d+`)

// TestHTTPParityTable runs the shared parity table through the router
// over one real node serving the table's image (SmallInt>>double).
func TestHTTPParityTable(t *testing.T) {
	raw, err := os.ReadFile("../../internal/httpwire/testdata/parity.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []parityCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	_, web := startRouter(t, startNode(t, serve.Config{Workers: 1, Timeout: 10 * time.Second}))
	for _, c := range cases {
		body := strings.Repeat(" ", c.LeadSpace) + c.Body
		resp, err := http.Post(web.URL+c.Path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got := strings.TrimSpace(varyingRE.ReplaceAllString(string(b), `"$1":0`))
		if resp.StatusCode != c.Status || got != c.Response {
			t.Errorf("%s: got %d %s, want %d %s", c.Name, resp.StatusCode, got, c.Status, c.Response)
		}
	}
}

// TestHTTPStatusClusterRefusals pins the router's own refusals, which
// sit in front of the shared frame-status table: no routable backend is
// 503, a send lost on the wire is 502.
func TestHTTPStatusClusterRefusals(t *testing.T) {
	cases := []struct {
		resp obwire.Response
		err  error
		want int
	}{
		{obwire.Response{}, cluster.ErrNoBackends, http.StatusServiceUnavailable},
		{obwire.Response{}, io.ErrUnexpectedEOF, http.StatusBadGateway},
		{obwire.Response{}, errors.New("obwire: connection closed"), http.StatusBadGateway},
		{obwire.Response{Status: obwire.StatusOK}, nil, http.StatusOK},
		{obwire.Response{Status: obwire.StatusShed}, nil, http.StatusServiceUnavailable},
	}
	for _, c := range cases {
		if got := httpStatus(c.resp, c.err); got != c.want {
			t.Errorf("httpStatus(%+v, %v) = %d, want %d", c.resp, c.err, got, c.want)
		}
	}
}
