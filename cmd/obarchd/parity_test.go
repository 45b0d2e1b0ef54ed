package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/httpwire"
	"repro/internal/node"
	"repro/internal/serve"
)

// parityCase is one row of internal/httpwire/testdata/parity.json: a
// request, and the status and normalised body every HTTP edge — this
// node and obrouter — must answer it with.
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

// startParityNode is the node the parity table runs against: one worker
// over an image holding SmallInt>>double.
func startParityNode(tb testing.TB) *node.Node {
	tb.Helper()
	return startNode(tb, doubleSnapshot(tb), nil, node.Config{Pool: serve.Config{Workers: 1, Timeout: 10 * time.Second}})
}

// TestHTTPParityTable runs the shared parity table against this node.
// The table's image holds one method, SmallInt>>double; obrouter's run
// of the table uses the same source.
func TestHTTPParityTable(t *testing.T) {
	n := startParityNode(t)
	for _, c := range loadParity(t) {
		resp, err := http.Post(url(n)+c.Path, "application/json", strings.NewReader(c.body()))
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if got := normalise(string(b)); resp.StatusCode != c.Status || got != c.Response {
			t.Errorf("%s: got %d %s, want %d %s", c.Name, resp.StatusCode, got, c.Status, c.Response)
		}
	}
}

// FuzzSendBody holds this node's /send and /batch handlers to the shared
// body decoder on arbitrary bodies: each answers 400 exactly when
// httpwire refuses the body, and otherwise answers JSON — one result for
// /send, one result per decoded request for /batch. It is seeded with
// the bodies FuzzDecodeSend uses, bare and in [ ], then the parity rows.
func FuzzSendBody(f *testing.F) {
	raw, err := os.ReadFile("../../internal/httpwire/testdata/send_bodies.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		body, err := strconv.Unquote(line)
		if err != nil {
			f.Fatalf("send_bodies.txt: %q: %v", line, err)
		}
		f.Add([]byte(body))
		f.Add([]byte("[" + body + "]"))
	}
	for _, c := range loadParity(f) {
		f.Add([]byte(c.Body))
	}
	srv := startParityNode(f)
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return w
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		_, sendErr := httpwire.DecodeSend(body)
		w := post("/send", body)
		if (w.Code == http.StatusBadRequest) != (sendErr != nil) {
			t.Fatalf("%q: /send answered %d, decoder error %v", body, w.Code, sendErr)
		}
		var one httpwire.SendResponse
		if err := json.Unmarshal(w.Body.Bytes(), &one); err != nil {
			t.Fatalf("%q: /send answered %d with %q: %v", body, w.Code, w.Body.Bytes(), err)
		}

		reqs, batchErr := httpwire.DecodeBatch(body)
		w = post("/batch", body)
		if (w.Code == http.StatusBadRequest) != (batchErr != nil) {
			t.Fatalf("%q: /batch answered %d, decoder error %v", body, w.Code, batchErr)
		}
		if batchErr != nil {
			return
		}
		var many []httpwire.SendResponse
		if err := json.Unmarshal(w.Body.Bytes(), &many); err != nil {
			t.Fatalf("%q: /batch answered %q: %v", body, w.Body.Bytes(), err)
		}
		if len(many) != len(reqs) {
			t.Fatalf("%q: /batch answered %d results for %d requests", body, len(many), len(reqs))
		}
	})
}
