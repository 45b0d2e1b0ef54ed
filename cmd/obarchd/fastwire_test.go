package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/httpwire"
	"repro/internal/serve"
	"repro/internal/word"
	"repro/internal/workload"
)

// jsonEncode reproduces exactly what writeJSON put on the wire for one
// result: encoding/json output plus the Encoder's trailing newline.
func jsonEncode(t *testing.T, res serve.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(httpwire.ResultResponse(res)); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	return buf.Bytes()
}

// TestFastwireEncodeParity proves the hand-written encoder is
// byte-identical to the encoding/json path for every value shape the
// machine can answer with.
func TestFastwireEncodeParity(t *testing.T) {
	cases := []serve.Result{
		{Value: word.FromInt(42), Worker: 3, Steps: 1506, Cycles: 9000, Latency: 21500 * time.Nanosecond},
		{Value: word.FromInt(-2147483648), Worker: 0},
		{Value: word.FromFloat(1.5), Worker: 1, Steps: 7},
		{Value: word.FromFloat(3.1415927), Latency: 987654 * time.Microsecond},
		{Value: word.FromFloat(1e-7)},  // 'e' form below the 'f' window
		{Value: word.FromFloat(4e21)},  // 'e' form above it
		{Value: word.FromFloat(1e-38)}, // denormal-adjacent, e-XX exponent trim
		{Value: word.FromFloat(0)},
		{Value: word.True},
		{Value: word.False},
		{Value: word.Nil},
		{Value: word.FromAtom(77)}, // falls back to the word's String form
		{Err: errors.New("step limit exceeded"), Worker: 2, Steps: 50},
		{Err: errors.New(`quote " backslash \ angle <b> & control` + "\n\ttail")},
		{Err: errors.New("unicode: héllo — \u2028 sep")},
		{Err: errors.New("invalid utf-8: ab\xffcd")}, // must escape as \ufffd, like encoding/json
	}
	for i, res := range cases {
		want := jsonEncode(t, res)
		got, ok := appendSendResponse(nil, res)
		if !ok {
			t.Fatalf("case %d: fast encoder bailed", i)
		}
		got = append(got, '\n')
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: fast encoding diverges\n fast: %s json: %s", i, got, want)
		}
	}
	// Non-finite floats must bail (encoding/json errors on them), never
	// emit bytes.
	if _, ok := appendSendResponse(nil, serve.Result{Value: word.FromFloat(float32(math.Inf(1)))}); ok {
		t.Fatal("fast encoder accepted +Inf")
	}
}

// parseAccept are bodies the fast path must parse, identically to the
// shared encoding/json decoder.
var parseAccept = []string{
	`{"receiver": 21, "selector": "double"}`,
	`{"receiver":21,"selector":"double","args":[]}`,
	`{"receiver": -7, "selector": "+", "args": [2, -3, 4]}`,
	`{"receiver": 1.5, "selector": "sum", "args": [2.25, 1e3, -0.5]}`,
	`{"selector": "double", "receiver": 21}`, // field order free
	`{"receiver": 0, "selector": "run", "key": 12345678901234567890, "max_steps": 500, "timeout_ms": 250}`,
	"\n\t {\"receiver\": 2 , \"selector\" : \"x\" } trailing ignored",
	`{"receiver": 21, "selector": "naïve—sélector"}`, // UTF-8 selector, no escapes
}

// parseBail are bodies the fast path must refuse — escapes, unknown
// fields, out of range numbers, malformed grammar — all still served (or
// properly rejected) by the fallback.
var parseBail = []string{
	`{"receiver": 21, "selector": "dou\u0062le"}`,      // escape
	`{"receiver": 21, "selector": "d", "extra": true}`, // unknown field
	`{"receiver": 4294967296, "selector": "d"}`,        // beyond int32: the decoder's 400
	`{"receiver": 007, "selector": "d"}`,               // not a JSON number
	`{"receiver": .5, "selector": "d"}`,
	`{"receiver": 21}`,                            // missing selector: descriptive 400
	`{"selector": "double"}`,                      // missing receiver
	`{"receiver": 21, `,                           // truncated
	`[1, 2]`,                                      // wrong shape
	`{"receiver": 1, "selector": "d", "key": -1}`, // negative uint
	// Negative or overflowing timeouts: the fallback's 400 names them.
	`{"receiver": 1, "selector": "d", "timeout_ms": -1}`,
	`{"receiver": 1, "selector": "d", "timeout_ms": 9223372036855}`,
	// Overflowing integers must bail, not wrap: 2^64+1 wraps a naive
	// uint64 accumulator to 1.
	`{"receiver": 18446744073709551617, "selector": "d"}`,
	`{"receiver": 1, "selector": "d", "key": 36893488147419103232}`,
	// Invalid UTF-8 in a selector: json.Unmarshal coerces it to
	// U+FFFD, so the fast path must not pass the raw bytes through.
	"{\"receiver\": 1, \"selector\": \"a\xffb\"}",
}

// sameRequest fails the test unless the fast parser's request equals the
// reference decoder's field by field, args included.
func sameRequest(t *testing.T, body []byte, got, want serve.Request) {
	t.Helper()
	if got.Receiver != want.Receiver || got.Selector != want.Selector ||
		got.Key != want.Key || got.MaxSteps != want.MaxSteps || got.Timeout != want.Timeout {
		t.Fatalf("%q: fast %+v != json %+v", body, got, want)
	}
	if len(got.Args) != len(want.Args) {
		t.Fatalf("%q: fast args %v != json args %v", body, got.Args, want.Args)
	}
	for i := range got.Args {
		if got.Args[i] != want.Args[i] {
			t.Fatalf("%q: arg %d: fast %v != json %v", body, i, got.Args[i], want.Args[i])
		}
	}
}

// TestFastwireParseParity drives the fast parser and the shared
// encoding/json decoder over the same bodies and compares the parsed
// requests; bodies the fast parser refuses must be ones it is allowed to
// refuse (the fallback still serves them), never misparse. FuzzSendBody
// extends the accept half to arbitrary bodies.
func TestFastwireParseParity(t *testing.T) {
	c := getCodec()
	defer putCodec(c)
	for _, body := range parseAccept {
		want, err := httpwire.DecodeSend([]byte(body))
		if err != nil {
			t.Fatalf("%s: json path errored: %v", body, err)
		}
		c.args = c.args[:0]
		got, ok := parseSend([]byte(body), c)
		if !ok {
			t.Fatalf("%s: fast parser bailed", body)
		}
		sameRequest(t, []byte(body), got, want)
	}
	for _, body := range parseBail {
		c.args = c.args[:0]
		if _, ok := parseSend([]byte(body), c); ok {
			t.Fatalf("%s: fast parser accepted a body it must hand to the fallback", body)
		}
	}
}

// FuzzSendBody holds the fast codec to the reference decoder on arbitrary
// /send and /batch bodies: the reference never panics, and whenever
// parseSend or parseBatch accepts a body, httpwire.DecodeSend or
// DecodeBatch accepts it too and yields the same requests.
func FuzzSendBody(f *testing.F) {
	for _, body := range append(parseAccept, parseBail...) {
		f.Add([]byte(body))
		f.Add([]byte("[" + body + "]"))
	}
	for _, c := range loadParity(f) {
		f.Add([]byte(c.Body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		c := getCodec()
		defer putCodec(c)
		want, err := httpwire.DecodeSend(body)
		if got, ok := parseSend(body, c); ok {
			if err != nil {
				t.Fatalf("%q: fast parser accepted a body the reference refuses: %v", body, err)
			}
			sameRequest(t, body, got, want)
		}
		wantBatch, err := httpwire.DecodeBatch(body)
		if got, ok := parseBatch(body, c); ok {
			if err != nil {
				t.Fatalf("%q: fast batch parser accepted a body the reference refuses: %v", body, err)
			}
			if len(got) != len(wantBatch) {
				t.Fatalf("%q: fast batch has %d requests, reference %d", body, len(got), len(wantBatch))
			}
			for i := range got {
				sameRequest(t, body, got[i], wantBatch[i])
			}
		}
	})
}

// TestFastwireBatchParse checks the batch parser against the json path
// on a mixed batch, including the empty batch.
func TestFastwireBatchParse(t *testing.T) {
	c := getCodec()
	defer putCodec(c)
	body := `[{"receiver": 1, "selector": "a"}, {"receiver": 2.5, "selector": "b", "args": [3]},
	          {"receiver": 3, "selector": "c", "key": 9}]`
	reqs, ok := parseBatch([]byte(body), c)
	if !ok {
		t.Fatal("fast batch parser bailed on a clean batch")
	}
	if len(reqs) != 3 || reqs[0].Selector != "a" || reqs[2].Key != 9 {
		t.Fatalf("fast batch misparsed: %+v", reqs)
	}
	if v, okInt := reqs[0].Receiver.IntOK(); !okInt || v != 1 {
		t.Fatalf("receiver 0 = %v", reqs[0].Receiver)
	}
	if len(reqs[1].Args) != 1 {
		t.Fatalf("args of request 1: %v", reqs[1].Args)
	}
	if got, ok := parseBatch([]byte(`[]`), c); !ok || len(got) != 0 {
		t.Fatalf("empty batch: %v %v", got, ok)
	}
	if _, ok := parseBatch([]byte(`[{"receiver": 1}]`), c); ok {
		t.Fatal("batch with missing selector must bail to the fallback")
	}
}

// TestFastwireEndToEndParity runs the same requests against a fast-codec
// server and an encoding/json server and requires identical status codes
// and identical body shapes (modulo fields that legitimately vary:
// worker, latency, and for /stats everything).
func TestFastwireEndToEndParity(t *testing.T) {
	hFast, poolFast := newSuiteServer(t, 1, "")
	defer poolFast.Close()
	hSlow, poolSlow := newSuiteServer(t, 1, "")
	defer poolSlow.Close()
	hSlow.fast = false
	tsFast := httptest.NewServer(hFast)
	defer tsFast.Close()
	tsSlow := httptest.NewServer(hSlow)
	defer tsSlow.Close()

	post := func(ts *httptest.Server, path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	latRE := regexp.MustCompile(`"latency_us":-?\d+`)
	cycRE := regexp.MustCompile(`"cycles":\d+`)
	normalise := func(s string) string {
		// Zero the fields that legitimately vary run to run.
		s = latRE.ReplaceAllString(s, `"latency_us":0`)
		s = cycRE.ReplaceAllString(s, `"cycles":0`)
		return s
	}
	bodies := []struct{ path, body string }{
		{"/send", `{"receiver": 21, "selector": "double"}`},
		{"/send", `{"receiver": 800, "selector": "benchArith"}`},
		{"/send", `{"receiver": 800, "selector": "benchArith", "max_steps": 50}`},
		{"/send", `{"receiver": 1, "selector": "noSuchSelector"}`},
		{"/send", `{"receiver": 21, "selector": "dou\u0062le"}`}, // forces the fallback on the fast server too
		{"/send", `not json at all`},
		{"/batch", `[{"receiver": 21, "selector": "double"}, {"receiver": 1, "selector": "nope"}]`},
		{"/batch", `[]`},
		{"/batch", `[{"receiver": 21}]`},
	}
	for _, tc := range bodies {
		fs, fb := post(tsFast, tc.path, tc.body)
		ss, sb := post(tsSlow, tc.path, tc.body)
		if fs != ss {
			t.Errorf("%s %s: fast status %d, json status %d", tc.path, tc.body, fs, ss)
			continue
		}
		if normalise(fb) != normalise(sb) {
			t.Errorf("%s %s:\n fast: %s json: %s", tc.path, tc.body, fb, sb)
		}
	}
}

// TestServerStatsLatencyFields checks the new /stats surface: routing,
// queue depths, and the two percentile blocks, in both JSON and text
// form.
func TestServerStatsLatencyFields(t *testing.T) {
	h, pool := newSuiteServer(t, 2, "")
	defer pool.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()

	p := workload.Suite()[0]
	for i := 0; i < 4; i++ {
		status, out := postSendTo(t, ts, fmt.Sprintf(`{"receiver": %d, "selector": %q}`, p.Size, p.Entry))
		if status != http.StatusOK {
			t.Fatalf("warm request %d: status %d (%s)", i, status, out.Error)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		Requests uint64 `json:"requests"`
		Routing  string `json:"routing"`
		Latency  struct {
			Count uint64 `json:"count"`
			P50   int64  `json:"p50"`
			P99   int64  `json:"p99"`
		} `json:"latency_us"`
		HTTPLatency struct {
			Count uint64 `json:"count"`
			P99   int64  `json:"p99"`
		} `json:"http_latency_us"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	if st.Routing != serve.RoutingJSQ {
		t.Fatalf("routing %q, want %q", st.Routing, serve.RoutingJSQ)
	}
	if st.Latency.Count != st.Requests || st.Latency.Count == 0 {
		t.Fatalf("latency histogram count %d for %d requests", st.Latency.Count, st.Requests)
	}
	if st.HTTPLatency.Count != st.Requests {
		t.Fatalf("http latency count %d for %d requests", st.HTTPLatency.Count, st.Requests)
	}
	if st.Latency.P99 < st.Latency.P50 {
		t.Fatalf("p99 %d below p50 %d", st.Latency.P99, st.Latency.P50)
	}
	if st.HTTPLatency.P99 < st.Latency.P50 {
		t.Fatalf("http p99 %d below service p50 %d", st.HTTPLatency.P99, st.Latency.P50)
	}

	text, err := http.Get(ts.URL + "/stats?format=text")
	if err != nil {
		t.Fatalf("GET /stats?format=text: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(text.Body)
	text.Body.Close()
	for _, want := range []string{"service latency", "http latency", "routing"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("text stats missing %q:\n%s", want, buf.String())
		}
	}
}
