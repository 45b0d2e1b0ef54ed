package httpwire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/word"
)

// TestStatusFor pins the one outcome-to-HTTP table both tiers answer
// with, wrapped errors included: a pool error maps to its frame status
// (obwire.StatusFor), and the frame status to HTTP. Overload is the
// client's cue to back off (429), a shed deadline the cue to try
// elsewhere (503), and everything the machine itself rejected stays 422.
func TestStatusFor(t *testing.T) {
	errCases := []struct {
		err   error
		frame uint8
		want  int
	}{
		{nil, obwire.StatusOK, http.StatusOK},
		{serve.ErrOverloaded, obwire.StatusOverloaded, http.StatusTooManyRequests},
		{fmt.Errorf("shard 3: %w", serve.ErrOverloaded), obwire.StatusOverloaded, http.StatusTooManyRequests},
		{serve.ErrExpired, obwire.StatusShed, http.StatusServiceUnavailable},
		{fmt.Errorf("queued 5ms: %w", serve.ErrExpired), obwire.StatusShed, http.StatusServiceUnavailable},
		{serve.ErrPanic, obwire.StatusMachineError, http.StatusUnprocessableEntity},
		{errors.New("doesNotUnderstand: quadruple"), obwire.StatusMachineError, http.StatusUnprocessableEntity},
	}
	for _, c := range errCases {
		frame := obwire.StatusFor(c.err)
		if frame != c.frame {
			t.Errorf("obwire.StatusFor(%v) = %d, want %d", c.err, frame, c.frame)
		}
		if got := Status(frame); got != c.want {
			t.Errorf("Status(StatusFor(%v)) = %d, want %d", c.err, got, c.want)
		}
	}
	frameCases := []struct {
		frame uint8
		want  int
	}{
		{obwire.StatusOK, http.StatusOK},
		{obwire.StatusMachineError, http.StatusUnprocessableEntity},
		{obwire.StatusOverloaded, http.StatusTooManyRequests},
		{obwire.StatusShed, http.StatusServiceUnavailable},
		{0x7f, http.StatusUnprocessableEntity}, // unknown: never retried
	}
	for _, c := range frameCases {
		if got := Status(c.frame); got != c.want {
			t.Errorf("Status(%d) = %d, want %d", c.frame, got, c.want)
		}
	}
}

// TestLabel checks that a label value is quoted and escaped once, with
// only the exposition format's three escapes, so a scraper reads back
// exactly the original value.
func TestLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", `""`},
		{"127.0.0.1:9373", `"127.0.0.1:9373"`},
		{`/img/a"b\c.img`, `"/img/a\"b\\c.img"`},
		{"two\nlines", `"two\nlines"`},
		{"tab\tand é", "\"tab\tand é\""}, // no Go-only \t or \u escapes
	}
	for _, c := range cases {
		if got := Label(c.in); got != c.want {
			t.Errorf("Label(%q) = %s, want %s", c.in, got, c.want)
		}
	}
}

// TestDecodeSend covers the reference decoder's accept path and the 400
// texts both tiers answer with.
func TestDecodeSend(t *testing.T) {
	req, err := DecodeSend([]byte(`{"receiver": 1.5, "selector": "sum", "args": [2, -3e0], "key": 9, "max_steps": 50, "timeout_ms": 250} trailing`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Receiver != word.FromFloat(1.5) || req.Selector != "sum" || req.Key != 9 || req.MaxSteps != 50 ||
		req.Timeout != 250*time.Millisecond || len(req.Args) != 2 ||
		req.Args[0] != word.FromInt(2) || req.Args[1] != word.FromFloat(-3) {
		t.Fatalf("decoded %+v", req)
	}
	// The largest timeout_ms accepted still yields a positive Duration.
	if req, err := DecodeSend([]byte(`{"receiver": 1, "selector": "d", "timeout_ms": 9223372036854}`)); err != nil || req.Timeout <= 0 {
		t.Fatalf("largest timeout_ms: %v %v", req.Timeout, err)
	}
	refused := []struct{ body, want string }{
		{`not json`, "bad request: invalid character"},
		{`{"receiver": 1, "selector": ""}`, "missing selector"},
		{`{"receiver": 4294967296, "selector": "d"}`, "receiver: integer 4294967296 outside the 32-bit machine word"},
		{`{"receiver": 1, "selector": "d", "args": [1, 99999999999]}`, "arg 1: integer 99999999999 outside the 32-bit machine word"},
		{`{"receiver": 1, "selector": "d", "timeout_ms": -1}`, "timeout_ms -1 outside [0, 9223372036854]"},
		{`{"receiver": 1, "selector": "d", "timeout_ms": 9223372036855}`, "timeout_ms 9223372036855 outside"},
	}
	for _, c := range refused {
		if _, err := DecodeSend([]byte(c.body)); err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: error %v, want prefix %q", c.body, err, c.want)
		}
	}
	if _, err := DecodeBatch([]byte(`[{"receiver": 1, "selector": "d"}, {"receiver": 1}]`)); err == nil || err.Error() != "request 1: missing selector" {
		t.Errorf("batch with a malformed element: %v", err)
	}
	if reqs, err := DecodeBatch([]byte(`[]`)); err != nil || len(reqs) != 0 {
		t.Errorf("empty batch: %v %v", reqs, err)
	}
}

// TestResponses checks the two response adapters agree on the wire
// shape: the value on success, the error text (and a null result) on
// failure, accounting fields either way.
func TestResponses(t *testing.T) {
	ok := ResultResponse(serve.Result{Value: word.FromInt(42), Worker: 1, Steps: 7, Cycles: 9, Latency: 3 * time.Microsecond})
	okFrame := FrameResponse(obwire.Response{Status: obwire.StatusOK, Value: word.FromInt(42), Worker: 1, Steps: 7, Cycles: 9, Latency: 3 * time.Microsecond})
	if ok != okFrame || ok.Result != int32(42) || ok.LatencyUS != 3 {
		t.Fatalf("success: %+v vs %+v", ok, okFrame)
	}
	bad := ResultResponse(serve.Result{Err: errors.New("doesNotUnderstand: x"), Steps: 4})
	badFrame := FrameResponse(obwire.Response{Status: obwire.StatusMachineError, Err: "doesNotUnderstand: x", Steps: 4})
	if bad != badFrame || bad.Result != nil || bad.Error != "doesNotUnderstand: x" {
		t.Fatalf("failure: %+v vs %+v", bad, badFrame)
	}
}

// TestExposition pins the counter, gauge and histogram renderings.
func TestExposition(t *testing.T) {
	var b strings.Builder
	Counter(&b, "x_total", "Xs.", 3)
	Gauge(&b, "y", "Y.", 0.5)
	var h stats.Histogram
	h.Observe(20 * time.Microsecond)
	Histogram(&b, "z_seconds", "Z.", h)
	out := b.String()
	for _, want := range []string{
		"# HELP x_total Xs.\n# TYPE x_total counter\nx_total 3\n",
		"# HELP y Y.\n# TYPE y gauge\ny 0.5\n",
		"# TYPE z_seconds histogram\n",
		"z_seconds_bucket{le=\"1e-05\"} 0\n",
		"z_seconds_bucket{le=\"5e-05\"} 1\n",
		"z_seconds_bucket{le=\"+Inf\"} 1\n",
		"z_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestErrorIsJSON checks that an error body is valid JSON whatever the
// message holds: a control byte is escaped, and invalid UTF-8 comes back
// as U+FFFD, as encoding/json renders it.
func TestErrorIsJSON(t *testing.T) {
	msg := "bad \x01 byte and \xff tail"
	w := httptest.NewRecorder()
	Error(w, http.StatusBadRequest, msg)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	body := w.Body.Bytes()
	if !json.Valid(body) {
		t.Fatalf("body is not JSON: %q", body)
	}
	var got struct{ Error string }
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if want := strings.ToValidUTF8(msg, "\uFFFD"); got.Error != want {
		t.Fatalf("error %q, want %q", got.Error, want)
	}
}

// loadSendBodies reads the seed bodies the /send fuzz targets share,
// one Go-quoted string per line; lines starting with # are comments.
func loadSendBodies(tb testing.TB, path string) []string {
	tb.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var bodies []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		body, err := strconv.Unquote(line)
		if err != nil {
			tb.Fatalf("%s: %q: %v", path, line, err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// numberOf renders a decoded machine value back as a JSON number: an
// integer as itself, a float with an exponent so it decodes as a float
// again. ok is false for a non-finite float, which JSON cannot carry.
func numberOf(w word.Word) (json.Number, bool) {
	if i, ok := w.IntOK(); ok {
		return json.Number(strconv.FormatInt(int64(i), 10)), true
	}
	f, _ := w.FloatOK()
	if math.IsInf(float64(f), 0) || math.IsNaN(float64(f)) {
		return "", false
	}
	return json.Number(strconv.FormatFloat(float64(f), 'e', -1, 64)), true
}

// FuzzDecodeSend holds the /send and /batch body decoder to three
// properties on arbitrary bodies: it never panics; a body it accepts,
// re-encoded as a SendRequest, decodes to the same request; and wrapping
// the body's first JSON value in [ ] makes a batch DecodeBatch accepts
// exactly when DecodeSend accepts the body, with the same request.
// DecodeSend ignores bytes after the first value, so the batch property
// wraps that value alone.
func FuzzDecodeSend(f *testing.F) {
	for _, body := range loadSendBodies(f, "testdata/send_bodies.txt") {
		f.Add([]byte(body))
		f.Add([]byte("[" + body + "]"))
	}
	raw, err := os.ReadFile("testdata/parity.json")
	if err != nil {
		f.Fatal(err)
	}
	var parity []struct{ Body string }
	if err := json.Unmarshal(raw, &parity); err != nil {
		f.Fatal(err)
	}
	for _, c := range parity {
		f.Add([]byte(c.Body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeSend(body)

		dec := json.NewDecoder(bytes.NewReader(body))
		var first json.RawMessage
		if dec.Decode(&first) != nil {
			if err == nil {
				t.Fatalf("%q: accepted a body with no JSON value", body)
			}
			return
		}
		batch, batchErr := DecodeBatch([]byte("[" + string(body[:dec.InputOffset()]) + "]"))
		if (err == nil) != (batchErr == nil) {
			t.Fatalf("%q: DecodeSend error %v, DecodeBatch error %v", body, err, batchErr)
		}
		if err != nil {
			return
		}
		if len(batch) != 1 || !reflect.DeepEqual(batch[0], req) {
			t.Fatalf("%q: batch %+v, send %+v", body, batch, req)
		}

		wire := SendRequest{Selector: req.Selector, Key: req.Key, MaxSteps: req.MaxSteps, TimeoutMS: req.Timeout.Milliseconds()}
		var ok bool
		if wire.Receiver, ok = numberOf(req.Receiver); !ok {
			return
		}
		for _, a := range req.Args {
			n, ok := numberOf(a)
			if !ok {
				return
			}
			wire.Args = append(wire.Args, n)
		}
		again, err := json.Marshal(wire)
		if err != nil {
			t.Fatalf("%q: re-encode %+v: %v", body, wire, err)
		}
		back, err := DecodeSend(again)
		if err != nil {
			t.Fatalf("%q: re-encoded as %s, refused: %v", body, again, err)
		}
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("%q: re-encoded as %s, decodes to %+v, want %+v", body, again, back, req)
		}
	})
}
