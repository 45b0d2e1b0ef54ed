// Package httpwire is the HTTP edge obarchd and obrouter share: the JSON
// form of a message send and of its result, the body cap, the mapping
// from a send's outcome to an HTTP status, and the renderers behind
// /stats and /metrics. A client pointed at the router instead of a node
// gets the same answer to the same request because both tiers answer it
// from this package.
//
// Decoding and encoding are encoding/json throughout: this is the one
// codec for the HTTP wire, and FuzzDecodeSend keeps it honest on
// arbitrary bodies.
package httpwire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/word"
)

// MaxBody caps a /send or /batch body. Bodies are read whole before they
// are decoded, so without a cap one client could exhaust the process's
// memory; 8 MiB comfortably holds a six-figure batch of sends.
const MaxBody = 8 << 20

// BatchWindow bounds how many elements of one /batch are in flight at
// once, on a node and on the router alike: a node keeps at most this
// many pool futures outstanding, and the router routes the batch on this
// many goroutines, not one per element. Elements enter the window in
// request order and answers come back in request order. The window is
// no deeper than a pool's default queue, so one batch alone never
// overflows a shard: a refusal inside a batch means concurrent traffic
// filled the shard's queue (or the in-flight ceiling), and it is
// reported inline and retryable.
const BatchWindow = 64

// SendRequest is the wire form of one message send.
type SendRequest struct {
	Receiver  json.Number   `json:"receiver"`
	Selector  string        `json:"selector"`
	Args      []json.Number `json:"args,omitempty"`
	Key       uint64        `json:"key,omitempty"`
	MaxSteps  uint64        `json:"max_steps,omitempty"`
	TimeoutMS int64         `json:"timeout_ms,omitempty"`
}

// SendResponse is the wire form of a result. Result is always present on
// success — a method answering nil yields "result": null with no error —
// so clients distinguish success from failure by the error field alone.
type SendResponse struct {
	Result    any    `json:"result"`
	Error     string `json:"error,omitempty"`
	Worker    int    `json:"worker"`
	Steps     uint64 `json:"steps"`
	Cycles    uint64 `json:"cycles"`
	LatencyUS int64  `json:"latency_us"`
}

// ProgramInfo describes one loaded workload program (GET /programs).
type ProgramInfo struct {
	Name  string `json:"name"`
	Entry string `json:"entry"`
	Size  int32  `json:"size"`
	Warm  int32  `json:"warm"`
	Check int32  `json:"check"`
}

// ReadBody reads a whole request body, refusing one longer than MaxBody.
// It appends to buf[:0] and returns the grown buffer even on error, so a
// caller can recycle it. An error's text is the 400 answer.
func ReadBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, MaxBody)
	b := buf[:0]
	if n := r.ContentLength; n > int64(cap(b)) && n < 1<<20 {
		b = make([]byte, 0, n)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, fmt.Errorf("bad request: %w", err)
		}
	}
}

// DecodeSend decodes a /send body into a pool request. Bytes after the
// first JSON value are ignored. An error's text is the 400 answer.
func DecodeSend(body []byte) (serve.Request, error) {
	var wire SendRequest
	if err := decode(body, &wire); err != nil {
		return serve.Request{}, err
	}
	return toRequest(wire)
}

// DecodeBatch decodes a /batch body, an array of sends. One malformed
// element refuses the whole batch, naming the element's index.
func DecodeBatch(body []byte) ([]serve.Request, error) {
	var wire []SendRequest
	if err := decode(body, &wire); err != nil {
		return nil, err
	}
	reqs := make([]serve.Request, len(wire))
	for i, wr := range wire {
		var err error
		if reqs[i], err = toRequest(wr); err != nil {
			return nil, fmt.Errorf("request %d: %v", i, err)
		}
	}
	return reqs, nil
}

func decode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request: %w", err)
	}
	return nil
}

// toRequest converts one wire send into a pool request.
func toRequest(req SendRequest) (serve.Request, error) {
	if req.Selector == "" {
		return serve.Request{}, fmt.Errorf("missing selector")
	}
	recv, err := wordOf(req.Receiver)
	if err != nil {
		return serve.Request{}, fmt.Errorf("receiver: %v", err)
	}
	args := make([]word.Word, len(req.Args))
	for i, a := range req.Args {
		if args[i], err = wordOf(a); err != nil {
			return serve.Request{}, fmt.Errorf("arg %d: %v", i, err)
		}
	}
	timeout, err := Timeout(req.TimeoutMS)
	if err != nil {
		return serve.Request{}, err
	}
	return serve.Request{
		Receiver: recv,
		Selector: req.Selector,
		Args:     args,
		Key:      req.Key,
		MaxSteps: req.MaxSteps,
		Timeout:  timeout,
	}, nil
}

// maxTimeoutMS is the largest timeout_ms whose time.Duration does not
// overflow.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// Timeout converts a timeout_ms field to the request's wall-clock bound;
// 0 means the pool default. A negative value, or one whose Duration
// would overflow, is refused: either would otherwise reach the pool as a
// negative timeout.
func Timeout(ms int64) (time.Duration, error) {
	if ms < 0 || ms > maxTimeoutMS {
		return 0, fmt.Errorf("timeout_ms %d outside [0, %d]", ms, maxTimeoutMS)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// wordOf converts a JSON number to a machine value: integer literals
// become SmallInts (rejected when they exceed the 32-bit word, however
// large), literals written as floats ("1.5", "1e3") become Floats.
func wordOf(n json.Number) (word.Word, error) {
	if strings.ContainsAny(n.String(), ".eE") {
		f, err := n.Float64()
		if err != nil {
			return word.Word{}, fmt.Errorf("bad number %q", n.String())
		}
		return word.FromFloat(float32(f)), nil
	}
	i, err := n.Int64()
	if err != nil {
		return word.Word{}, fmt.Errorf("integer %q outside the 32-bit machine word", n.String())
	}
	if int64(int32(i)) != i {
		return word.Word{}, fmt.Errorf("integer %d outside the 32-bit machine word", i)
	}
	return word.FromInt(int32(i)), nil
}

// jsonOf converts a machine value to its JSON form.
func jsonOf(v word.Word) any {
	if i, ok := v.IntOK(); ok {
		return i
	}
	if f, ok := v.FloatOK(); ok {
		return f
	}
	switch v {
	case word.True:
		return true
	case word.False:
		return false
	case word.Nil:
		return nil
	}
	return v.String()
}

// ResultResponse is the wire form of a send the local pool answered.
func ResultResponse(res serve.Result) SendResponse {
	errText := ""
	if res.Err != nil {
		errText = res.Err.Error()
	}
	return response(res.Err == nil, res.Value, errText, res.Worker, res.Steps, res.Cycles, res.Latency)
}

// FrameResponse is the wire form of a send a node answered over obwire.
func FrameResponse(r obwire.Response) SendResponse {
	return response(r.OK(), r.Value, r.Err, int(r.Worker), r.Steps, r.Cycles, r.Latency)
}

func response(ok bool, v word.Word, errText string, worker int, steps, cycles uint64, lat time.Duration) SendResponse {
	out := SendResponse{Worker: worker, Steps: steps, Cycles: cycles, LatencyUS: lat.Microseconds()}
	if ok {
		out.Result = jsonOf(v)
	} else {
		out.Error = errText
	}
	return out
}

// Status maps an obwire frame status to its HTTP status: OK is 200,
// overload refusals are 429 (the node is saturated; back off and retry),
// deadline sheds are 503 (the send died waiting in queue; retry, ideally
// elsewhere), and every other status is 422 — the send executed and the
// machine said no, so retrying it buys nothing. A node maps its pool's
// errors through obwire.StatusFor first, so one table serves both wires.
func Status(frame uint8) int {
	switch frame {
	case obwire.StatusOK:
		return http.StatusOK
	case obwire.StatusOverloaded:
		return http.StatusTooManyRequests
	case obwire.StatusShed:
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

// RetryAfter tells a refused client when to come back: 429 and 503 are
// transient by construction, so they carry Retry-After.
func RetryAfter(w http.ResponseWriter, status int) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
}

// Error answers status with the body {"error": msg}, encoded like every
// other response, so control bytes and invalid UTF-8 in msg still yield
// valid JSON.
func Error(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}

// WriteJSON answers status with v encoded by encoding/json.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("httpwire: encode response: %v", err)
	}
}
