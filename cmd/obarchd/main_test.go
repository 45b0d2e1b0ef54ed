package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/httpwire"
	"repro/internal/node"
	"repro/internal/serve"
	"repro/internal/workload"
)

// suiteSnapshot compiles the workload suite plus any extra source into a
// snapshot, as a cold `obarchd` boot does.
func suiteSnapshot(tb testing.TB, extraSrc ...string) *obarch.Snapshot {
	tb.Helper()
	sys := obarch.NewSystem(obarch.Options{})
	if _, err := workload.LoadSuite(sys.M); err != nil {
		tb.Fatal(err)
	}
	for _, src := range extraSrc {
		if err := sys.Load(src); err != nil {
			tb.Fatalf("load extra source: %v", err)
		}
	}
	snap, err := sys.Snapshot()
	if err != nil {
		tb.Fatalf("snapshot: %v", err)
	}
	return snap
}

// startNode serves snap on loopback listeners, HTTP and obwire, and
// drains the node when tb ends.
func startNode(tb testing.TB, snap *obarch.Snapshot, programs []workload.Program, cfg node.Config) *node.Node {
	tb.Helper()
	return startBootedNode(tb, snap, programs, node.BootInfo{}, cfg)
}

// startBootedNode is startNode for a snapshot with provenance boot, as
// node.Boot reports it.
func startBootedNode(tb testing.TB, snap *obarch.Snapshot, programs []workload.Program, boot node.BootInfo, cfg node.Config) *node.Node {
	tb.Helper()
	cfg.Addr, cfg.BinaryAddr = "127.0.0.1:0", "127.0.0.1:0"
	n, err := node.New(snap, programs, boot, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		n.Shutdown(ctx)
	})
	return n
}

// startSuiteNode is startNode over the full workload suite with pool
// configuration pc, as `obarchd` with default flags serves it.
func startSuiteNode(tb testing.TB, pc serve.Config) *node.Node {
	tb.Helper()
	return startNode(tb, suiteSnapshot(tb), workload.Suite(), node.Config{Pool: pc})
}

// doubleSnapshot is an image holding one method, SmallInt>>double.
func doubleSnapshot(tb testing.TB) *obarch.Snapshot {
	tb.Helper()
	sys := obarch.NewSystem(obarch.Options{})
	if err := sys.Load(`extend SmallInt [ method double [ ^self + self ] ]`); err != nil {
		tb.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// statsOf decodes the node's /stats into v through its handler, which
// answers after Shutdown too.
func statsOf(t *testing.T, n *node.Node, v any) {
	t.Helper()
	w := httptest.NewRecorder()
	n.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
}

// url answers the node's HTTP base URL.
func url(n *node.Node) string { return "http://" + n.Addr() }

func postSend(t *testing.T, n *node.Node, body string) (int, httpwire.SendResponse) {
	t.Helper()
	resp, err := http.Post(url(n)+"/send", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /send: %v", err)
	}
	defer resp.Body.Close()
	var out httpwire.SendResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode /send response: %v", err)
	}
	return resp.StatusCode, out
}

// TestServerEndToEndConcurrent is the acceptance run: 8 concurrent HTTP
// clients replay the full workload suite and validate every checksum.
func TestServerEndToEndConcurrent(t *testing.T) {
	n := startSuiteNode(t, serve.Config{Workers: 4, Timeout: 30 * time.Second})

	const clients = 8
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, p := range workload.Suite() {
				body := fmt.Sprintf(`{"receiver": %d, "selector": %q}`, p.Size, p.Entry)
				status, out := postSend(t, n, body)
				if status != http.StatusOK {
					t.Errorf("client %d: %s: status %d (%s)", g, p.Name, status, out.Error)
					return
				}
				got, ok := out.Result.(float64)
				if !ok {
					t.Errorf("client %d: %s: non-numeric result %v", g, p.Name, out.Result)
					return
				}
				if int32(got) != p.Check {
					t.Errorf("client %d: %s checksum %d, want %d", g, p.Name, int32(got), p.Check)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// The stats endpoint reflects the traffic.
	resp, err := http.Get(url(n) + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var stats struct {
		Requests uint64  `json:"requests"`
		Errors   uint64  `json:"errors"`
		ITLB     float64 `json:"itlb_hit_ratio"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	if want := uint64(clients * len(workload.Suite())); stats.Requests != want {
		t.Fatalf("/stats saw %d requests, want %d", stats.Requests, want)
	}
	if stats.Errors != 0 {
		t.Fatalf("/stats saw %d errors", stats.Errors)
	}
}

func TestServerSendWithArgsAndErrors(t *testing.T) {
	n := startSuiteNode(t, serve.Config{Workers: 1, Timeout: 30 * time.Second})

	// Primitive send with an argument.
	status, out := postSend(t, n, `{"receiver": 40, "selector": "+", "args": [2]}`)
	if status != http.StatusOK {
		t.Fatalf("40 + 2: status %d (%s)", status, out.Error)
	}
	if got, ok := out.Result.(float64); !ok || got != 42 {
		t.Fatalf("40 + 2 = %v", out.Result)
	}

	// doesNotUnderstand surfaces as a machine error, not a transport one.
	status, out = postSend(t, n, `{"receiver": 1, "selector": "noSuchSelector"}`)
	if status != http.StatusUnprocessableEntity || out.Error == "" {
		t.Fatalf("unknown selector: status %d, error %q", status, out.Error)
	}

	// A per-request step budget bounds a heavy request.
	status, out = postSend(t, n, `{"receiver": 800, "selector": "benchArith", "max_steps": 50}`)
	if status != http.StatusUnprocessableEntity || !strings.Contains(out.Error, "step limit") {
		t.Fatalf("tiny budget: status %d, error %q", status, out.Error)
	}

	// Malformed JSON is a 400.
	resp, err := http.Post(url(n)+"/send", "application/json", bytes.NewReader([]byte(`{`)))
	if err != nil {
		t.Fatalf("POST bad JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", resp.StatusCode)
	}
}

func TestServerProgramsAndHealth(t *testing.T) {
	n := startSuiteNode(t, serve.Config{Workers: 1, Timeout: 30 * time.Second})

	resp, err := http.Get(url(n) + "/programs")
	if err != nil {
		t.Fatalf("GET /programs: %v", err)
	}
	var progs []httpwire.ProgramInfo
	if err := json.NewDecoder(resp.Body).Decode(&progs); err != nil {
		t.Fatalf("decode /programs: %v", err)
	}
	resp.Body.Close()
	if len(progs) != len(workload.Suite()) {
		t.Fatalf("/programs listed %d programs, want %d", len(progs), len(workload.Suite()))
	}

	resp, err = http.Get(url(n) + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(url(n) + "/stats?format=text")
	if err != nil {
		t.Fatalf("GET /stats?format=text: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "serving pool") {
		t.Fatalf("text stats missing table header:\n%s", buf.String())
	}
}

// TestServerBatchEndpoint replays the suite through POST /batch and
// validates order preservation, per-request checksums, and inline error
// reporting for a failing entry in the middle of an otherwise good batch.
func TestServerBatchEndpoint(t *testing.T) {
	n := startSuiteNode(t, serve.Config{Workers: 2, Timeout: 30 * time.Second})

	programs := workload.Suite()
	var batch []map[string]any
	for _, p := range programs {
		batch = append(batch, map[string]any{"receiver": p.Size, "selector": p.Entry})
	}
	batch = append(batch, map[string]any{"receiver": 1, "selector": "noSuchSelector"})
	body, _ := json.Marshal(batch)

	resp, err := http.Post(url(n)+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out []httpwire.SendResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode /batch response: %v", err)
	}
	if len(out) != len(batch) {
		t.Fatalf("got %d results for %d requests", len(out), len(batch))
	}
	for i, p := range programs {
		if out[i].Error != "" {
			t.Fatalf("%s: %s", p.Name, out[i].Error)
		}
		got, ok := out[i].Result.(float64)
		if !ok || int32(got) != p.Check {
			t.Fatalf("%s: result %v, want %d", p.Name, out[i].Result, p.Check)
		}
	}
	if last := out[len(out)-1]; last.Error == "" {
		t.Fatalf("doesNotUnderstand request reported no error")
	}

	// Malformed batches are rejected wholesale.
	resp2, err := http.Post(url(n)+"/batch", "application/json", strings.NewReader(`[{"receiver": 1}]`))
	if err != nil {
		t.Fatalf("POST bad /batch: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch status %d, want 400", resp2.StatusCode)
	}
}

// TestServerBatchWindow pins the /batch contract on a node: one batch of
// 10^4 same-key elements, every hundredth a machine error, on a 1-worker
// pool at the default queue depth. Every answer and inline error lands
// at its element's index, and nothing is refused: at most
// httpwire.BatchWindow elements are in flight, and the window is no
// deeper than the queue, so one batch alone never overflows its shard.
func TestServerBatchWindow(t *testing.T) {
	const count = 10000
	n := startParityNode(t)

	var body bytes.Buffer
	body.WriteString(`[`)
	for i := 0; i < count; i++ {
		if i > 0 {
			body.WriteString(",")
		}
		sel := "double"
		if i%100 == 7 {
			sel = "noSuchSelector"
		}
		fmt.Fprintf(&body, `{"receiver": %d, "selector": %q, "key": 5}`, i, sel)
	}
	body.WriteString(`]`)
	resp, err := http.Post(url(n)+"/batch", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out []httpwire.SendResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != count {
		t.Fatalf("%d results, want %d", len(out), count)
	}
	for i, r := range out {
		if i%100 == 7 {
			if !strings.Contains(r.Error, "noSuchSelector") || r.Result != nil {
				t.Fatalf("batch[%d] = %+v, want the inline machine error", i, r)
			}
		} else if r.Error != "" || r.Result != float64(2*i) {
			t.Fatalf("batch[%d] = %+v, want %d", i, r, 2*i)
		}
	}
	if met := n.Pool().Metrics(); met.Rejected != 0 || met.Requests != count {
		t.Fatalf("pool served %d and refused %d, want %d and 0", met.Requests, met.Rejected, count)
	}
}

// TestServerSaveAndWarmBoot is the persistence acceptance path: POST /save
// writes the image, a second daemon cold-boots from that file (no
// compile), and the disk-booted pool serves the whole suite with correct
// checksums.
func TestServerSaveAndWarmBoot(t *testing.T) {
	imagePath := filepath.Join(t.TempDir(), "com.img")
	n := startNode(t, suiteSnapshot(t), workload.Suite(), node.Config{Pool: serve.Config{Workers: 2, Timeout: 30 * time.Second}, ImagePath: imagePath})

	resp, err := http.Post(url(n)+"/save", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /save: %v", err)
	}
	var saved struct {
		Path  string `json:"path"`
		Bytes int64  `json:"bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&saved); err != nil {
		t.Fatalf("decode /save response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/save status %d", resp.StatusCode)
	}
	if fi, err := os.Stat(imagePath); err != nil || fi.Size() != saved.Bytes || saved.Bytes == 0 {
		t.Fatalf("/save reported %d bytes at %s; stat: %v", saved.Bytes, saved.Path, err)
	} else if fi.Mode().Perm() != 0o644 {
		t.Fatalf("saved image mode %v, want 0644", fi.Mode().Perm())
	}
	if staged, _ := filepath.Glob(filepath.Join(filepath.Dir(imagePath), ".obarch-image-*")); len(staged) != 0 {
		t.Fatalf("/save left staging files behind: %v", staged)
	}

	// Boot a second node from the image, exactly as `obarchd -image`
	// does, and replay the suite against it.
	snap, programs, boot, err := node.Boot(imagePath, "", true, nil)
	if err != nil {
		t.Fatalf("boot from image: %v", err)
	}
	if boot.Mode != "warm" || boot.ImagePath != imagePath || boot.FormatVersion == 0 {
		t.Fatalf("boot info = %+v, want a warm boot from %s", boot, imagePath)
	}
	n2 := startNode(t, snap, programs, node.Config{Pool: serve.Config{Workers: 2, Timeout: 30 * time.Second}, ImagePath: imagePath})
	for _, p := range workload.Suite() {
		status, out := postSend(t, n2, fmt.Sprintf(`{"receiver": %d, "selector": %q}`, p.Size, p.Entry))
		if status != http.StatusOK {
			t.Fatalf("disk boot: %s: status %d (%s)", p.Name, status, out.Error)
		}
		if got, ok := out.Result.(float64); !ok || int32(got) != p.Check {
			t.Fatalf("disk boot: %s checksum %v, want %d", p.Name, out.Result, p.Check)
		}
	}

	// A node without -image rejects /save instead of writing anywhere.
	n3 := startSuiteNode(t, serve.Config{Workers: 1, Timeout: 30 * time.Second})
	resp3, err := http.Post(url(n3)+"/save", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /save (no path): %v", err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("/save without -image: status %d, want 400", resp3.StatusCode)
	}
}

// TestServerGracefulShutdown exercises the SIGTERM path end to end:
// Shutdown must stop the listeners, let in-flight HTTP requests finish,
// drain the pool's queues, and leave the pool closed — with every
// accepted request served rather than dropped.
func TestServerGracefulShutdown(t *testing.T) {
	n := startSuiteNode(t, serve.Config{Workers: 2, Timeout: 30 * time.Second})
	pool := n.Pool()

	// Keep a batch of requests in flight while the drain begins.
	p := workload.Suite()[0]
	const inflight = 16
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"receiver": %d, "selector": %q}`, p.Size, p.Entry)
			resp, err := http.Post(url(n)+"/send", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out httpwire.SendResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if got, ok := out.Result.(float64); !ok || int32(got) != p.Check {
				errs <- fmt.Errorf("checksum %v, want %d", out.Result, p.Check)
			}
		}()
	}
	// Drain only after every request is visible to the pool (queued or
	// already served): http.Server.Shutdown closes connections that have
	// not yet delivered request bytes, so draining earlier would race the
	// posts themselves rather than exercise the drain path.
	deadline := time.Now().Add(10 * time.Second)
	for {
		accepted := int(pool.Metrics().Requests)
		for _, d := range pool.QueueDepths() {
			accepted += d
		}
		if accepted >= inflight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests reached the pool", accepted, inflight)
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.Shutdown(ctx)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("in-flight request during shutdown: %v", err)
	}

	// The pool is closed and drained: accepted work was served, new work
	// is refused.
	if res := pool.Do(serve.Request{Receiver: obarch.Int(1), Selector: "+", Args: []obarch.Value{obarch.Int(1)}}); !errors.Is(res.Err, serve.ErrClosed) {
		t.Fatalf("pool accepted work after shutdown: %v", res.Err)
	}
	met := pool.Metrics()
	if met.Requests < inflight {
		t.Fatalf("pool served %d of %d accepted requests", met.Requests, inflight)
	}
}
