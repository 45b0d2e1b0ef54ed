package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	obarch "repro"
	"repro/internal/cluster"
	"repro/internal/httpwire"
	"repro/internal/node"
	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/word"
	"repro/internal/workload"
)

func doubleSnapshot(t testing.TB) *obarch.Snapshot {
	t.Helper()
	sys := obarch.NewSystem(obarch.Options{})
	if err := sys.Load(`extend SmallInt [ method double [ ^self + self ] ]`); err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// startNode runs a real node on loopback listeners, serving the doubling
// image with pool configuration cfg, and drains it when t ends.
func startNode(t testing.TB, cfg serve.Config) *node.Node {
	t.Helper()
	programs := []workload.Program{{Name: "double", Entry: "double"}}
	n, err := node.New(doubleSnapshot(t), programs, node.BootInfo{}, node.Config{Pool: cfg, Addr: "127.0.0.1:0", BinaryAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		n.Shutdown(ctx)
	})
	return n
}

func nodeSpec(n *node.Node) cluster.NodeSpec {
	return cluster.NodeSpec{HTTPAddr: n.Addr(), BinAddr: n.BinaryAddr()}
}

func startRouter(t testing.TB, nodes ...*node.Node) (*cluster.Router, *httptest.Server) {
	t.Helper()
	cfg := cluster.Config{
		PollInterval:  25 * time.Millisecond,
		FailThreshold: 2,
		Cooldown:      100 * time.Millisecond,
		Vnodes:        16,
	}
	for _, n := range nodes {
		cfg.Nodes = append(cfg.Nodes, nodeSpec(n))
	}
	r := cluster.New(cfg)
	web := httptest.NewServer(newRouterServer(r))
	t.Cleanup(func() {
		web.Close()
		r.Close()
	})
	return r, web
}

func postSend(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/send", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, out
}

// TestParseNodes pins the -nodes flag grammar.
func TestParseNodes(t *testing.T) {
	specs, err := parseNodes("a:1=b:2, c:3=d:4 ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].HTTPAddr != "a:1" || specs[0].BinAddr != "b:2" || specs[1].HTTPAddr != "c:3" {
		t.Fatalf("parsed %+v", specs)
	}
	if _, err := parseNodes("justoneaddr"); err == nil {
		t.Fatal("missing = accepted")
	}
	if specs, err := parseNodes(""); err != nil || specs != nil {
		t.Fatalf("empty flag: %v %v", specs, err)
	}
}

// TestHTTPSendThroughRouter drives the whole front tier over HTTP: the
// single-node wire shape in, routed over obwire, the single-node wire
// shape out.
func TestHTTPSendThroughRouter(t *testing.T) {
	a := startNode(t, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	b := startNode(t, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	_, web := startRouter(t, a, b)

	resp, out := postSend(t, web.URL, `{"receiver": 21, "selector": "double"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["result"] != float64(42) {
		t.Fatalf("result = %v, want 42", out["result"])
	}
	if out["error"] != nil {
		t.Fatalf("unexpected error: %v", out["error"])
	}

	// Machine errors keep their 422 and are never failed over.
	resp, out = postSend(t, web.URL, `{"receiver": 21, "selector": "nosuch"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("machine error status %d, want 422 (%v)", resp.StatusCode, out)
	}

	// Bad requests are refused at the router, touching no backend.
	r2, err := http.Post(web.URL+"/send", "application/json", strings.NewReader(`{"selector":""}`))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty selector status %d, want 400", r2.StatusCode)
	}
}

// TestHTTPBatchThroughRouter routes an array body, elements landing
// wherever the balancer sends them, results in request order.
func TestHTTPBatchThroughRouter(t *testing.T) {
	a := startNode(t, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	b := startNode(t, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	_, web := startRouter(t, a, b)

	var body bytes.Buffer
	body.WriteString(`[`)
	for i := 0; i < 32; i++ {
		if i > 0 {
			body.WriteString(",")
		}
		fmt.Fprintf(&body, `{"receiver": %d, "selector": "double"}`, i)
	}
	body.WriteString(`]`)
	resp, err := http.Post(web.URL+"/batch", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []httpwire.SendResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 32 {
		t.Fatalf("%d results, want 32", len(out))
	}
	for i, r := range out {
		if r.Error != "" {
			t.Fatalf("batch[%d]: %s", i, r.Error)
		}
		if r.Result != float64(2*i) {
			t.Fatalf("batch[%d] = %v, want %d", i, r.Result, 2*i)
		}
	}
}

// TestHTTPBatchFanoutBounded sends a batch of 10^4 elements, one in
// every hundred a machine error, and watches the router's sends: no more
// than httpwire.BatchWindow run at once, the bound is reached, and every
// answer and inline error stays at its element's index.
func TestHTTPBatchFanoutBounded(t *testing.T) {
	const n = 10000
	r, _ := startRouter(t, startNode(t, serve.Config{Workers: 2, Timeout: 10 * time.Second}))
	rs := newRouterServer(r)
	var mu sync.Mutex
	live, high := 0, 0
	rs.route = func(req serve.Request) (obwire.Response, error) {
		mu.Lock()
		live++
		high = max(high, live)
		mu.Unlock()
		time.Sleep(100 * time.Microsecond) // hold the slot so the sends overlap
		resp, err := r.Send(req)
		mu.Lock()
		live--
		mu.Unlock()
		return resp, err
	}
	web := httptest.NewServer(rs)
	defer web.Close()

	var body bytes.Buffer
	body.WriteString(`[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			body.WriteString(",")
		}
		sel := "double"
		if i%100 == 7 {
			sel = "noSuchSelector"
		}
		fmt.Fprintf(&body, `{"receiver": %d, "selector": %q}`, i, sel)
	}
	body.WriteString(`]`)
	resp, err := http.Post(web.URL+"/batch", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []httpwire.SendResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("%d results, want %d", len(out), n)
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
	if high != httpwire.BatchWindow {
		t.Fatalf("%d sends ran at once, want the bound %d", high, httpwire.BatchWindow)
	}
}

// TestRouterObservability exercises /stats, /metrics, /readyz,
// /healthz, and /programs: the obarchd-parity surface.
func TestRouterObservability(t *testing.T) {
	a := startNode(t, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	_, web := startRouter(t, a)

	for i := 0; i < 10; i++ {
		resp, out := postSend(t, web.URL, `{"receiver": 1, "selector": "double"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("send %d: %d %v", i, resp.StatusCode, out)
		}
	}

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(web.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp, sb.String()
	}

	resp, body := get("/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats: %d", resp.StatusCode)
	}
	var st struct {
		Cluster cluster.Stats `json:"cluster"`
		Ready   bool          `json:"ready"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/stats decode: %v", err)
	}
	if st.Cluster.Sends != 10 || len(st.Cluster.Nodes) != 1 || !st.Ready {
		t.Fatalf("/stats cluster block: sends=%d nodes=%d ready=%v", st.Cluster.Sends, len(st.Cluster.Nodes), st.Ready)
	}
	if st.Cluster.Nodes[0].Completed != 10 {
		t.Fatalf("node completed = %d, want 10", st.Cluster.Nodes[0].Completed)
	}

	resp, body = get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		"obarch_cluster_sends_total 10",
		"obarch_cluster_quorum 1",
		"obarch_cluster_node_state{",
		"obarch_cluster_node_completed_total{",
		"obarch_cluster_send_seconds_count 10",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if resp, _ := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz: %d, want 200", resp.StatusCode)
	}
	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}
	resp, body = get("/programs")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "double") {
		t.Fatalf("/programs: %d %q", resp.StatusCode, body)
	}
}

// TestRouterReadyzQuorum pins the quorum answer: alive with a majority
// routable, 503 "no-quorum" once the majority is gone.
func TestRouterReadyzQuorum(t *testing.T) {
	a := startNode(t, serve.Config{Workers: 1, Timeout: 10 * time.Second})
	r, web := startRouter(t, a)

	// Take the only node down; the router loses its quorum.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	a.Shutdown(ctx)
	cancel()

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(web.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 256)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if !strings.Contains(string(body[:n]), "no-quorum") {
				t.Fatalf("/readyz body %q, want no-quorum", body[:n])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped to 503 after the only backend died")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if ok, _, _ := r.Ready(); ok {
		t.Fatal("Router.Ready() still true")
	}
	// Sends now answer 503 + Retry-After: the no-backend refusal.
	resp, out := postSend(t, web.URL, `{"receiver": 1, "selector": "double"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("send with no backends: %d %v, want 503", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After on the no-backend refusal")
	}
}

// TestNodesJoinLeaveHTTP drives membership over the admin endpoints.
func TestNodesJoinLeaveHTTP(t *testing.T) {
	a := startNode(t, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	b := startNode(t, serve.Config{Workers: 2, Timeout: 10 * time.Second})
	r, web := startRouter(t, a)

	spec := nodeSpec(b)
	body := fmt.Sprintf(`{"http_addr": %q, "bin_addr": %q}`, spec.HTTPAddr, spec.BinAddr)
	resp, err := http.Post(web.URL+"/nodes/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d", resp.StatusCode)
	}
	if len(r.Nodes()) != 2 {
		t.Fatalf("membership %d after join, want 2", len(r.Nodes()))
	}
	// Duplicate join conflicts.
	resp, _ = http.Post(web.URL+"/nodes/join", "application/json", strings.NewReader(body))
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate join: %d, want 409", resp.StatusCode)
	}

	resp, err = http.Post(web.URL+"/nodes/leave", "application/json",
		strings.NewReader(fmt.Sprintf(`{"bin_addr": %q}`, spec.BinAddr)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave: %d", resp.StatusCode)
	}
	if len(r.Nodes()) != 1 {
		t.Fatalf("membership %d after leave, want 1", len(r.Nodes()))
	}
	// Traffic still flows on the survivor.
	if resp, out := postSend(t, web.URL, `{"receiver": 3, "selector": "double"}`); resp.StatusCode != http.StatusOK || out["result"] != float64(6) {
		t.Fatalf("send after leave: %d %v", resp.StatusCode, out)
	}
}

// TestPolledDepthCountsQueueOnce pins the router's JSQ load signal
// against a real node with an in-flight ceiling. k requests held in the
// queues of a quiesced pool appear in the node's /stats twice — summed
// in queue_depths and again in in_flight — and the router must count
// them once.
func TestPolledDepthCountsQueueOnce(t *testing.T) {
	const k = 5
	n := startNode(t, serve.Config{Workers: 2, MaxInFlight: 100, Timeout: 10 * time.Second})
	r, _ := startRouter(t, n)
	pool := n.Pool()
	release := pool.Quiesce()
	futures := make([]*serve.Future, k)
	for i := range futures {
		futures[i] = pool.Go(serve.Request{Receiver: word.FromInt(int32(i)), Selector: "double", Key: uint64(i) + 1})
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().Nodes[0].QueueDepth < k {
		if time.Now().After(deadline) {
			release()
			t.Fatalf("no poll saw the %d queued requests", k)
		}
		time.Sleep(5 * time.Millisecond)
	}
	got := r.Stats().Nodes[0].QueueDepth
	release()
	for i, f := range futures {
		if res := f.Wait(); res.Err != nil {
			t.Errorf("request %d: %v", i, res.Err)
		}
	}
	if got != k {
		t.Fatalf("router depth for a node holding %d requests = %d, want %d", k, got, k)
	}
}

// decodeRefusal asserts body is the httpwire error JSON and returns its
// message.
func decodeRefusal(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("refusal body %q is not the error JSON (%v)", body, err)
	}
	return e.Error
}

// TestNodesJoinRefusals: POST /nodes/join refuses an address that is not
// host:port with a port in 1–65535 with 400, and a node already joined
// with 409, each time leaving the membership as it was.
func TestNodesJoinRefusals(t *testing.T) {
	a := startNode(t, serve.Config{Workers: 1, Timeout: 10 * time.Second})
	r, web := startRouter(t, a)
	good := nodeSpec(a)
	for _, tc := range []struct {
		name, httpAddr, binAddr string
		want                    int
	}{
		{"no port", "x", "y", http.StatusBadRequest},
		{"bad host:port", "127.0.0.1", good.BinAddr, http.StatusBadRequest},
		{"non-numeric port", good.HTTPAddr, "127.0.0.1:http", http.StatusBadRequest},
		{"port 0", "127.0.0.1:0", "127.0.0.1:9", http.StatusBadRequest},
		{"port 65536", "127.0.0.1:8", "127.0.0.1:65536", http.StatusBadRequest},
		{"no host", ":8373", "127.0.0.1:9", http.StatusBadRequest},
		{"missing bin_addr", good.HTTPAddr, "", http.StatusBadRequest},
		{"duplicate", good.HTTPAddr, good.BinAddr, http.StatusConflict},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := fmt.Sprintf(`{"http_addr": %q, "bin_addr": %q}`, tc.httpAddr, tc.binAddr)
			resp, err := http.Post(web.URL+"/nodes/join", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("join %s: %d %s, want %d", body, resp.StatusCode, buf.Bytes(), tc.want)
			}
			decodeRefusal(t, buf.Bytes())
			if nodes := r.Nodes(); len(nodes) != 1 || nodes[0].BinAddr != good.BinAddr {
				t.Fatalf("membership changed by a refused join: %d nodes", len(nodes))
			}
		})
	}
}

// TestNodesFlagAdmitsThroughJoin: obrouter's -nodes list goes through
// Router.Join, so a duplicate or a malformed address fails startup.
func TestNodesFlagAdmitsThroughJoin(t *testing.T) {
	cfg := cluster.Config{PollInterval: time.Hour}
	for _, bad := range []string{
		"127.0.0.1:1=127.0.0.1:2,127.0.0.1:1=127.0.0.1:2",
		"127.0.0.1:1=127.0.0.1:2,x=y",
		"",
	} {
		if r, err := newRouter(bad, cfg); err == nil {
			r.Close()
			t.Errorf("-nodes %q started a router with %d nodes", bad, len(r.Nodes()))
		}
	}
	r, err := newRouter("127.0.0.1:1=127.0.0.1:2,127.0.0.1:3=127.0.0.1:4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := len(r.Nodes()); n != 2 {
		t.Fatalf("%d nodes, want 2", n)
	}
}

// FuzzNodesJoinLeave drives POST /nodes/join and /nodes/leave with
// arbitrary addresses and raw bodies against a closed router, so no
// poller starts and nothing dials. A join answers 400 unless both
// addresses pass NodeSpec.Validate and 409 (router closed) when they
// do; a leave answers 400 or 404; every refusal is the error JSON.
func FuzzNodesJoinLeave(f *testing.F) {
	f.Add("127.0.0.1:8373", "127.0.0.1:9373", []byte(`{"bin_addr": "127.0.0.1:9373"}`))
	f.Add("x", "y", []byte(`{"http_addr": "x", "bin_addr": "y"}`))
	f.Add("127.0.0.1:0", "[::1]:65535", []byte(`{"http_addr": 5}`))
	f.Add(":80", "host:65536", []byte(`not json`))
	f.Add("h:+1", "[::1:2", []byte(``))
	r := cluster.New(cluster.Config{})
	r.Close()
	s := newRouterServer(r)
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return w
	}
	f.Fuzz(func(t *testing.T, httpAddr, binAddr string, raw []byte) {
		refusal := func(w *httptest.ResponseRecorder, allowed ...int) {
			t.Helper()
			for _, code := range allowed {
				if w.Code == code {
					decodeRefusal(t, w.Body.Bytes())
					return
				}
			}
			t.Fatalf("status %d %s, want one of %v", w.Code, w.Body.Bytes(), allowed)
		}
		var spec struct {
			HTTPAddr string `json:"http_addr"`
			BinAddr  string `json:"bin_addr"`
		}
		spec.HTTPAddr, spec.BinAddr = httpAddr, binAddr
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Decode what the handler will see: invalid UTF-8 comes back
		// replaced.
		if err := json.Unmarshal(body, &spec); err != nil {
			t.Fatal(err)
		}
		want := http.StatusConflict
		if len(body) > 4096 || (cluster.NodeSpec{HTTPAddr: spec.HTTPAddr, BinAddr: spec.BinAddr}).Validate() != nil {
			want = http.StatusBadRequest
		}
		refusal(post("/nodes/join", body), want)
		refusal(post("/nodes/join", raw), http.StatusBadRequest, http.StatusConflict)
		refusal(post("/nodes/leave", body), http.StatusBadRequest, http.StatusNotFound)
		refusal(post("/nodes/leave", raw), http.StatusBadRequest, http.StatusNotFound)
	})
}
