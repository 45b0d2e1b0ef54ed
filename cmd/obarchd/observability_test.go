package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/image"
	"repro/internal/node"
	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/word"
	"repro/internal/workload"
)

// driveTraffic replays the suite once against the node so every
// observability surface has live data behind it.
func driveTraffic(t *testing.T, n *node.Node) {
	t.Helper()
	for _, p := range workload.Suite() {
		body := fmt.Sprintf(`{"receiver": %d, "selector": %q}`, p.Size, p.Entry)
		if status, out := postSend(t, n, body); status != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", p.Name, status, out.Error)
		}
	}
}

func get(t *testing.T, n *node.Node, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(url(n) + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsEndpoint scrapes /metrics under live traffic and checks the
// exposition carries real counts in every family the daemon promises.
func TestMetricsEndpoint(t *testing.T) {
	n := startSuiteNode(t, serve.Config{Workers: 2, Timeout: 30 * time.Second})
	driveTraffic(t, n)

	status, body := get(t, n, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	count := len(workload.Suite())
	wantLines := []string{
		fmt.Sprintf("obarch_requests_total %d", count),
		"obarch_errors_total 0",
		"obarch_workers 2",
		fmt.Sprintf(`obarch_image_info{path="",mode="compile",version="%d"} 1`, image.FormatVersion),
		`obarch_queue_depth{worker="0"} 0`,
		`obarch_queue_depth{worker="1"} 0`,
		fmt.Sprintf(`obarch_service_latency_seconds_bucket{le="+Inf"} %d`, count),
		fmt.Sprintf("obarch_service_latency_seconds_count %d", count),
		fmt.Sprintf(`obarch_http_latency_seconds_bucket{le="+Inf"} %d`, count),
	}
	for _, want := range wantLines {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Counters that must be live, not just present.
	for _, prefix := range []string{"obarch_instructions_total ", "obarch_cycles_total ", "obarch_itlb_lookups_total ", "go_goroutines ", "go_memstats_heap_alloc_bytes ", "obarch_uptime_seconds "} {
		found := false
		for _, line := range strings.Split(body, "\n") {
			var v float64
			if n, _ := fmt.Sscanf(line, prefix+"%g", &v); strings.HasPrefix(line, prefix) && n == 1 && v > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("/metrics: %q absent or zero", strings.TrimSpace(prefix))
		}
	}
	// Every HELP has a TYPE, the exposition-format invariant scrapers
	// actually depend on.
	if h, ty := strings.Count(body, "# HELP"), strings.Count(body, "# TYPE"); h != ty || h == 0 {
		t.Errorf("/metrics: %d HELP lines vs %d TYPE lines", h, ty)
	}
	if ct := func() string {
		resp, err := http.Get(url(n) + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.Header.Get("Content-Type")
	}(); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q lacks exposition version", ct)
	}
}

// TestMetricsLabelRoundTrip checks that a label value with a quote and a
// backslash in it is escaped exactly once: a scraper undoing the
// exposition format's three escapes reads back the original image path.
func TestMetricsLabelRoundTrip(t *testing.T) {
	const path = `/img/a"b\c.img`
	n := startNode(t, suiteSnapshot(t), workload.Suite(), node.Config{Pool: serve.Config{Workers: 1, Timeout: 30 * time.Second}, ImagePath: path})
	_, body := get(t, n, "/metrics")
	const prefix = `obarch_image_info{path="`
	i := strings.Index(body, prefix)
	if i < 0 {
		t.Fatalf("/metrics has no %s line", prefix)
	}
	var got strings.Builder
	rest := body[i+len(prefix):]
	for j := 0; ; j++ {
		if j >= len(rest) || rest[j] == '\n' {
			t.Fatalf("unterminated path label: %q", rest)
		}
		if rest[j] == '"' {
			break
		}
		if rest[j] == '\\' && j+1 < len(rest) {
			j++
			switch rest[j] {
			case '\\', '"':
				got.WriteByte(rest[j])
			case 'n':
				got.WriteByte('\n')
			default:
				t.Fatalf("escape \\%c is not in the exposition format", rest[j])
			}
			continue
		}
		got.WriteByte(rest[j])
	}
	if got.String() != path {
		t.Fatalf("path label reads back as %q, want %q", got.String(), path)
	}
}

// TestStatsIdentityAndSpans checks the /stats additions: node identity,
// image provenance, runtime gauges, and the per-stage span percentiles.
func TestStatsIdentityAndSpans(t *testing.T) {
	n := startSuiteNode(t, serve.Config{Workers: 2, Timeout: 30 * time.Second})
	driveTraffic(t, n)

	status, body := get(t, n, "/stats")
	if status != http.StatusOK {
		t.Fatalf("/stats status %d", status)
	}
	var st struct {
		StartTime string  `json:"start_time"`
		UptimeS   float64 `json:"uptime_s"`
		Image     struct {
			Mode          string `json:"mode"`
			FormatVersion int    `json:"format_version"`
		} `json:"image"`
		Runtime struct {
			Goroutines     int    `json:"goroutines"`
			HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
		} `json:"runtime"`
		ServiceUS struct {
			Count uint64 `json:"count"`
			P50   int64  `json:"p50"`
		} `json:"service_us"`
		QueueUS struct {
			Count uint64 `json:"count"`
		} `json:"queue_us"`
		DecodeUS struct {
			Count uint64 `json:"count"`
		} `json:"decode_us"`
		EncodeUS struct {
			Count uint64 `json:"count"`
		} `json:"encode_us"`
		SlowlogUS int64 `json:"slowlog_us"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	if ts, err := time.Parse(time.RFC3339Nano, st.StartTime); err != nil || time.Since(ts) < 0 {
		t.Errorf("start_time %q: %v", st.StartTime, err)
	}
	if st.UptimeS <= 0 {
		t.Errorf("uptime_s = %v", st.UptimeS)
	}
	if st.Image.Mode != "compile" || st.Image.FormatVersion != image.FormatVersion {
		t.Errorf("image provenance = %+v", st.Image)
	}
	if st.Runtime.Goroutines <= 0 || st.Runtime.HeapAllocBytes == 0 {
		t.Errorf("runtime gauges = %+v", st.Runtime)
	}
	count := uint64(len(workload.Suite()))
	if st.ServiceUS.Count != count {
		t.Errorf("service_us count = %d, want %d", st.ServiceUS.Count, count)
	}
	if st.DecodeUS.Count != count || st.EncodeUS.Count != count {
		t.Errorf("codec span counts = %d/%d, want %d", st.DecodeUS.Count, st.EncodeUS.Count, count)
	}
	// Sequential /send traffic runs the inline fast lane, so queue_us
	// stays empty — that is the lane working, not a missing stat.
	if st.QueueUS.Count != 0 {
		t.Logf("queue_us count = %d (some requests queued)", st.QueueUS.Count)
	}
}

// TestDebugSlowEndpoint arms a 1ns threshold so every request is slow,
// then checks /debug/slow returns captures with decoded event chains.
func TestDebugSlowEndpoint(t *testing.T) {
	n := startSuiteNode(t, serve.Config{Workers: 2, Timeout: 30 * time.Second, SlowThreshold: time.Nanosecond})
	driveTraffic(t, n)

	status, body := get(t, n, "/debug/slow")
	if status != http.StatusOK {
		t.Fatalf("/debug/slow status %d", status)
	}
	var out struct {
		ThresholdUS int64 `json:"threshold_us"`
		Captures    []struct {
			ID    uint64 `json:"id"`
			Steps uint64 `json:"steps"`
			Stats struct {
				Instructions uint64
			} `json:"stats"`
			Chain []struct {
				Kind string `json:"kind"`
				Req  uint64 `json:"req"`
			} `json:"chain"`
		} `json:"captures"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("decode /debug/slow: %v", err)
	}
	if len(out.Captures) == 0 {
		t.Fatal("no captures under live traffic")
	}
	for i, c := range out.Captures {
		if c.ID == 0 || c.Steps == 0 || c.Stats.Instructions != c.Steps {
			t.Errorf("capture %d: id=%d steps=%d stats=%+v", i, c.ID, c.Steps, c.Stats)
		}
		if len(c.Chain) < 2 {
			t.Errorf("capture %d chain has %d events", i, len(c.Chain))
			continue
		}
		last := c.Chain[len(c.Chain)-1]
		if last.Kind != "exec_end" && last.Kind != "abort" {
			t.Errorf("capture %d chain ends with %q", i, last.Kind)
		}
		for _, ev := range c.Chain {
			if ev.Req != c.ID {
				t.Errorf("capture %d chain holds foreign event %+v", i, ev)
			}
		}
	}
}

// TestPprofGatedByDebugFlag: the profiler is absent by default and
// mounted by Config.Debug, as the -debug flag does.
func TestPprofGatedByDebugFlag(t *testing.T) {
	snap := suiteSnapshot(t)
	n := startNode(t, snap, nil, node.Config{Pool: serve.Config{Workers: 1}})
	if status, _ := get(t, n, "/debug/pprof/"); status != http.StatusNotFound {
		t.Errorf("/debug/pprof/ without -debug: status %d, want 404", status)
	}
	n = startNode(t, snap, nil, node.Config{Pool: serve.Config{Workers: 1}, Debug: true})
	if status, body := get(t, n, "/debug/pprof/"); status != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ with -debug: status %d", status)
	}
	if status, _ := get(t, n, "/debug/pprof/cmdline"); status != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: status %d", status)
	}
}

// TestBinaryStatsSurfaces pins that the obwire transport counters reach
// every surface: the /stats binary block (JSON and text) and the
// obarch_binary_* family in /metrics. A lone send into an idle
// one-worker pool is run to completion by the connection's reader, so
// it counts in frames_inline as well as frames_in and frames_out; the
// ping after it counts in pings.
func TestBinaryStatsSurfaces(t *testing.T) {
	n := startSuiteNode(t, serve.Config{Workers: 1, Timeout: 30 * time.Second})
	m, err := obwire.DialMux(n.BinaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	p := workload.Suite()[0]
	if resp, err := m.Do(serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry}); err != nil || !resp.OK() {
		t.Fatalf("send: %+v, %v", resp, err)
	}
	// The writer counts a pong after every earlier answer, so once the
	// ping returns the frame counters are final.
	if _, _, err := m.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	_, body := get(t, n, "/stats")
	var st struct {
		Binary map[string]any `json:"binary"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	for _, k := range []string{"frames_in", "frames_out", "frames_inline", "pings"} {
		if v, _ := st.Binary[k].(float64); v != 1 {
			t.Errorf("/stats binary.%s = %v, want 1", k, st.Binary[k])
		}
	}
	if _, text := get(t, n, "/stats?format=text"); !strings.Contains(text, "frames_in=1 frames_out=1 frames_inline=1 pings=1 ") {
		t.Errorf("/stats text binary line lacks frames_inline=1 pings=1:\n%s", text)
	}
	_, metrics := get(t, n, "/metrics")
	for _, want := range []string{"obarch_binary_frames_in_total 1\n", "obarch_binary_frames_inline_total 1\n", "obarch_binary_pings_total 1\n"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(want))
		}
	}
}

// TestServerStatsLatencyFields checks the /stats latency surface: the
// service and HTTP percentile blocks, in both JSON and text form.
func TestServerStatsLatencyFields(t *testing.T) {
	n := startSuiteNode(t, serve.Config{Workers: 2, Timeout: 30 * time.Second})

	p := workload.Suite()[0]
	for i := 0; i < 4; i++ {
		status, out := postSend(t, n, fmt.Sprintf(`{"receiver": %d, "selector": %q}`, p.Size, p.Entry))
		if status != http.StatusOK {
			t.Fatalf("warm request %d: status %d (%s)", i, status, out.Error)
		}
	}
	resp, err := http.Get(url(n) + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		Requests uint64 `json:"requests"`
		Latency  struct {
			Count uint64 `json:"count"`
			P50   int64  `json:"p50"`
			P99   int64  `json:"p99"`
		} `json:"service_us"`
		HTTPLatency struct {
			Count uint64 `json:"count"`
			P99   int64  `json:"p99"`
		} `json:"http_latency_us"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode /stats: %v", err)
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

	text, err := http.Get(url(n) + "/stats?format=text")
	if err != nil {
		t.Fatalf("GET /stats?format=text: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(text.Body)
	text.Body.Close()
	for _, want := range []string{"service latency", "http latency"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("text stats missing %q:\n%s", want, buf.String())
		}
	}
}
