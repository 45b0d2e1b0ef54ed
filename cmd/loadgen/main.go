// Command loadgen replays the workload suite against a running obarchd as
// concurrent traffic, validates every checksum, and reports throughput and
// latency percentiles (from the same fixed-bucket histogram the server
// uses, merged across clients — no lock on the recording path).
//
//	obarchd -addr :8373 -binary-addr :8374 &
//	loadgen -addr http://localhost:8373 -clients 8 -rounds 4
//	loadgen -addr http://localhost:8373 -transport binary -binary-addr localhost:8374 -pipeline 4
//	loadgen -addr http://localhost:8373 -clients 8 -rounds 4 -batch 16
//	loadgen -addr http://localhost:8373 -skew 0.5
//
// Each client runs -pipeline N lanes, each a goroutine with one send in
// flight, on either wire: POST /send (-transport http, the default) or
// frames over one persistent obwire connection per client (-transport
// binary, with -binary-addr naming the daemon's obwire listener), which
// the lanes redial once between them when it dies. Both wires answer in
// obwire frame statuses and share one retry loop. At depth 1 a refused
// send (admission refusal, deadline shed, or failed connection) retries
// up to -retries times on exponential backoff with full jitter starting
// at -backoff (capped at 1s, never sooner than the server's Retry-After),
// so a drill against an overloaded or chaos-armed server measures
// recovery instead of dissolving into a retry storm. At depth >1 a
// refusal is counted in-band, one lost send, and never retried. Every
// refusal and retry is counted by kind in the report and -out artifact.
//
// With -batch K (HTTP at depth 1 only) each client groups K sends into
// one POST /batch request, which the server runs as ordinary pool sends,
// at most 64 in flight at once; the summary then reports sends/s
// alongside request throughput so batched and unbatched runs compare
// directly. A batch on its own never fills a shard's queue: refusals
// inside a batch appear only when concurrent traffic together exceeds
// the server's -queue on one shard, and they are counted in-band, not
// retried. The program list (entry selectors, measured sizes, expected
// checksums) is fetched from the server's /programs endpoint, so loadgen
// also works against a server that loaded custom sources. The control
// plane (/programs, /rotate, /stats, /save) always speaks HTTP to -addr.
//
// With -skew F, a fraction F of sends carry an affinity key drawn from a
// deliberately skewed keyspace — 80% of keyed sends share one hot key,
// the rest spread over seven warm keys — pinning a disproportionate load
// onto a few shards while the remaining keyless sends float. That is the
// traffic shape the server's join-shortest-queue routing exists for: the
// keyless sends dodge the hot shards.
//
// With -save, loadgen finishes a run by POSTing /save, asking the server
// to persist its machine image to the path it was started with (-image),
// so a load test doubles as the write path of a warm-restart drill.
//
// With -expect-rotation, loadgen POSTs /rotate mid-run — once traffic is
// demonstrably in flight — and fails the run unless the rotation
// succeeds, the server's rotation counter ticks, and not one send was
// lost: the zero-downtime live-rotation drill as a single command.
// -p99budget DUR independently fails the run if the client-observed p99
// exceeds the budget, which is how the rotation drill proves the swap
// didn't just avoid errors but also stayed out of the tail.
//
// After the run, loadgen asks the server's /stats for its per-stage span
// percentiles (queue wait, service, decode, encode — the flight
// recorder's view of the same traffic) and prints them next to the
// client-side numbers. With -out FILE the entire run — config, client
// percentiles, error counts, server identity and stage spans — is
// written as one JSON document, so runs diff across PRs the same way
// the BENCH_*.json artifacts do.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpwire"
	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/word"
)

// pickKey draws from the skewed keyspace: with probability skew the send
// is keyed, and a keyed send is 80% the hot key, 20% one of seven warm
// keys. Key 0 means keyless.
func pickKey(rng *rand.Rand, skew float64) uint64 {
	if skew <= 0 || rng.Float64() >= skew {
		return 0
	}
	if rng.Float64() < 0.8 {
		return 1
	}
	return 2 + rng.Uint64N(7)
}

func main() {
	addr := flag.String("addr", "http://localhost:8373", "obarchd base URL")
	clients := flag.Int("clients", 8, "concurrent clients")
	rounds := flag.Int("rounds", 2, "suite replays per client")
	name := flag.String("program", "", "restrict to one program by name")
	warm := flag.Bool("warm", false, "use warmup sizes instead of measured sizes (no checksum validation)")
	batch := flag.Int("batch", 1, "sends per POST /batch request (1: one POST /send per send)")
	transport := flag.String("transport", "http", `wire transport: "http" (POST /send, /batch) or "binary" (persistent obwire frames)`)
	binaryAddr := flag.String("binary-addr", "", "obwire HOST:PORT for -transport binary (the daemon's -binary-addr)")
	pipeline := flag.Int("pipeline", 1, "lanes per client, each with one send in flight, on either transport (1: retried round trips; >1: refusals counted, not retried)")
	save := flag.Bool("save", false, "POST /save after the run, persisting the server's machine image")
	skew := flag.Float64("skew", 0, "fraction of sends carrying a skewed affinity key (0: all keyless)")
	retries := flag.Int("retries", 3, "retry budget per send for 429/503/transport refusals (0: fail fast)")
	backoff := flag.Duration("backoff", 5*time.Millisecond, "first retry backoff; doubles per attempt with full jitter, capped at 1s")
	out := flag.String("out", "", "write the full run result (config, percentiles, error counts, server stage spans) as JSON to this file")
	expectRotation := flag.Bool("expect-rotation", false, "POST /rotate mid-run and fail unless it succeeds with zero lost sends")
	p99Budget := flag.Duration("p99budget", 0, "fail the run if the client-observed p99 exceeds this (0: no budget)")
	flag.Parse()

	var programs []httpwire.ProgramInfo
	if err := getJSON(*addr+"/programs", &programs); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	if *name != "" {
		kept := programs[:0]
		for _, p := range programs {
			if p.Name == *name {
				kept = append(kept, p)
			}
		}
		programs = kept
	}
	if len(programs) == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: no programs to run")
		os.Exit(1)
	}
	if *batch < 1 {
		*batch = 1
	}
	if *pipeline < 1 {
		*pipeline = 1
	}
	// The control plane (program list, rotation drills, /stats, /save)
	// always speaks HTTP to -addr; -transport only picks the wire the
	// workload itself rides.
	binary := *transport == "binary"
	switch {
	case *transport != "http" && !binary:
		fmt.Fprintf(os.Stderr, "loadgen: unknown -transport %q (want http or binary)\n", *transport)
		os.Exit(1)
	case binary && *binaryAddr == "":
		fmt.Fprintln(os.Stderr, "loadgen: -transport binary needs -binary-addr (the daemon's -binary-addr listener)")
		os.Exit(1)
	case binary && *batch > 1:
		fmt.Fprintln(os.Stderr, "loadgen: -batch applies to the http transport; use -pipeline with -transport binary")
		os.Exit(1)
	case *batch > 1 && *pipeline > 1:
		fmt.Fprintln(os.Stderr, "loadgen: -batch and -pipeline exclude each other; a batch already keeps many sends in flight")
		os.Exit(1)
	}

	var (
		wg       sync.WaitGroup
		sent     atomic.Int64 // individual sends
		posts    atomic.Int64 // attempts: HTTP requests or frames
		failed   atomic.Int64
		keyed    atomic.Int64
		refusals refusalCounters
	)
	hists := make([]stats.Histogram, *clients)
	maxLats := make([]time.Duration, *clients)
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &client{
				id: c, pipeline: *pipeline, retries: *retries, rounds: *rounds,
				warm: *warm, skew: *skew, programs: programs,
				rng: rand.New(rand.NewPCG(uint64(c), 0x9e3779b97f4a7c15)),
				rt:  retryer{base: *backoff, c: &refusals, posts: &posts},
				// Per-client latency histograms, merged after the run:
				// the recording path is a plain array increment.
				record: func(lat time.Duration) {
					hists[c].Observe(lat)
					if lat > maxLats[c] {
						maxLats[c] = lat
					}
				},
				sent: &sent, failed: &failed, keyed: &keyed,
			}
			switch {
			case *batch > 1:
				cl.runBatch(*addr, *batch)
			case binary:
				cl.runBinary(*binaryAddr)
			default:
				cl.run(httpSender(*addr))
			}
		}(c)
	}
	// The rotation drill runs concurrently with the clients: wait until
	// traffic is demonstrably in flight, then swap the serving image out
	// from under it. The drill starts the node's only rotation, so the
	// one POST's answer is the verdict.
	var rot *rotationReport
	rotDone := make(chan struct{})
	if *expectRotation {
		go func() {
			defer close(rotDone)
			deadline := time.Now().Add(5 * time.Second)
			for sent.Load() < int64(*clients) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			rot = postRotate(*addr)
		}()
	} else {
		close(rotDone)
	}
	wg.Wait()
	<-rotDone
	wall := time.Since(start)

	n := sent.Load()
	var hist stats.Histogram
	var maxLat time.Duration
	for c := range hists {
		hist.Merge(&hists[c])
		if maxLats[c] > maxLat {
			maxLat = maxLats[c]
		}
	}
	mode := fmt.Sprintf("unbatched (POST /send, pipeline %d)", *pipeline)
	reqLabel := "http requests"
	if *batch > 1 {
		mode = fmt.Sprintf("batched ×%d (POST /batch)", *batch)
	}
	if binary {
		mode = fmt.Sprintf("binary (obwire %s, pipeline %d)", *binaryAddr, *pipeline)
		reqLabel = "frames"
	}
	fmt.Printf("mode: %s\n", mode)
	if *skew > 0 {
		fmt.Printf("keyspace: %.0f%% keyed (hot-key skewed), %d of %d sends carried keys\n",
			*skew*100, keyed.Load(), n)
	}
	fmt.Printf("sends: %d  %s: %d  failures: %d  wall: %v\n",
		n, reqLabel, posts.Load(), failed.Load(), wall.Round(time.Millisecond))
	if v := refusals.retries.Load() + refusals.rejected.Load() + refusals.shed.Load() + refusals.transport.Load(); v > 0 {
		fmt.Printf("pushback: %d rejected (429)  %d shed (503)  %d transport  %d retries taken\n",
			refusals.rejected.Load(), refusals.shed.Load(), refusals.transport.Load(), refusals.retries.Load())
	}
	fmt.Printf("throughput: %.1f sends/s (%.1f req/s) across %d clients\n",
		float64(n)/wall.Seconds(), float64(posts.Load())/wall.Seconds(), *clients)
	// Quantile returns its bucket's upper bound, which can overshoot the
	// true maximum; the exact max is tracked, so clamp to it.
	pct := func(q float64) time.Duration {
		if v := hist.Quantile(q); v < maxLat {
			return v
		}
		return maxLat
	}
	fmt.Printf("latency per request p50: %v  p90: %v  p99: %v  max: %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), maxLat.Round(time.Microsecond))

	failures := failed.Load() > 0
	if *p99Budget > 0 {
		if p99 := pct(0.99); p99 > *p99Budget {
			fmt.Fprintf(os.Stderr, "loadgen: p99 %v exceeds budget %v\n", p99.Round(time.Microsecond), *p99Budget)
			failures = true
		} else {
			fmt.Printf("p99 budget: %v within %v\n", p99.Round(time.Microsecond), *p99Budget)
		}
	}

	// The server's view of the same traffic: per-stage span percentiles
	// from the flight recorder, plus the node's identity. A pre-PR-6
	// server answers /stats without these fields; report what's there.
	srv := new(serverView)
	if err := getJSON(*addr+"/stats", srv); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: server stats:", err)
		srv = nil
	} else {
		printStage := func(name string, sp *stagePercentiles) {
			if sp != nil && sp.Count > 0 {
				fmt.Printf("server %-8s n=%-7d p50: %dµs  p90: %dµs  p99: %dµs  p999: %dµs\n",
					name, sp.Count, sp.P50, sp.P90, sp.P99, sp.P999)
			}
		}
		printStage("service", srv.ServiceUS)
		printStage("queue", srv.QueueUS)
		printStage("decode", srv.DecodeUS)
		printStage("encode", srv.EncodeUS)
		printStage("http", srv.HTTPLatencyUS)
	}

	// The rotation drill's verdict: the POST must have succeeded, the
	// server's counter must have ticked, and — checked with the shared
	// failure flag below — not one send may have been lost across the swap.
	if *expectRotation {
		switch {
		case rot == nil || rot.Error != "":
			msg := "rotation goroutine never ran"
			if rot != nil {
				msg = rot.Error
			}
			fmt.Fprintf(os.Stderr, "loadgen: expect-rotation: %s\n", msg)
			failures = true
		case srv == nil || srv.Rotations < 1:
			fmt.Fprintln(os.Stderr, "loadgen: expect-rotation: server reports no completed rotation")
			failures = true
		default:
			fmt.Printf("rotation: swapped onto %s in %.1fms mid-traffic (server rotations: %d)\n",
				rot.Path, rot.ElapsedMS, srv.Rotations)
		}
	}

	if *out != "" {
		artifact := runArtifact{
			Config: runConfig{
				Addr: *addr, Clients: *clients, Rounds: *rounds, Program: *name,
				Warm: *warm, Batch: *batch, Skew: *skew,
				Transport: *transport, BinaryAddr: *binaryAddr, Pipeline: *pipeline,
				Retries: *retries, BackoffMS: float64(backoff.Microseconds()) / 1e3,
				ExpectRotation: *expectRotation,
				P99BudgetMS:    float64(p99Budget.Microseconds()) / 1e3,
			},
			StartedAt:   start.UTC(),
			WallMS:      float64(wall.Microseconds()) / 1e3,
			Sends:       n,
			Posts:       posts.Load(),
			Failures:    failed.Load(),
			Keyed:       keyed.Load(),
			Retries:     refusals.retries.Load(),
			Rejected:    refusals.rejected.Load(),
			Shed:        refusals.shed.Load(),
			Transport:   refusals.transport.Load(),
			SendsPerSec: float64(n) / wall.Seconds(),
			ReqPerSec:   float64(posts.Load()) / wall.Seconds(),
			Client: clientPercentiles{
				Count: hist.Count(),
				P50:   pct(0.50).Microseconds(),
				P90:   pct(0.90).Microseconds(),
				P99:   pct(0.99).Microseconds(),
				P999:  pct(0.999).Microseconds(),
				Max:   maxLat.Microseconds(),
			},
			Server:   srv,
			Rotation: rot,
		}
		data, err := json.MarshalIndent(artifact, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: encode -out:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: write -out:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote run artifact: %s\n", *out)
	}

	if *save {
		if err := postSave(*addr); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: save:", err)
			os.Exit(1)
		}
	}
	if failures {
		os.Exit(1)
	}
}

// runConfig is the knobs a run was driven with, preserved in -out
// artifacts so two runs can only be compared like for like.
type runConfig struct {
	Addr      string  `json:"addr"`
	Clients   int     `json:"clients"`
	Rounds    int     `json:"rounds"`
	Program   string  `json:"program,omitempty"`
	Warm      bool    `json:"warm,omitempty"`
	Batch     int     `json:"batch"`
	Skew      float64 `json:"skew,omitempty"`
	Retries   int     `json:"retries"`
	BackoffMS float64 `json:"backoff_ms"`

	Transport  string `json:"transport"`
	BinaryAddr string `json:"binary_addr,omitempty"`
	Pipeline   int    `json:"pipeline,omitempty"`

	ExpectRotation bool    `json:"expect_rotation,omitempty"`
	P99BudgetMS    float64 `json:"p99_budget_ms,omitempty"`
}

// rotationReport is the -expect-rotation drill's outcome as kept in the
// -out artifact: what the POST /rotate answered, or why it failed.
type rotationReport struct {
	Path      string  `json:"path,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	Rotations uint64  `json:"rotations,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// clientPercentiles is the client-observed whole-round-trip latency
// distribution in microseconds.
type clientPercentiles struct {
	Count uint64 `json:"count"`
	P50   int64  `json:"p50_us"`
	P90   int64  `json:"p90_us"`
	P99   int64  `json:"p99_us"`
	P999  int64  `json:"p999_us"`
	Max   int64  `json:"max_us"`
}

// stagePercentiles mirrors one of /stats' per-stage percentile objects
// (values in microseconds).
type stagePercentiles struct {
	Count uint64 `json:"count"`
	P50   int64  `json:"p50"`
	P90   int64  `json:"p90"`
	P99   int64  `json:"p99"`
	P999  int64  `json:"p999"`
}

// serverView is what loadgen keeps of the server's /stats: identity plus
// the per-stage spans. Pointers stay nil against servers that predate a
// field, and omit cleanly from the artifact.
type serverView struct {
	StartTime     string            `json:"start_time,omitempty"`
	UptimeS       float64           `json:"uptime_s,omitempty"`
	Image         json.RawMessage   `json:"image,omitempty"`
	Workers       int               `json:"workers,omitempty"`
	Requests      uint64            `json:"requests,omitempty"`
	Rotations     uint64            `json:"rotations,omitempty"`
	Checkpoint    json.RawMessage   `json:"checkpoint,omitempty"`
	ServiceUS     *stagePercentiles `json:"service_us,omitempty"`
	QueueUS       *stagePercentiles `json:"queue_us,omitempty"`
	DecodeUS      *stagePercentiles `json:"decode_us,omitempty"`
	EncodeUS      *stagePercentiles `json:"encode_us,omitempty"`
	HTTPLatencyUS *stagePercentiles `json:"http_latency_us,omitempty"`
}

// runArtifact is the -out document: one self-contained record of a run.
type runArtifact struct {
	Config      runConfig         `json:"config"`
	StartedAt   time.Time         `json:"started_at"`
	WallMS      float64           `json:"wall_ms"`
	Sends       int64             `json:"sends"`
	Posts       int64             `json:"http_requests"`
	Failures    int64             `json:"failures"`
	Keyed       int64             `json:"keyed_sends,omitempty"`
	Retries     int64             `json:"retries,omitempty"`
	Rejected    int64             `json:"rejected,omitempty"`
	Shed        int64             `json:"shed,omitempty"`
	Transport   int64             `json:"transport_errors,omitempty"`
	SendsPerSec float64           `json:"sends_per_sec"`
	ReqPerSec   float64           `json:"req_per_sec"`
	Client      clientPercentiles `json:"client_latency"`
	Server      *serverView       `json:"server,omitempty"`
	Rotation    *rotationReport   `json:"rotation,omitempty"`
}

// postRotate runs the rotation drill's POST /rotate (empty body: the
// server rotates onto its own -image path). Only a second rotation makes
// the node answer 409, and the drill never starts one, so every failure
// is final.
func postRotate(addr string) *rotationReport {
	resp, err := http.Post(addr+"/rotate", "application/json", nil)
	if err != nil {
		return &rotationReport{Error: err.Error()}
	}
	var out struct {
		Path      string `json:"path"`
		Rotations uint64 `json:"rotations"`
		ElapsedUS int64  `json:"elapsed_us"`
		Error     string `json:"error"`
	}
	decodeErr := json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	switch {
	case resp.StatusCode != http.StatusOK:
		msg := out.Error
		if msg == "" {
			msg = fmt.Sprintf("status %d", resp.StatusCode)
		}
		return &rotationReport{Error: fmt.Sprintf("POST /rotate: %s", msg)}
	case decodeErr != nil:
		return &rotationReport{Error: fmt.Sprintf("decode /rotate: %v", decodeErr)}
	}
	return &rotationReport{Path: out.Path, ElapsedMS: float64(out.ElapsedUS) / 1e3, Rotations: out.Rotations}
}

// getJSON decodes the answer to GET url into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decode %s: %w", url, err)
	}
	return nil
}

// postSave asks the server to persist its machine image and reports what
// it wrote.
func postSave(addr string) error {
	resp, err := http.Post(addr+"/save", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out struct {
		Path  string `json:"path"`
		Bytes int64  `json:"bytes"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("decode /save: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, out.Error)
	}
	fmt.Printf("saved image: %d bytes to %s\n", out.Bytes, out.Path)
	return nil
}

// httpSender is the client's sender over HTTP: it POSTs /send to addr
// and maps the answer's status back onto the frame status it stands for,
// the inverse of httpwire.Status, so both wires share one retry loop and
// one refusal taxonomy. 200 is StatusOK, 429 StatusOverloaded, 503
// StatusShed, and anything else StatusMachineError. A 429 or 503 stays a
// refusal whatever its body; a 200 whose result is missing, non-numeric
// or undecodable is a machine error. The server's Retry-After comes back
// as the backoff floor.
func httpSender(addr string) sender {
	return func(req serve.Request) (obwire.Response, time.Duration, error) {
		body, _ := json.Marshal(wireRequest(req))
		resp, err := http.Post(addr+"/send", "application/json", bytes.NewReader(body))
		if err != nil {
			return obwire.Response{}, 0, err
		}
		defer resp.Body.Close()
		var out httpwire.SendResponse
		decodeErr := json.NewDecoder(resp.Body).Decode(&out)
		r := obwire.Response{Status: obwire.StatusMachineError, Err: out.Error}
		switch resp.StatusCode {
		case http.StatusOK:
			f, ok := out.Result.(float64)
			switch {
			case decodeErr != nil:
				r.Err = fmt.Sprintf("decode /send: %v", decodeErr)
			case !ok:
				r.Err = fmt.Sprintf("non-numeric result %v", out.Result)
			default:
				r = obwire.Response{Status: obwire.StatusOK, Value: word.FromInt(int32(f))}
			}
		case http.StatusTooManyRequests:
			r.Status = obwire.StatusOverloaded
		case http.StatusServiceUnavailable:
			r.Status = obwire.StatusShed
		}
		if !r.OK() && r.Err == "" {
			r.Err = fmt.Sprintf("POST /send: status %d", resp.StatusCode)
		}
		return r, retryAfter(resp.Header), nil
	}
}

// wireRequest is req in /send's JSON form; loadgen's receivers are
// SmallInts and its sends carry no arguments.
func wireRequest(req serve.Request) httpwire.SendRequest {
	recv, _ := req.Receiver.IntOK()
	return httpwire.SendRequest{Receiver: json.Number(strconv.Itoa(int(recv))), Selector: req.Selector, Key: req.Key}
}

func sendBatch(addr string, reqs []httpwire.SendRequest) ([]httpwire.SendResponse, error) {
	body, _ := json.Marshal(reqs)
	resp, err := http.Post(addr+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /batch: status %d", resp.StatusCode)
	}
	var out []httpwire.SendResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decode /batch: %w", err)
	}
	if len(out) != len(reqs) {
		return nil, fmt.Errorf("batch returned %d results for %d sends", len(out), len(reqs))
	}
	return out, nil
}
