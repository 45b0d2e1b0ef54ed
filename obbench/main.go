// Command obbench is the repository's benchmark. It stands the serving
// stack up in one process from the packages obarchd and obrouter are
// built from: a cold-booted image, pools on obarchd's defaults, obwire
// listeners on loopback, and a cluster router over two nodes. It drives
// one seeded workload through that stack, checks every answer, and
// prints a report whose last line is one JSON object: the end-to-end
// metrics, or with -trace 1 the per-layer metrics of a traced run.
//
//	go run . -workload tiny-routed -seed 1 -seconds 20 -trace 0
//
// The layers are measured from outside: the benchmark times its own calls
// into each layer's public functions and reads the sinks the layers
// publish. README.md states each workload's reason and which layer
// metric should move which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// procs is the GOMAXPROCS the stack runs under. One P, not one per CPU:
// on the 2-vCPU virtual machines this benchmark was built on, runs with
// two Ps were bimodal (tiny-routed measured 41k and 80k sends/s in
// identical runs), because every cross-vCPU wake-up costs whatever the
// hypervisor charges at that moment. With one P the same runs agree to
// about 10%.
const procs = 1

func main() {
	name := flag.String("workload", "", "workload to run: suite-direct, tiny-routed or bulk-ckpt")
	seed := flag.Uint64("seed", 1, "seed of the request stream")
	seconds := flag.Float64("seconds", 10, "seconds of measured traffic")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "obbench"), "directory for checkpoint generations and the span file")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: obbench -workload suite-direct|tiny-routed|bulk-ckpt -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	cfg := runConfig{
		w:       w,
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workdir: *workdir,
		out:     os.Stdout,
		setups:  21,
		ladderN: w.ladderN,
	}
	printMeta(cfg, *seconds)
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// meta is a run's provenance, printed ahead of its metrics.
type meta struct {
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	CPU          string  `json:"cpu"`
	Commit       string  `json:"commit"`
	Nodes        int     `json:"nodes"`
	Workers      int     `json:"workers_per_node"`
	Path         string  `json:"path"`
	Callers      int     `json:"closed_loop_callers"`
	Rate         float64 `json:"open_loop_rate"`
	Senders      int     `json:"open_loop_senders"`
	StreamDigest string  `json:"stream_digest"`
}

func printMeta(cfg runConfig, seconds float64) {
	w := cfg.w
	path := "MuxClient.Do to node 0"
	if w.routed {
		path = "Router.Send over both nodes"
	}
	m := meta{
		Workload: w.name, Seed: cfg.seed, Seconds: seconds, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: cpuModel(), Commit: commit(),
		Nodes: nodeCount, Workers: w.workers, Path: path,
		Callers: w.callers, Rate: w.rate, Senders: openSenders,
		StreamDigest: streamDigest(w, cfg.seed),
	}
	b, _ := json.Marshal(m) // meta has only plain fields; Marshal cannot fail
	fmt.Fprintf(cfg.out, "meta %s\n", b)
}

// cpuModel reads the first model name /proc/cpuinfo reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown (" + runtime.GOARCH + ")"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown (" + runtime.GOARCH + ")"
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
