// Command obarchd serves one node of a Caltech Object Machine image over
// HTTP/JSON and, optionally, the obwire binary transport.
//
//	obarchd -addr :8373 -workers 8            # serve the built-in workload suite
//	obarchd -suite=false prog.st other.st     # serve custom source files
//	obarchd -image com.img                    # warm-boot from a persistent image
//
// The node is internal/node, whose package doc describes its recovery
// ladder, endpoints, durability, live rotation, overload handling and
// binary transport. obarchd maps its flags onto node.Config, boots,
// serves, and on SIGINT/SIGTERM drains the node within -drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/node"
	"repro/internal/serve"
)

func main() {
	var cfg node.Config
	flag.StringVar(&cfg.Addr, "addr", ":8373", "listen address")
	flag.StringVar(&cfg.BinaryAddr, "binary-addr", "", "obwire binary transport listen address (empty: disabled)")
	flag.IntVar(&cfg.Pool.Workers, "workers", runtime.GOMAXPROCS(0), "worker machines in the pool")
	flag.IntVar(&cfg.Pool.QueueDepth, "queue", node.DefaultQueueDepth, "per-worker queue depth")
	flag.Uint64Var(&cfg.Pool.MaxSteps, "maxsteps", 0, "default per-request step budget (0: machine default)")
	flag.DurationVar(&cfg.Pool.Timeout, "timeout", node.DefaultTimeout, "default per-request wall-clock timeout")
	suite := flag.Bool("suite", true, "load the built-in workload suite")
	flag.IntVar(&cfg.Pool.GCEvery, "gcevery", 0, "collect per worker every N requests (0: default, <0: never)")
	flag.StringVar(&cfg.ImagePath, "image", "", "machine image path: warm-boot from it when present (refuses extra source files; /programs still reflects -suite), persist to it on POST /save")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown budget for in-flight HTTP requests")
	flag.DurationVar(&cfg.Pool.SlowThreshold, "slowlog", node.DefaultSlowlog, "capture requests slower than this for GET /debug/slow (0: disabled)")
	flag.BoolVar(&cfg.Debug, "debug", false, "mount net/http/pprof under /debug/pprof")
	flag.IntVar(&cfg.Pool.MaxInFlight, "maxinflight", 0, "pool-wide cap on admitted-but-unfinished requests (0: unlimited, <0: refuse everything)")
	chaos := flag.String("chaos", "", `deterministic fault plan, e.g. "seed=42,panic=100,stall=50:2ms,clog=64:1ms" (empty: none)`)
	flag.DurationVar(&cfg.Checkpoint, "checkpoint", 0, "capture a live checkpoint every DUR (0: disabled; requires -checkpoint-dir)")
	flag.StringVar(&cfg.CheckpointDir, "checkpoint-dir", "", "checkpoint directory: recover the newest valid generation at boot, write new generations per -checkpoint")
	flag.IntVar(&cfg.CheckpointKeep, "checkpoint-keep", 5, "checkpoint generations to retain")
	flag.DurationVar(&cfg.Watch, "watch", 0, "poll the -image path every DUR and rotate onto it when it changes (0: disabled)")
	flag.Parse()

	var err error
	if cfg.Pool.Faults, err = parseChaos(*chaos); err != nil {
		log.Fatalf("obarchd: -chaos: %v", err)
	}
	if cfg.Checkpoint > 0 && cfg.CheckpointDir == "" {
		log.Fatalf("obarchd: -checkpoint requires -checkpoint-dir")
	}
	if cfg.Watch > 0 && cfg.ImagePath == "" {
		log.Fatalf("obarchd: -watch requires -image")
	}
	snap, programs, boot, err := node.Boot(cfg.ImagePath, cfg.CheckpointDir, *suite, flag.Args())
	if err != nil {
		log.Fatalf("obarchd: %v", err)
	}
	if cfg.Pool.Faults != nil {
		log.Printf("obarchd: chaos armed: %s", *chaos)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	n, err := node.New(snap, programs, boot, cfg)
	if err != nil {
		log.Fatalf("obarchd: %v", err)
	}
	if cfg.Checkpoint > 0 {
		log.Printf("obarchd: checkpointing to %s every %v (keep %d)", cfg.CheckpointDir, cfg.Checkpoint, cfg.CheckpointKeep)
	}
	if cfg.Watch > 0 {
		log.Printf("obarchd: watching %s every %v for live rotation", cfg.ImagePath, cfg.Watch)
	}
	if cfg.BinaryAddr != "" {
		log.Printf("obarchd: serving obwire binary transport on %s", n.BinaryAddr())
	}
	log.Printf("obarchd: serving %d programs on %s with %d workers", len(programs), n.Addr(), n.Pool().Workers())
	log.Printf("obarchd: %v: draining", <-sig)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	n.Shutdown(ctx)
	cancel()
	met := n.Pool().Metrics()
	log.Printf("obarchd: drained; served %d requests (%d errors)", met.Requests, met.Errors)
}

// parseChaos parses the -chaos fault plan: comma-separated key=value
// pairs. "seed=S" seeds the per-shard fault phases (0, the default, is
// fully predictable: every cadence fires on exact multiples), "panic=N"
// panics every Nth send on each shard, "stall=N:DUR" sleeps DUR before
// every Nth send, "clog=N:DUR" sleeps DUR in the dispatch loop every Nth
// job. An empty spec means no plan.
func parseChaos(spec string) (*serve.Faults, error) {
	if spec == "" {
		return nil, nil
	}
	f := &serve.Faults{}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("%q: want key=value", kv)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("seed %q: want an unsigned integer", val)
			}
			f.Seed = n
		case "panic":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("panic %q: want a non-negative integer", val)
			}
			f.PanicEvery = n
		case "stall":
			n, d, err := parseEveryDur(val)
			if err != nil {
				return nil, fmt.Errorf("stall %v", err)
			}
			f.StallEvery, f.Stall = n, d
		case "clog":
			n, d, err := parseEveryDur(val)
			if err != nil {
				return nil, fmt.Errorf("clog %v", err)
			}
			f.ClogEvery, f.Clog = n, d
		default:
			return nil, fmt.Errorf("unknown key %q (want seed, panic, stall, or clog)", key)
		}
	}
	return f, nil
}

// parseEveryDur parses a cadence-with-duration chaos value, "N:DUR"
// (e.g. "50:2ms").
func parseEveryDur(val string) (int, time.Duration, error) {
	ns, ds, ok := strings.Cut(val, ":")
	if !ok {
		return 0, 0, fmt.Errorf("%q: want N:duration", val)
	}
	n, err := strconv.Atoi(ns)
	if err != nil || n < 0 {
		return 0, 0, fmt.Errorf("%q: cadence: want a non-negative integer", val)
	}
	d, err := time.ParseDuration(ds)
	if err != nil || d < 0 {
		return 0, 0, fmt.Errorf("%q: bad duration %q", val, ds)
	}
	return n, d, nil
}
