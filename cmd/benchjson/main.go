// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark report, so CI runs leave machine-readable performance data
// points behind instead of terminal output. The report goes to -out, or
// to stdout when -out is empty:
//
//	go test -run '^$' -bench . -benchmem . | benchjson -out new.json
//
// Each benchmark line becomes one record carrying the benchmark name (the
// -8 GOMAXPROCS suffix stripped), iteration count, ns/op, allocs/op and
// B/op when -benchmem is on, and any custom metrics (instrs/send, ns/instr,
// …) under "metrics". The goos/goarch/cpu header lines are captured into
// "env" so reports from different hosts are distinguishable.
//
// With -baseline it additionally diffs headline metrics against an earlier
// report and exits non-zero on regression, which is how CI gates a PR on
// its predecessor's numbers:
//
//	... | benchjson -out new.json -baseline old.json \
//	        -compare InterpreterInnerLoop:ns/instr \
//	        -compare PoolThroughput/workers=1:ns_per_op
//
// Each -compare takes name:metric, where metric is ns_per_op or a custom
// metric's unit; the check fails when the new value exceeds the baseline by
// more than -tolerance (default 10%). Lower is assumed better — these are
// all time-per-work metrics.
//
// -assertalloc name:max gates allocation counts against an absolute bar
// rather than a baseline: the named benchmark must have been run with
// -benchmem and must report at most max allocs/op. This is how CI holds
// the serving pool's zero-allocation request lifecycle at exactly 0:
//
//	... | benchjson -out new.json \
//	        -assertalloc 'PoolDoParallel/lifecycle=pooled:0' \
//	        -assertalloc 'PoolGo/lifecycle=pooled:0'
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type record struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp *float64           `json:"bytes_per_op,omitempty"`
	AllocsOp   *float64           `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Env        map[string]string `json:"env"`
	Benchmarks []record          `json:"benchmarks"`
}

// find returns the record with the given name.
func (r *report) find(name string) (record, bool) {
	for _, b := range r.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return record{}, false
}

// metric extracts a metric from a record: "ns_per_op" or a custom unit.
func (b record) metric(name string) (float64, bool) {
	if name == "ns_per_op" {
		return b.NsPerOp, true
	}
	v, ok := b.Metrics[name]
	return v, ok
}

// compareList collects repeated -compare name:metric flags.
type compareList []string

func (c *compareList) String() string     { return strings.Join(*c, ",") }
func (c *compareList) Set(v string) error { *c = append(*c, v); return nil }

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "baseline report to diff headline metrics against")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional regression vs the baseline")
	var compares compareList
	flag.Var(&compares, "compare", "name:metric to gate against the baseline (repeatable)")
	var allocAsserts compareList
	flag.Var(&allocAsserts, "assertalloc", "name:max — fail when the benchmark reports more than max allocs/op, or no alloc count at all (repeatable)")
	flag.Parse()

	rep := report{Env: map[string]string{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+":"); ok {
				rep.Env[key] = strings.TrimSpace(v)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the GOMAXPROCS suffix
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := record{Name: name, Iterations: iters}
		// The remainder is value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				b := v
				r.BytesPerOp = &b
			case "allocs/op":
				a := v
				r.AllocsOp = &a
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	dest := *out
	if dest == "" {
		_, err = os.Stdout.Write(enc)
		dest = "stdout"
	} else {
		err = os.WriteFile(dest, enc, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), dest)

	allocFailed := false
	for _, spec := range allocAsserts {
		name, maxStr, ok := strings.Cut(spec, ":")
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: bad -assertalloc %q (want name:max)\n", spec)
			os.Exit(1)
		}
		maxAllocs, err := strconv.ParseFloat(maxStr, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad -assertalloc bound %q: %v\n", maxStr, err)
			os.Exit(1)
		}
		rec, ok := rep.find(name)
		switch {
		case !ok:
			fmt.Fprintf(os.Stderr, "benchjson: %s: missing from this run (alloc gate)\n", name)
			allocFailed = true
		case rec.AllocsOp == nil:
			// No alloc column means the run forgot -benchmem; a silent
			// pass here would disarm the gate.
			fmt.Fprintf(os.Stderr, "benchjson: %s: no allocs/op recorded (run with -benchmem)\n", name)
			allocFailed = true
		case *rec.AllocsOp > maxAllocs:
			fmt.Fprintf(os.Stderr, "benchjson: %-40s allocs/op %12.2f > %12.2f  ALLOC REGRESSION\n",
				name, *rec.AllocsOp, maxAllocs)
			allocFailed = true
		default:
			fmt.Fprintf(os.Stderr, "benchjson: %-40s allocs/op %12.2f <= %12.2f  ok\n",
				name, *rec.AllocsOp, maxAllocs)
		}
	}
	if *baseline == "" {
		if allocFailed {
			os.Exit(1)
		}
		return
	}
	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: baseline:", err)
		os.Exit(1)
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: baseline:", err)
		os.Exit(1)
	}
	failed := false
	for _, spec := range compares {
		name, metric, ok := strings.Cut(spec, ":")
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: bad -compare %q (want name:metric)\n", spec)
			os.Exit(1)
		}
		oldRec, ok := base.find(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: %s: not in baseline %s, skipping\n", name, *baseline)
			continue
		}
		newRec, ok := rep.find(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: %s: missing from this run\n", name)
			failed = true
			continue
		}
		oldV, okOld := oldRec.metric(metric)
		if !okOld || oldV <= 0 {
			// A baseline predating the metric cannot gate it.
			fmt.Fprintf(os.Stderr, "benchjson: %s: metric %s not in baseline, skipping\n", name, metric)
			continue
		}
		newV, okNew := newRec.metric(metric)
		if !okNew {
			// The gated metric vanished from this run — that is a broken
			// gate, not a pass.
			fmt.Fprintf(os.Stderr, "benchjson: %s: metric %s missing from this run\n", name, metric)
			failed = true
			continue
		}
		change := newV/oldV - 1
		status := "ok"
		if change > *tolerance {
			status = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(os.Stderr, "benchjson: %-40s %-10s %12.2f -> %12.2f  (%+.1f%%)  %s\n",
			name, metric, oldV, newV, change*100, status)
	}
	if failed || allocFailed {
		os.Exit(1)
	}
}
