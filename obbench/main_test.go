package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test holds
// the program to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedUnit `json:"end_to_end"`
	PerLayer []namedUnit `json:"per_layer"`
}

type namedUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that every answer was right and that the result line carries
// exactly the metrics BENCHMARK.json names, each with its unit.
func TestShortRuns(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, bw := range bf.Workloads {
		if _, ok := workloadByName(bw.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which obbench does not define", bw.Name)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			res, err := run(runConfig{
				w: w, seed: 3, measure: 400 * time.Millisecond, trace: traced,
				workdir: t.TempDir(), out: io.Discard, setups: 2, ladderN: max(w.ladderN/50, 4),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %q", w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestStreamDigest pins that the offered stream is a function of the seed.
func TestStreamDigest(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamDigest(w, 11), streamDigest(w, 11), streamDigest(w, 12)
		if a != b {
			t.Errorf("%s: seed 11 gave digests %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 11 and 12 gave the same digest %s", w.name, a)
		}
	}
}

// TestCoreRungRepeats pins that the ladder's core rung models the same
// sends identically every time: its counts may gate a change only
// because they repeat exactly.
func TestCoreRungRepeats(t *testing.T) {
	st, err := buildStack(1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	for _, w := range workloads {
		sends := ladderSends(w, 5, 24)
		var t1, t2 tally
		a, b := runCoreRung(st.snap, sends, &t1), runCoreRung(st.snap, sends, &t2)
		if a.model != b.model || a.itlbHits != b.itlbHits || a.itlbLookups != b.itlbLookups {
			t.Errorf("%s: core rung modelled %+v then %+v", w.name, a.model, b.model)
		}
		if t1.wrong != 0 || t2.wrong != 0 {
			t.Errorf("%s: wrong answers on the core rung: %s", w.name, t1.firstWrong+t2.firstWrong)
		}
	}
}
