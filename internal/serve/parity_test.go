package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/word"
)

// Submission paths of one sequence step.
const (
	viaDo = iota
	viaGo
	viaPipelined
)

// seqStep is one step of the deterministic sequence: n copies of req,
// submitted through Do, Go (each waited before the next is submitted) or
// pipelined Go (all submitted, then all waited).
type seqStep struct {
	req serve.Request
	n   int
	via int
}

// sequenceSteps returns the suite snapshot and the fixed request
// sequence: two rounds over every suite program at measured size,
// program i submitted through Do, Go or pipelined Go (of two copies) by
// i mod 3, and keyed i+1 when keyed.
func sequenceSteps(t testing.TB, keyed bool) (*core.Snapshot, []seqStep) {
	t.Helper()
	snap, progs := suiteSnapshot(t)
	var steps []seqStep
	for round := 0; round < 2; round++ {
		for i, p := range progs {
			st := seqStep{req: serve.Request{Receiver: word.FromInt(p.Size), Selector: p.Entry}, n: 1, via: i % 3}
			if keyed {
				st.req.Key = uint64(i + 1)
			}
			if st.via == viaPipelined {
				st.n = 2
			}
			steps = append(steps, st)
		}
	}
	return snap, steps
}

// withVia returns a copy of steps with every submission moved to one path.
func withVia(steps []seqStep, via int) []seqStep {
	out := append([]seqStep(nil), steps...)
	for i := range out {
		out[i].via = via
	}
	return out
}

// submitStep runs one step on pool and returns its answers in order. It
// reports failures with t.Errorf, so submitters may run concurrently.
func submitStep(t testing.TB, pool *serve.Pool, st seqStep) []int32 {
	var res []serve.Result
	switch st.via {
	case viaDo:
		for k := 0; k < st.n; k++ {
			res = append(res, pool.Do(st.req))
		}
	case viaGo:
		for k := 0; k < st.n; k++ {
			res = append(res, pool.Go(st.req).Wait())
		}
	default:
		futs := make([]*serve.Future, st.n)
		for k := range futs {
			futs[k] = pool.Go(st.req)
		}
		for _, f := range futs {
			res = append(res, f.Wait())
		}
	}
	vals := make([]int32, 0, len(res))
	for _, r := range res {
		got, err := r.Int()
		if err != nil {
			t.Errorf("sequence request: %v", err)
		}
		vals = append(vals, got)
	}
	return vals
}

// runSteps submits steps in order from one goroutine through a fresh
// pool built from snap with cfg, calling after (when non-nil) once each
// step is answered, and returns the summed machine-level accounting
// after Close plus every answer. With one shard, or with every request
// keyed, shard assignment (and with it every modelled cache state)
// depends only on the keys, never on scheduling.
func runSteps(t *testing.T, snap *core.Snapshot, cfg serve.Config, steps []seqStep, after func(*serve.Pool)) (core.Stats, []int32) {
	t.Helper()
	pool := serve.NewPool(snap, cfg)
	var vals []int32
	for _, st := range steps {
		vals = append(vals, submitStep(t, pool, st)...)
		if after != nil {
			after(pool)
		}
	}
	pool.Close()
	if t.Failed() {
		t.FailNow()
	}
	return pool.MachineStats(), vals
}

// runSequence drives the deterministic sequence — mixing Do, Go and
// pipelined Go — through a fresh pool built with cfg and returns the summed
// machine-level accounting after Close plus every answer.
func runSequence(t *testing.T, cfg serve.Config, keyed bool) (core.Stats, []int32) {
	t.Helper()
	snap, steps := sequenceSteps(t, keyed)
	return runSteps(t, snap, cfg, steps, nil)
}

// assertParity compares two runs bit for bit: every modelled counter in
// core.Stats and every answer.
func assertParity(t *testing.T, label string, sa, sb core.Stats, va, vb []int32) {
	t.Helper()
	if sa != sb {
		t.Fatalf("%s: machine stats diverge:\n a: %+v\n b: %+v", label, sa, sb)
	}
	if len(va) != len(vb) {
		t.Fatalf("%s: answer counts diverge: %d vs %d", label, len(va), len(vb))
	}
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("%s: answer %d diverges: %d vs %d", label, i, va[i], vb[i])
		}
	}
}

// TestLifecycleParity proves the request lifecycle is host-level
// mechanism only: the sequence submitted wholly through Do (the inline
// lane or a queued job), wholly through Go (pooled result cells, each
// released by Wait and reused by the next Go) or wholly through
// pipelined Go (several cells outstanding at once) models the same
// machines as the mixed sequence — bit-identical core.Stats on every
// counter, identical answers.
func TestLifecycleParity(t *testing.T) {
	snap, steps := sequenceSteps(t, true)
	cfg := serve.Config{Workers: 2}
	sa, va := runSteps(t, snap, cfg, steps, nil)
	for _, v := range []struct {
		name string
		via  int
	}{{"Do", viaDo}, {"Go", viaGo}, {"pipelined Go", viaPipelined}} {
		sb, vb := runSteps(t, snap, cfg, withVia(steps, v.via), nil)
		assertParity(t, "mixed vs "+v.name+" only", sa, sb, va, vb)
	}
}

// TestRoutingParityKeyed proves affinity keys are placement only: on
// four workers, the keyed sequence submitted one step at a time models
// the same machines as the same requests pipelined — every one handed to
// Go before any is waited for, so later requests meet deep queues, which
// a keyless JSQ pick reacts to and a keyed request must not. Shifting
// every key by the worker count changes nothing either.
func TestRoutingParityKeyed(t *testing.T) {
	const workers = 4
	snap, steps := sequenceSteps(t, true)
	cfg := serve.Config{Workers: workers}
	sa, va := runSteps(t, snap, cfg, steps, nil)

	shifted := append([]seqStep(nil), steps...)
	for i := range shifted {
		shifted[i].req.Key += workers
	}
	sb, vb := runSteps(t, snap, cfg, shifted, nil)
	assertParity(t, "keys vs keys+workers", sa, sb, va, vb)

	pool := serve.NewPool(snap, cfg)
	var futs []*serve.Future
	deep := false
	for _, st := range steps {
		for k := 0; k < st.n; k++ {
			futs = append(futs, pool.Go(st.req))
		}
		for _, d := range pool.QueueDepths() {
			deep = deep || d > 0
		}
	}
	var vc []int32
	for _, f := range futs {
		got, err := f.Wait().Int()
		if err != nil {
			t.Fatalf("pipelined request: %v", err)
		}
		vc = append(vc, got)
	}
	pool.Close()
	if !deep {
		t.Fatal("pipelined submission never found a queued request")
	}
	assertParity(t, "one at a time vs pipelined", sa, pool.MachineStats(), va, vc)
}

// TestRoutingParitySingleShard: with one shard there is nothing to
// route, so keyless and keyed traffic model identically, and across
// lifecycles too (keyless mixed vs keyed Go only), closing the matrix.
func TestRoutingParitySingleShard(t *testing.T) {
	cfg := serve.Config{Workers: 1}
	snap, keyless := sequenceSteps(t, false)
	_, keyed := sequenceSteps(t, true)
	sa, va := runSteps(t, snap, cfg, keyless, nil)
	sb, vb := runSteps(t, snap, cfg, keyed, nil)
	assertParity(t, "keyless vs keyed (single shard)", sa, sb, va, vb)
	sc, vc := runSteps(t, snap, cfg, withVia(keyed, viaGo), nil)
	assertParity(t, "keyless mixed vs keyed Go only (single shard)", sa, sc, va, vc)
}

// TestFlightRecorderParity proves the flight recorder is pure
// observation: a pool whose rings wrap every few events (FlightRingSize
// 8) and a pool whose recorder is read back after every step model the
// same machines as the default pool — bit-identical core.Stats on every
// counter, identical answers — through the mixed sequence and through Go
// alone, so the recorder's submit-path stamps are covered on each path.
func TestFlightRecorderParity(t *testing.T) {
	snap, mixed := sequenceSteps(t, true)
	base := serve.Config{Workers: 2}
	tiny := base
	tiny.FlightRingSize = 8
	for _, seq := range []struct {
		name  string
		steps []seqStep
	}{{"mixed", mixed}, {"Go only", withVia(mixed, viaGo)}} {
		sa, va := runSteps(t, snap, base, seq.steps, nil)
		sb, vb := runSteps(t, snap, tiny, seq.steps, nil)
		assertParity(t, "default ring vs 8-slot ring ("+seq.name+")", sa, sb, va, vb)
		events := 0
		sc, vc := runSteps(t, snap, base, seq.steps, func(p *serve.Pool) {
			events += len(p.FlightRecorder().Events())
		})
		if events == 0 {
			t.Fatalf("%s: the recorder held no events after any step", seq.name)
		}
		assertParity(t, "unread vs read after every step ("+seq.name+")", sa, sc, va, vc)
	}
}

// TestRecoveryAndChaosParity proves the robustness machinery is pure
// mechanism: with an armed-but-empty fault plan (chaos off) and with a
// never-reached admission ceiling, the modelled core.Stats are
// bit-identical to the default pool on every counter and every answer
// matches. TestAccountingGolden pins the same rows against history.
func TestRecoveryAndChaosParity(t *testing.T) {
	base := serve.Config{Workers: 2}
	sa, va := runSequence(t, base, true)

	armed := base
	armed.Faults = &serve.Faults{Seed: 99} // armed plan, no fault cadences
	sb, vb := runSequence(t, armed, true)
	assertParity(t, "chaos armed-but-empty vs off", sa, sb, va, vb)

	ceiling := base
	ceiling.MaxInFlight = 1 << 30
	sc, vc := runSequence(t, ceiling, true)
	assertParity(t, "admission ceiling armed vs off", sa, sc, va, vc)
}

var update = flag.Bool("update", false, "regenerate testdata/accounting.golden.json")

// accountingGoldenPath is the checked-in modelled accounting of the
// default pool: for each row, the summed core.Stats and every answer of
// runSequence. It pins the COM behaviour against history, so host-level
// mechanism (routing, result cells, the flight recorder, the panic
// barriers) can change without a second implementation kept alive to
// compare against. Regenerate it only on a deliberate modelled change:
//
//	go test ./internal/serve -run TestAccountingGolden -update
const accountingGoldenPath = "testdata/accounting.golden.json"

// goldenRow is one fixture entry.
type goldenRow struct {
	Name    string     `json:"name"`
	Stats   core.Stats `json:"stats"`
	Answers []int32    `json:"answers"`
}

// TestAccountingGolden runs the deterministic sequence through each
// configuration and compares the modelled accounting and the answers
// with the fixture, byte for byte. Rows with more than one worker are
// keyed: a keyless send lands on a JSQ probe's random pick, and with it
// the cache state of whichever machine served it.
func TestAccountingGolden(t *testing.T) {
	rows := []struct {
		name  string
		cfg   serve.Config
		keyed bool
	}{
		{"workers=1 keyless", serve.Config{Workers: 1}, false},
		{"workers=2 keyed", serve.Config{Workers: 2}, true},
		{"workers=4 keyed", serve.Config{Workers: 4}, true},
		{"workers=2 keyed, faults armed-but-empty", serve.Config{Workers: 2, Faults: &serve.Faults{Seed: 99}}, true},
		{"workers=2 keyed, in-flight ceiling 2^30", serve.Config{Workers: 2, MaxInFlight: 1 << 30}, true},
	}
	var got []goldenRow
	for _, r := range rows {
		st, vals := runSequence(t, r.cfg, r.keyed)
		got = append(got, goldenRow{Name: r.name, Stats: st, Answers: vals})
	}
	buf, err := json.MarshalIndent(got, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(accountingGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(accountingGoldenPath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(buf), accountingGoldenPath)
		return
	}
	golden, err := os.ReadFile(accountingGoldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/serve -run TestAccountingGolden -update` to create it)", err)
	}
	if bytes.Equal(buf, golden) {
		return
	}
	var want []goldenRow
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatalf("fixture unreadable: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d rows, the test runs %d", len(want), len(got))
	}
	for i := range got {
		if want[i].Name != got[i].Name {
			t.Fatalf("row %d: fixture names %q, the test runs %q", i, want[i].Name, got[i].Name)
		}
		assertParity(t, got[i].Name+" (fixture vs now)", want[i].Stats, got[i].Stats, want[i].Answers, got[i].Answers)
	}
	t.Fatal("fixture bytes differ from a fresh encoding of equal rows")
}

// TestPoolITLBTotals pins the pool's ITLB totals against a replay. A
// one-worker pool serves the fixed sequence with one injected panic and
// one rotation between requests, and Metrics().ITLB must equal the hits
// and lookups of the same sends on machines stamped as the shard stamps
// them: a clone of the boot snapshot at start and after the panic's
// re-stamp, a clone of the rotation's snapshot after Rotate. The
// injected panic fires before Send, so its request makes no lookups.
func TestPoolITLBTotals(t *testing.T) {
	snap, steps := sequenceSteps(t, false)
	var reqs []serve.Request
	for _, st := range steps {
		for k := 0; k < st.n; k++ {
			reqs = append(reqs, st.req)
		}
	}
	// The panic fires on the panicAt-th execution, and only there: twice
	// panicAt exceeds the sequence. The rotation comes after it, so the
	// re-stamp clones the boot snapshot.
	panicAt, rotateAt := len(reqs)/2+1, len(reqs)*3/4
	pool := serve.NewPool(snap, serve.Config{Workers: 1, Faults: &serve.Faults{PanicEvery: panicAt}})
	defer pool.Close()

	m := snap.NewMachine()
	var want stats.Ratio
	for i, req := range reqs {
		if i == rotateAt {
			next, err := pool.SnapshotLive()
			if err != nil {
				t.Fatal(err)
			}
			if err := pool.Rotate(next); err != nil {
				t.Fatal(err)
			}
			m = next.NewMachine()
			if cs := m.ITLB.CacheStats(); cs.Hits == 0 || cs.Misses == 0 {
				t.Fatalf("rotation target stamps with ITLB counters %+v, want both nonzero", cs)
			}
		}
		res := pool.Do(req)
		if i+1 == panicAt {
			if !errors.Is(res.Err, serve.ErrPanic) {
				t.Fatalf("request %d: %v, want the injected panic", i, res.Err)
			}
			m = snap.NewMachine()
			continue
		}
		if res.Err != nil {
			t.Fatalf("request %d (%s): %v", i, req.Selector, res.Err)
		}
		pre := m.ITLB.CacheStats()
		if _, err := m.Send(req.Receiver, req.Selector, req.Args...); err != nil {
			t.Fatalf("replay %d (%s): %v", i, req.Selector, err)
		}
		post := m.ITLB.CacheStats()
		want.Hits += post.Hits - pre.Hits
		want.Total += post.Hits + post.Misses - pre.Hits - pre.Misses
	}
	if got := pool.Metrics().ITLB; got != want || want.Total == 0 {
		t.Fatalf("pool ITLB %+v, replay %+v", got, want)
	}
}
