package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/obwire"
	"repro/internal/serve"
	"repro/internal/word"
)

// coreGCEvery is the core rung's collection cadence, in sends. A pool
// shard collects its machine between requests; the bare machine is
// collected the same way, outside the timed calls.
const coreGCEvery = 64

// rung is one step of the layer ladder: the ladder's sends through one
// more layer's public call.
type rung struct {
	layer, call string
	total       time.Duration // summed over the timed sends
	service     time.Duration // node-reported service time, where the call returns one
}

// coreRung is the bottom rung, which also carries the modelled
// accounting: per-send core.Stats deltas and ITLB lookups, summed over
// the timed sends.
type coreRung struct {
	rung
	model                 core.Stats
	itlbHits, itlbLookups uint64
}

// ladder is one replay of the same sends through every rung.
type ladder struct {
	n     int
	core  coreRung
	rungs []rung // core, serve, obwire, cluster
}

// ladderSends generates the ladder's stream: n sends from its own lane.
func ladderSends(w *workloadSpec, seed uint64, n int) []send {
	st := newStream(seed, laneLadder, w)
	sends := make([]send, n)
	for i := range sends {
		sends[i] = st.next()
	}
	return sends
}

// ladderWarm is how many of the stream's first sends each rung runs
// untimed before it times them all.
func ladderWarm(n int) int { return min(n/10, 64) }

// runLadder replays the same seeded sends through four rungs in turn,
// with one caller and nothing else running: Machine.Send on a fresh
// machine stamped from the boot snapshot, then Pool.Do on node 0,
// MuxClient.Do to node 0, and Router.Send over both nodes.
func runLadder(st *stack, sends []send, t *tally) ladder {
	c := runCoreRung(st.snap, sends, t)
	pool := st.nodes[0].pool
	poolDo := func(req serve.Request) (obwire.Response, error) { return poolResponse(pool.Do(req)), nil }
	return ladder{n: len(sends), core: c, rungs: []rung{
		c.rung,
		callRung("serve", "Pool.Do", sends, t, poolDo),
		callRung("obwire", "MuxClient.Do", sends, t, st.direct.Do),
		callRung("cluster", "Router.Send", sends, t, st.router.Send),
	}}
}

// runCoreRung times Machine.Send alone on a machine fresh from snap, so
// its modelled accounting is a function of the sends alone.
func runCoreRung(snap *core.Snapshot, sends []send, t *tally) coreRung {
	m := snap.NewMachine()
	c := coreRung{rung: rung{layer: "core", call: "Machine.Send"}}
	calls := 0
	call := func(s send, timed bool) {
		pre := m.Stats
		cs := m.ITLB.CacheStats()
		t0 := time.Now()
		v, err := m.Send(s.req.Receiver, s.req.Selector, s.req.Args...)
		d := time.Since(t0)
		if err != nil {
			m.Abort()
		}
		delta := m.Stats
		delta.Sub(pre)
		t.record(s, coreResponse(v, err, delta.Cycles), nil)
		if timed {
			c.total += d
			c.model.Add(delta)
			cs2 := m.ITLB.CacheStats()
			c.itlbHits += cs2.Hits - cs.Hits
			c.itlbLookups += cs2.Hits + cs2.Misses - cs.Hits - cs.Misses
		}
		if calls++; calls%coreGCEvery == 0 {
			gc.Collect(m)
		}
	}
	for _, s := range sends[:ladderWarm(len(sends))] {
		call(s, false)
	}
	for _, s := range sends {
		call(s, true)
	}
	return c
}

// coreResponse gives a bare machine's answer the shape of a wire
// response, so the core rung is checked by the same tally.
func coreResponse(v word.Word, err error, cycles uint64) obwire.Response {
	resp := obwire.Response{Status: obwire.StatusFor(err), Value: v, Cycles: cycles}
	if err != nil {
		resp.Err = err.Error()
	}
	return resp
}

// callRung times one layer's public call over the sends.
func callRung(layer, call string, sends []send, t *tally, do sender) rung {
	r := rung{layer: layer, call: call}
	for _, s := range sends[:ladderWarm(len(sends))] {
		resp, err := do(s.req)
		t.record(s, resp, err)
	}
	for _, s := range sends {
		t0 := time.Now()
		resp, err := do(s.req)
		r.total += time.Since(t0)
		r.service += resp.Latency
		t.record(s, resp, err)
	}
	return r
}

// perSend is a rung total as microseconds per send.
func (l ladder) perSend(d time.Duration) float64 { return us(d) / float64(l.n) }

// print renders the ladder: each rung's cost per send and its marginal
// cost over the rung below, which is that layer's self time.
func (l ladder) print(out io.Writer) {
	fmt.Fprintf(out, "ladder: the same %d seeded sends through each rung, one caller\n", l.n)
	fmt.Fprintf(out, "  %-8s %-14s %12s %12s\n", "layer", "call", "us/send", "marginal_us")
	prev := 0.0
	for _, r := range l.rungs {
		c := l.perSend(r.total)
		fmt.Fprintf(out, "  %-8s %-14s %12.3f %12.3f\n", r.layer, r.call, c, c-prev)
		prev = c
	}
}
