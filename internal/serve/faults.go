// Panic isolation and the deterministic chaos harness. The recovery
// half turns a worker panic into a failed Result: a recover barrier
// around machine execution (invoke) plus a second barrier around the
// shard driver (dispatch) catch the panic, the suspect machine is
// quarantined, and a fresh worker is re-stamped from the pool snapshot —
// the same import that built the pool, now doubling as the repair
// mechanism. The chaos half injects the faults those barriers exist for,
// at seeded, reproducible points, so the recovery paths are exercised by
// deterministic tests instead of trusted on faith.
package serve

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/gc"
	"repro/internal/word"
)

// Faults is a deterministic fault plan (Config.Faults): each shard
// injects faults on a fixed schedule derived from the plan and its shard
// index alone, so a seeded run reproduces the same faults at the same
// points every time. Counts are per shard: PanicEvery = 2 panics that
// shard's 2nd, 4th, 6th... execution (with Seed = 0; a nonzero Seed
// shifts each shard's schedule by a seeded per-shard phase so faults
// stop lining up across shards).
type Faults struct {
	// Seed derives each shard's injection phases. 0 means no phase: all
	// shards fault on exact multiples of their Every cadences — the
	// fully predictable plan unit tests want.
	Seed uint64
	// PanicEvery panics every Nth machine execution on each shard —
	// inside the recovery barrier, exactly where a real interpreter bug
	// would land. 0 disables panic injection.
	PanicEvery int
	// StallEvery sleeps Stall before every Nth machine execution,
	// modelling a wedged interpreter or a scheduling glitch. 0 disables.
	StallEvery int
	Stall      time.Duration
	// ClogEvery sleeps Clog at every Nth queue dispatch — before the
	// driver serves the job, with the queue backing up behind it — the
	// reproducible way to build queue pressure. 0 disables. Clogs fire on
	// queue dispatches only: the inline lane (Do, TryDo, and so an obwire
	// frame its connection's reader runs itself) never queues, so it
	// never clogs. With one P an obwire reader runs every frame itself
	// while its shard is idle, so a connection's frames queue, and can
	// clog, only behind one that found its shard busy.
	ClogEvery int
	Clog      time.Duration
}

// chaosState is one shard's arm of the fault plan. All fields are only
// touched by whoever holds the shard's execMu, like the machine the
// faults target.
type chaosState struct {
	plan       Faults
	execN      uint64
	dispN      uint64
	panicPhase uint64
	stallPhase uint64
	clogPhase  uint64
}

// newChaosState fixes shard i's injection schedule from the plan.
func newChaosState(f Faults, shard int) *chaosState {
	c := &chaosState{plan: f}
	if f.Seed != 0 {
		rng := rand.New(rand.NewPCG(f.Seed, uint64(shard)*0x9e3779b97f4a7c15+0x2545f4914f6cdd1d))
		if f.PanicEvery > 0 {
			c.panicPhase = rng.Uint64N(uint64(f.PanicEvery))
		}
		if f.StallEvery > 0 {
			c.stallPhase = rng.Uint64N(uint64(f.StallEvery))
		}
		if f.ClogEvery > 0 {
			c.clogPhase = rng.Uint64N(uint64(f.ClogEvery))
		}
	}
	return c
}

// chaosPanic is the value an injected panic throws, so the barriers (and
// the flight recorder) can tell injected faults from real ones.
type chaosPanic struct {
	Shard int
	N     uint64
}

func (c chaosPanic) String() string {
	return fmt.Sprintf("chaos-injected panic (shard %d, execution %d)", c.Shard, c.N)
}

// beforeSend injects execution faults — a stall, then a panic if both
// are due — counting machine executions on this shard.
func (c *chaosState) beforeSend(shard int) {
	c.execN++
	if e := c.plan.StallEvery; e > 0 && c.plan.Stall > 0 && (c.execN+c.stallPhase)%uint64(e) == 0 {
		time.Sleep(c.plan.Stall)
	}
	if e := c.plan.PanicEvery; e > 0 && (c.execN+c.panicPhase)%uint64(e) == 0 {
		panic(chaosPanic{Shard: shard, N: c.execN})
	}
}

// beforeDispatch injects the dispatch clog, counting queue dispatches.
func (c *chaosState) beforeDispatch() {
	c.dispN++
	if e := c.plan.ClogEvery; e > 0 && c.plan.Clog > 0 && (c.dispN+c.clogPhase)%uint64(e) == 0 {
		time.Sleep(c.plan.Clog)
	}
}

// invoke runs one machine execution behind the recovery barrier: a panic
// — the machine's or an injected one — is converted into an ErrPanic
// error with panicked set, and execution falls through to serveOne's
// bookkeeping instead of unwinding the driver. Callers hold execMu.
func (p *Pool) invoke(s *shard, req Request) (v word.Word, err error, panicked, chaosHit bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			_, chaosHit = r.(chaosPanic)
			err = fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	if c := s.chaos; c != nil {
		c.beforeSend(s.id)
	}
	v, err = s.m.Send(req.Receiver, req.Selector, req.Args...)
	return
}

// quarantine handles a caught panic on a shard: the interrupted machine
// is retired (its stats folded into the shard's retired total so
// MachineStats conserves) and a fresh worker is re-stamped from the pool
// snapshot. Called under execMu, from serveOne's barrier or the driver's.
// ts is the panicked request's exec-end recorder timestamp; quarantine
// returns the core.Monotonic reading the re-stamp finished at.
func (p *Pool) quarantine(s *shard, id uint64, ts int64, chaosHit bool) int64 {
	s.met.panics.Add(1)
	s.unhealthy.Store(true)
	t0 := core.Monotonic()
	p.restamp(s)
	t1 := core.Monotonic()
	s.fr.RecordAt(flight.KindPanic, id, panicCode(chaosHit), ts)
	s.fr.RecordAt(flight.KindRestamp, id, uint64(t1-t0), ts+(t1-t0))
	return t1
}

// panicCode is a KindPanic event's arg: injected or real.
func panicCode(chaosHit bool) uint64 {
	if chaosHit {
		return flight.PanicChaos
	}
	return flight.PanicReal
}

// restamp swaps the shard's machine for a fresh stamp of its stamping
// source (the boot snapshot, or whatever the last rotation installed).
// Called under execMu.
func (p *Pool) restamp(s *shard) {
	s.swapMachine(s.src)
	s.met.restamps.Add(1)
}

// swapMachine retires the shard's machine and stamps a fresh one from
// snap, recording snap as the shard's stamping source. The retired
// machine's stats move into the shard's retired total first, so
// MachineStats conserves across the swap, and the collector and GC
// cadence restart with the clean heap. The shared mechanism under panic
// re-stamps and live rotation. Called under execMu.
func (s *shard) swapMachine(snap *core.Snapshot) {
	s.retired.Add(s.m.Stats)
	s.m = snap.NewMachine()
	s.src = snap
	s.col = gc.Collector{}
	s.sinceGC = 0
}

// driverPanic is the shard driver's last-resort barrier handler: a panic
// that escaped serveOne's own barrier (so the serving path's bookkeeping
// never ran for this request) still answers the request's cell, retires
// its counters, and re-stamps the machine, keeping the worker goroutine
// alive. Called under execMu.
func (p *Pool) driverPanic(s *shard, f *Future, r any) {
	s.met.panics.Add(1)
	s.unhealthy.Store(true)
	p.restamp(s)
	err := fmt.Errorf("%w: %v", ErrPanic, r)
	_, chaosHit := r.(chaosPanic)
	now := s.fr.Now()
	s.fr.RecordAt(flight.KindPanic, f.id, panicCode(chaosHit), now)
	s.fr.RecordAt(flight.KindRestamp, f.id, 0, now)
	s.pending.Add(-1)
	p.release()
	f.complete(Result{Err: err, Worker: s.id})
}
