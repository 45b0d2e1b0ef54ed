// Durability operations on a live pool: quiescence, live snapshot
// capture, and zero-downtime image rotation. All three synchronise on
// the per-shard execMu the serving path already holds — serveOne gains
// no locking, no branch, nothing. A checkpoint or rotation simply takes
// its turn at the same request boundary every queued job takes, and
// submissions keep queueing behind it: traffic is delayed by at most one
// stamp, never failed.
package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
)

// ErrRotating is returned by Rotate when another rotation — or a live
// snapshot capture, which holds the same lock so it can never persist a
// half-rotated image — is already in progress. Rotations are operator
// actions; two at once is a mistake, not a queue.
var ErrRotating = errors.New("serve: rotation already in progress")

// Quiesce brings the pool to a global request boundary: it acquires
// every shard's execMu (in shard order, the pool's single lock-ordering
// rule) and returns a release function. While held, no machine is
// executing and none can start — every worker is parked either between
// jobs or blocked on its lock — but submissions are not failed: they
// keep queueing (or spin on the inline TryLock and fall back to the
// queue), and the backlog drains the moment release runs. Callers must
// call release; holding a quiescent pool is a global stall.
func (p *Pool) Quiesce() (release func()) {
	for _, s := range p.shards {
		s.execMu.Lock()
	}
	return func() {
		for i := len(p.shards) - 1; i >= 0; i-- {
			p.shards[i].execMu.Unlock()
		}
	}
}

// SnapshotLive captures a consistent snapshot of the pool's live state
// at a request boundary. The pool is quiesced, shard 0's machine —
// idle, like every machine at a quiescence point — is frozen, and the
// pool resumes. The capture cost is recorded as a KindCheckpoint flight
// event. Unlike the boot snapshot, the result reflects every mutation
// traffic has made to shard 0's image, which is what a checkpoint is
// for.
//
// Captures serialize with rotation: SnapshotLive holds rotMu for the
// duration (the same rotMu -> execMu order Rotate uses). Without it a
// capture could land inside a mid-swap Rotate — after shard 0 was
// stamped onto the next image but before a later shard's failure rolled
// everything back — and persist state the operator believes was
// reverted. A Rotate issued while a capture is in flight returns
// ErrRotating, exactly as if it had collided with another rotation.
func (p *Pool) SnapshotLive() (*core.Snapshot, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	p.rotMu.Lock()
	defer p.rotMu.Unlock()
	release := p.Quiesce()
	defer release()
	t0 := time.Now()
	snap, err := p.shards[0].m.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("serve: live snapshot: %w", err)
	}
	p.shards[0].fr.Record(flight.KindCheckpoint, 0, uint64(time.Since(t0)))
	return snap, nil
}

// Rotating reports whether a live rotation is mid-swap — the /readyz
// signal: a rotating pool serves correctly but a load balancer may
// prefer a steadier peer.
func (p *Pool) Rotating() bool { return p.rotating.Load() }

// Rotate swaps every shard's machine onto the next snapshot, one shard
// at a time, between requests. Each shard is stamped under its own
// execMu while the other shards keep serving and the stamping shard's
// queue buffers — no request is failed, shed, or paused pool-wide,
// which is what makes the rotation zero-downtime. Retired-machine
// accounting folds into the shard accumulators exactly as panic
// re-stamps do, so MachineStats and the ITLB ratio conserve across the
// swap.
//
// If any shard's stamp fails (only injectable today, via
// Faults.RotateFailAt — stamping is a clone and does not otherwise
// fail), the shards already swapped are rolled back onto their previous
// sources, RotateFailures is bumped, and the error is returned: the
// pool is left exactly as found. On success each shard's src advances
// to next, so later panic re-stamps clone the new image, and Rotations
// is bumped.
func (p *Pool) Rotate(next *core.Snapshot) error {
	if next == nil {
		return errors.New("serve: rotate: nil snapshot")
	}
	if p.closed.Load() {
		return ErrClosed
	}
	if !p.rotMu.TryLock() {
		return ErrRotating
	}
	defer p.rotMu.Unlock()
	p.rotating.Store(true)
	defer p.rotating.Store(false)

	prev := make([]*core.Snapshot, len(p.shards))
	for i, s := range p.shards {
		s.execMu.Lock()
		prev[i] = s.src
		if f := p.cfg.Faults; f != nil && f.RotateFailAt == i+1 {
			s.execMu.Unlock()
			p.rollback(prev[:i])
			p.rotateFailures.Add(1)
			return fmt.Errorf("serve: rotate: chaos-injected stamp failure on shard %d; rolled back", i)
		}
		t0 := time.Now()
		s.swapMachine(next)
		s.fr.Record(flight.KindRotate, 0, uint64(time.Since(t0)))
		s.execMu.Unlock()
	}
	p.rotations.Add(1)
	return nil
}

// rollback re-stamps the first len(prev) shards back onto their
// pre-rotation sources after a mid-swap failure. Rollback stamps are
// never failure-injected: a rollback that could wedge would be a worse
// failure mode than the one it repairs.
func (p *Pool) rollback(prev []*core.Snapshot) {
	for i, snap := range prev {
		s := p.shards[i]
		s.execMu.Lock()
		t0 := time.Now()
		s.swapMachine(snap)
		s.fr.Record(flight.KindRotate, 0, uint64(time.Since(t0)))
		s.execMu.Unlock()
	}
}
