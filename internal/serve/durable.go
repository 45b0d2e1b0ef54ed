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

	"repro/internal/core"
	"repro/internal/flight"
)

// ErrRotating is returned by Rotate when another rotation is already
// in progress. Rotations are operator actions; two at once is a
// mistake, not a queue.
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

// SnapshotLive captures a snapshot of the pool's live state at a
// request boundary: it freezes shard 0's machine under shard 0's execMu,
// the lock every request on that shard holds, so the machine is idle
// and its state is committed. The other shards keep serving. The
// capture cost is recorded as a KindCheckpoint flight event. Unlike the
// boot snapshot, the result reflects every mutation traffic has made to
// shard 0's image, which is what a checkpoint is for.
//
// A capture does not hold off a rotation. One taken while Rotate runs
// sees shard 0 on either the old or the new image, and both are
// committed states: Rotate stamps each shard under the same execMu and
// cannot fail part-way.
func (p *Pool) SnapshotLive() (*core.Snapshot, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	s := p.shards[0]
	s.execMu.Lock()
	defer s.execMu.Unlock()
	t0 := core.Monotonic()
	snap, err := s.m.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("serve: live snapshot: %w", err)
	}
	t1 := core.Monotonic()
	s.fr.RecordAt(flight.KindCheckpoint, 0, uint64(t1-t0), s.fr.TS(t1))
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
// which is what makes the rotation zero-downtime. Retired-machine stats
// fold into the shard's retired total exactly as panic re-stamps do, so
// MachineStats conserves across the swap. Each shard's src advances to
// next as it is stamped, so later panic re-stamps clone the new image,
// and Rotations is bumped once every shard is swapped.
//
// A stamp is a clone and cannot fail, so once Rotate starts swapping it
// finishes: it returns an error only for a nil snapshot, a closed pool
// (ErrClosed), or a rotation already in progress (ErrRotating).
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

	for _, s := range p.shards {
		s.execMu.Lock()
		t0 := core.Monotonic()
		s.swapMachine(next)
		t1 := core.Monotonic()
		s.fr.RecordAt(flight.KindRotate, 0, uint64(t1-t0), s.fr.TS(t1))
		s.execMu.Unlock()
	}
	p.rotations.Add(1)
	return nil
}
