// The daemon's durability machinery: the background checkpointer, the
// boot-time recovery ladder, and live image rotation (POST /rotate plus
// the -watch poller). All of it rides the pool's quiescence primitives —
// SnapshotLive and Rotate synchronise on the same per-shard execMu the
// serving path already holds, so none of this adds locking, branches, or
// allocations to a request.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/httpwire"
	"repro/internal/image"
	"repro/internal/serve"
)

// checkpointer periodically captures the pool's live state into
// generation-numbered checkpoint directories, pruned to the newest keep.
// One goroutine owns nextGen; the atomic last* fields feed /stats and
// /metrics from any scrape goroutine.
type checkpointer struct {
	pool     *serve.Pool
	dir      string
	keep     int
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
	nextGen  uint64

	lastNS   atomic.Int64 // CreatedUnixNS of the newest successful checkpoint; 0 before any
	lastGen  atomic.Int64 // generation of same; -1 before any
	taken    atomic.Uint64
	failures atomic.Uint64
}

// newCheckpointer prepares (but does not start) a checkpointer. The next
// generation number continues from whatever the directory already holds,
// and the age gauge is primed from the newest existing generation's
// manifest so a freshly recovered node reports its checkpoint's real
// age, not "never".
func newCheckpointer(pool *serve.Pool, dir string, keep int, interval time.Duration) (*checkpointer, error) {
	gens, err := image.ListGenerations(dir)
	if err != nil {
		return nil, err
	}
	c := &checkpointer{
		pool:     pool,
		dir:      dir,
		keep:     keep,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		nextGen:  1,
	}
	c.lastGen.Store(-1)
	if len(gens) > 0 {
		newest := gens[len(gens)-1]
		c.nextGen = newest + 1
		if _, m, err := image.LoadCheckpoint(dir, newest); err == nil {
			c.lastNS.Store(m.CreatedUnixNS)
			c.lastGen.Store(int64(m.Generation))
		}
	}
	return c, nil
}

// run is the checkpoint loop: one capture per interval, plus a final
// capture when Stop is called — the drain path's parting checkpoint, so
// a clean shutdown always leaves the freshest possible state behind.
func (c *checkpointer) run() {
	defer close(c.done)
	t := time.NewTicker(c.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.checkpoint()
		case <-c.stop:
			c.checkpoint()
			return
		}
	}
}

// checkpoint captures one generation and prunes. Failures are counted
// and logged, never fatal: a checkpointer that can't write (disk full,
// pool closing) must not take the serving path down with it.
func (c *checkpointer) checkpoint() {
	snap, err := c.pool.SnapshotLive()
	if err != nil {
		c.failures.Add(1)
		log.Printf("obarchd: checkpoint: snapshot: %v", err)
		return
	}
	gen := c.nextGen
	start := time.Now()
	m, err := image.WriteCheckpoint(c.dir, gen, snap)
	if err != nil {
		c.failures.Add(1)
		log.Printf("obarchd: checkpoint gen %d: %v", gen, err)
		return
	}
	c.nextGen++
	c.taken.Add(1)
	c.lastNS.Store(m.CreatedUnixNS)
	c.lastGen.Store(int64(m.Generation))
	if removed, err := image.Prune(c.dir, c.keep); err != nil {
		log.Printf("obarchd: checkpoint prune: %v", err)
	} else if len(removed) > 0 {
		log.Printf("obarchd: checkpoint gen %d written in %v (%d bytes); pruned %v", gen, time.Since(start).Round(time.Millisecond), m.ImageBytes, removed)
		return
	}
	log.Printf("obarchd: checkpoint gen %d written in %v (%d bytes)", gen, time.Since(start).Round(time.Millisecond), m.ImageBytes)
}

// Stop takes the final checkpoint and waits the loop out. Call before
// Pool.Close: a closed pool refuses SnapshotLive.
func (c *checkpointer) Stop() {
	close(c.stop)
	<-c.done
}

// checkpointAge answers the seconds since the newest successful
// checkpoint, or -1 when there is none (or no checkpointer at all) —
// the sentinel /stats and /metrics export.
func (s *server) checkpointAge() float64 {
	if s.ckpt == nil {
		return -1
	}
	ns := s.ckpt.lastNS.Load()
	if ns == 0 {
		return -1
	}
	return time.Since(time.Unix(0, ns)).Seconds()
}

// checkpointGen answers the newest checkpoint's generation, -1 when none.
func (s *server) checkpointGen() int64 {
	if s.ckpt == nil {
		return -1
	}
	return s.ckpt.lastGen.Load()
}

// checkpointCounts answers (taken, failures) for export; zeros without a
// checkpointer.
func (s *server) checkpointCounts() (uint64, uint64) {
	if s.ckpt == nil {
		return 0, 0
	}
	return s.ckpt.taken.Load(), s.ckpt.failures.Load()
}

// stageRotate loads and fully validates the image at path — hostile-input
// decoding, section CRCs, the works — entirely off the serving hot path,
// then rotates the pool onto it shard-by-shard.
func (s *server) stageRotate(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("stage %s: %w", path, err)
	}
	defer f.Close()
	snap, err := obarch.ReadImage(f)
	if err != nil {
		return fmt.Errorf("stage %s: %w", path, err)
	}
	return s.pool.Rotate(snap)
}

// handleRotate is POST /rotate: swap the serving pool onto a new image
// without dropping a request. The body may name the image
// ({"path": "..."}); an empty body rotates onto the -image path —
// the "reload what's on disk" operator move. 409 while another rotation
// is mid-swap, 400 for an unreadable or invalid image (the pool is
// untouched), 500 for a mid-swap failure (the pool rolled back).
func (s *server) handleRotate(w http.ResponseWriter, r *http.Request) {
	path := s.imagePath
	if r.ContentLength != 0 {
		var body struct {
			Path string `json:"path"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			httpwire.Error(w, http.StatusBadRequest, "bad request: "+err.Error())
			return
		}
		if body.Path != "" {
			path = body.Path
		}
	}
	if path == "" {
		httpwire.Error(w, http.StatusBadRequest, `no image path: POST {"path":...} or start obarchd with -image`)
		return
	}
	start := time.Now()
	failsBefore := s.pool.Metrics().RotateFailures
	err := s.stageRotate(path)
	switch {
	case err == nil:
	case errors.Is(err, serve.ErrRotating):
		httpwire.Error(w, http.StatusConflict, err.Error())
		return
	case errors.Is(err, serve.ErrClosed):
		httpwire.Error(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, os.ErrNotExist):
		httpwire.Error(w, http.StatusBadRequest, err.Error())
		return
	default:
		// A staging failure leaves the pool untouched (400); a mid-swap
		// failure rolled it back (500). Only the latter bumps the
		// rotate-failure counter, so split on its delta.
		status := http.StatusBadRequest
		if s.pool.Metrics().RotateFailures > failsBefore {
			status = http.StatusInternalServerError
		}
		httpwire.Error(w, status, err.Error())
		return
	}
	met := s.pool.Metrics()
	log.Printf("obarchd: rotated onto %s in %v", path, time.Since(start).Round(time.Millisecond))
	httpwire.WriteJSON(w, http.StatusOK, map[string]any{
		"path":       path,
		"workers":    s.pool.Workers(),
		"rotations":  met.Rotations,
		"elapsed_us": time.Since(start).Microseconds(),
	})
}

// watchImage polls the -image path every interval and rotates the pool
// onto it when the file changes (mtime or size) — zero-downtime config
// push: drop a new image in place and every node picks it up between
// requests. The first poll records the baseline; only subsequent changes
// rotate.
//
// The baseline advances only after a successful rotation. A failed
// attempt — typically the poller catching an image mid-write, whose
// finished form may keep the very mtime and size the failed poll saw —
// must stay "changed" so the next tick retries; advancing the baseline
// first would dismiss the completed image as already-seen and never
// rotate onto it.
func (s *server) watchImage(interval time.Duration, stop <-chan struct{}) {
	var lastMod time.Time
	var lastSize int64
	primed := false
	if fi, err := os.Stat(s.imagePath); err == nil {
		lastMod, lastSize, primed = fi.ModTime(), fi.Size(), true
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		fi, err := os.Stat(s.imagePath)
		if err != nil {
			continue // absent or unreadable; keep serving what we have
		}
		if primed && fi.ModTime().Equal(lastMod) && fi.Size() == lastSize {
			continue
		}
		if err := s.stageRotate(s.imagePath); err != nil {
			// Baseline untouched: the file still reads as changed, so
			// the next tick retries — a torn write is a transient, not a
			// verdict on the image.
			log.Printf("obarchd: watch: rotate onto %s: %v", s.imagePath, err)
			continue
		}
		// Committed: adopt what we just rotated onto as the baseline
		// (first sighting included — the operator clearly just installed
		// an image, so serving it is the right adoption).
		primed = true
		lastMod, lastSize = fi.ModTime(), fi.Size()
		log.Printf("obarchd: watch: rotated onto changed image %s", s.imagePath)
	}
}
