// The daemon's durability machinery: the background checkpointer, the
// boot-time recovery ladder, and live image rotation (POST /rotate plus
// the -watch poller). All of it rides the pool's request boundaries —
// SnapshotLive and Rotate synchronise on the same per-shard execMu the
// serving path already holds, so none of this adds locking, branches, or
// allocations to a request.

package node

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
	"repro/internal/workload"
)

// checkpointer periodically captures the pool's live state into
// generation-numbered checkpoint files, pruned to the newest keep.
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
// generation number continues from the newest file the directory holds,
// so a file that recovery rejected is never overwritten. The generation
// and age gauges start at recovered, the generation Boot recovered, the
// age from its file's mtime without reading the image: a freshly
// recovered node reports the checkpoint it holds and that checkpoint's
// real age, and both read -1 when the boot took a lower rung.
func newCheckpointer(pool *serve.Pool, dir string, keep int, interval time.Duration, recovered int64) (*checkpointer, error) {
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
		c.nextGen = gens[len(gens)-1] + 1
	}
	if recovered >= 0 {
		if m, err := image.StatCheckpoint(dir, uint64(recovered)); err == nil {
			c.lastNS.Store(m.CreatedUnixNS)
			c.lastGen.Store(recovered)
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

// ckptStats is the checkpointer's export for /stats and /metrics. A
// generation or age of -1 means there is no checkpoint (or no
// checkpointer at all) — the "never checkpointed" sentinel a dashboard
// can alert on. Fields are in the order /stats has always listed them.
type ckptStats struct {
	AgeS       float64 `json:"age_s"`
	Enabled    bool    `json:"enabled"`
	Failures   uint64  `json:"failures"`
	Generation int64   `json:"generation"`
	Taken      uint64  `json:"taken"`
}

func (n *Node) checkpointStats() ckptStats {
	c := n.ckpt
	if c == nil {
		return ckptStats{AgeS: -1, Generation: -1}
	}
	st := ckptStats{AgeS: -1, Enabled: true, Failures: c.failures.Load(), Generation: c.lastGen.Load(), Taken: c.taken.Load()}
	if ns := c.lastNS.Load(); ns != 0 {
		st.AgeS = time.Since(time.Unix(0, ns)).Seconds()
	}
	return st
}

// stageRotate loads and fully validates the image at path — hostile-input
// decoding, section CRCs, the works — entirely off the serving hot path,
// then rotates the pool onto it shard-by-shard.
func (n *Node) stageRotate(path string) error {
	snap, err := image.ReadFile(path)
	if err != nil {
		return fmt.Errorf("stage %s: %w", path, err)
	}
	return n.pool.Rotate(snap)
}

// handleRotate is POST /rotate: swap the serving pool onto a new image
// without dropping a request. The body may name the image
// ({"path": "..."}); an empty body rotates onto the -image path —
// the "reload what's on disk" operator move. 409 while another rotation
// is mid-swap, 503 once the pool is closed, and 400 for an unreadable
// or invalid image (the pool is untouched). A rotation that starts
// always completes.
func (n *Node) handleRotate(w http.ResponseWriter, r *http.Request) {
	path := n.imagePath
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
	err := n.stageRotate(path)
	switch {
	case err == nil:
	case errors.Is(err, serve.ErrRotating):
		httpwire.Error(w, http.StatusConflict, err.Error())
		return
	case errors.Is(err, serve.ErrClosed):
		httpwire.Error(w, http.StatusServiceUnavailable, err.Error())
		return
	default:
		httpwire.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	met := n.pool.Metrics()
	log.Printf("obarchd: rotated onto %s in %v", path, time.Since(start).Round(time.Millisecond))
	httpwire.WriteJSON(w, http.StatusOK, map[string]any{
		"path":       path,
		"workers":    n.pool.Workers(),
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
func (n *Node) watchImage(interval time.Duration, stop <-chan struct{}) {
	var lastMod time.Time
	var lastSize int64
	primed := false
	if fi, err := os.Stat(n.imagePath); err == nil {
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
		fi, err := os.Stat(n.imagePath)
		if err != nil {
			continue // absent or unreadable; keep serving what we have
		}
		if primed && fi.ModTime().Equal(lastMod) && fi.Size() == lastSize {
			continue
		}
		if err := n.stageRotate(n.imagePath); err != nil {
			// Baseline untouched: the file still reads as changed, so
			// the next tick retries — a torn write is a transient, not a
			// verdict on the image.
			log.Printf("obarchd: watch: rotate onto %s: %v", n.imagePath, err)
			continue
		}
		// Committed: adopt what we just rotated onto as the baseline
		// (first sighting included — the operator clearly just installed
		// an image, so serving it is the right adoption).
		primed = true
		lastMod, lastSize = fi.ModTime(), fi.Size()
		log.Printf("obarchd: watch: rotated onto changed image %s", n.imagePath)
	}
}

// BootInfo is the serving snapshot's provenance — how this node came to
// hold its image — reported by /stats and /metrics so a cluster can tell
// its members apart.
type BootInfo struct {
	// ImagePath is the -image path, empty when none was configured.
	ImagePath string `json:"path,omitempty"`
	// Mode is the recovery-ladder rung the boot took: "checkpoint" when
	// the snapshot was recovered from a checkpoint generation, "warm"
	// when it was loaded from the persisted -image file, "compile" when
	// it was compiled from source.
	Mode string `json:"mode"`
	// FormatVersion is the on-disk image codec version this build
	// speaks (the version a warm boot read and POST /save writes).
	FormatVersion int `json:"format_version"`
	// RecoveredGeneration is the checkpoint generation the boot
	// recovered, -1 on the lower rungs.
	RecoveredGeneration int64 `json:"recovered_generation"`
	// RecoveryLadder counts the rungs rejected on the way to Mode:
	// corrupt or torn checkpoint generations skipped, plus an unreadable
	// -image file fallen through. 0 is a first-rung boot.
	RecoveryLadder int `json:"recovery_ladder"`
}

// compileBoot is the provenance of a boot that compiled from source: the
// bottom rung, no generation recovered, no rung rejected.
func compileBoot(imagePath string) BootInfo {
	return BootInfo{ImagePath: imagePath, Mode: "compile", FormatVersion: image.FormatVersion, RecoveredGeneration: -1}
}

// Boot produces the serving snapshot by descending the recovery
// ladder: the newest valid checkpoint generation under ckptDir first
// (corrupt or torn generations are rejected and cost one rung each),
// then the -image file (warm start — no compile, warm ITLB; an image
// that cannot be opened or read, other than an absent one, costs one
// rung instead of failing the boot), then compile-from-source. The
// returned BootInfo records the rung taken and the rungs rejected.
func Boot(imagePath, ckptDir string, suite bool, srcPaths []string) (*obarch.Snapshot, []workload.Program, BootInfo, error) {
	info := compileBoot(imagePath)
	var programs []workload.Program
	if suite {
		programs = workload.Suite()
	}
	if ckptDir != "" {
		snap, m, rejected, err := image.RecoverLatest(ckptDir)
		info.RecoveryLadder += len(rejected)
		for _, gen := range rejected {
			log.Printf("obarchd: recovery: checkpoint gen %d rejected (corrupt or torn); falling to next rung", gen)
		}
		switch {
		case err == nil:
			if len(srcPaths) != 0 {
				return nil, nil, info, fmt.Errorf("cannot load source files over checkpoint state in %s; clear it or drop the file arguments", ckptDir)
			}
			info.Mode = "checkpoint"
			info.RecoveredGeneration = int64(m.Generation)
			log.Printf("obarchd: recovered checkpoint gen %d from %s (captured %s)", m.Generation, ckptDir, time.Unix(0, m.CreatedUnixNS).UTC().Format(time.RFC3339))
			return snap, programs, info, nil
		case errors.Is(err, image.ErrNoCheckpoint):
			log.Printf("obarchd: recovery: no valid checkpoint in %s; falling to -image", ckptDir)
		default:
			return nil, nil, info, fmt.Errorf("checkpoint dir %s: %w", ckptDir, err)
		}
	}
	if imagePath != "" {
		start := time.Now()
		snap, err := image.ReadFile(imagePath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			log.Printf("obarchd: image %s absent; cold boot (POST /save to create it)", imagePath)
		case len(srcPaths) != 0:
			// A warm boot serves exactly what the image holds; silently
			// dropping extra sources (or advertising programs the image
			// was saved without) would misrepresent the pool, so refuse
			// the combination instead.
			return nil, nil, info, fmt.Errorf("cannot load source files over an existing image %s; delete it or drop the file arguments", imagePath)
		case err != nil:
			// The image rung failed: one more rung down, compile.
			info.RecoveryLadder++
			log.Printf("obarchd: recovery: image %s rejected (%v); falling to compile", imagePath, err)
		default:
			log.Printf("obarchd: warm boot from %s in %v", imagePath, time.Since(start).Round(time.Microsecond))
			info.Mode = "warm"
			return snap, programs, info, nil
		}
	}
	sys := obarch.NewSystem(obarch.Options{})
	if suite {
		if _, err := workload.LoadSuite(sys.M); err != nil {
			return nil, nil, info, err
		}
	}
	for _, path := range srcPaths {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, info, err
		}
		if err := sys.Load(string(src)); err != nil {
			return nil, nil, info, fmt.Errorf("load %s: %w", path, err)
		}
	}
	snap, err := sys.Snapshot()
	if err != nil {
		return nil, nil, info, err
	}
	return snap, programs, info, nil
}
