package main

import (
	"time"

	"repro/internal/image"
	"repro/internal/serve"
	"repro/internal/word"
)

const (
	// ckptEvery and rotateEvery pace the live checkpointer: a capture
	// every 100ms, and every 5th one loaded back and rotated onto.
	ckptEvery   = 100 * time.Millisecond
	rotateEvery = 5
	// A workload without live checkpoints takes captures at its idle
	// node after the measured phases, so ckpt_ms and the image metrics
	// exist there too: at least idleMinCycles, and more while they stay
	// under idleMaxCycles and idleBudget.
	idleMinCycles = 5
	idleMaxCycles = 40
	idleBudget    = 2 * time.Second
	// keepGenerations is the checkpoint directory's retention.
	keepGenerations = 2
)

// checkpointer drives node 0's state capture as obarchd's background
// checkpointer does (Pool.SnapshotLive, then an fsync'd generation from
// image.WriteCheckpoint) and, when asked, loads the generation back with
// image.LoadCheckpoint and rotates the pool onto it with Pool.Rotate,
// then checks a send still answers correctly.
type checkpointer struct {
	pool  *serve.Pool
	check sender
	dir   string
	epoch time.Time
	gen   uint64
	t     tally
	log   ckptLog

	err        error
	stop, done chan struct{}
}

// ckptLog holds every capture's timings, and every load's and rotation's.
type ckptLog struct {
	total, snapshot, write, load, rotate []time.Duration
	bytes                                uint64
	events                               []event
}

// event is one timed call, for the span file.
type event struct {
	name       string
	start, dur time.Duration
}

func newCheckpointer(pool *serve.Pool, check sender, dir string, epoch time.Time) *checkpointer {
	return &checkpointer{pool: pool, check: check, dir: dir, epoch: epoch}
}

// cycle takes one capture, and with rotate also loads it back and
// rotates onto it.
func (c *checkpointer) cycle(rotate bool) error {
	c.gen++
	t0 := time.Now()
	snap, err := c.pool.SnapshotLive()
	if err != nil {
		return err
	}
	t1 := time.Now()
	m, err := image.WriteCheckpoint(c.dir, c.gen, snap)
	if err != nil {
		return err
	}
	t2 := time.Now()
	c.log.snapshot = append(c.log.snapshot, t1.Sub(t0))
	c.log.write = append(c.log.write, t2.Sub(t1))
	c.log.total = append(c.log.total, t2.Sub(t0))
	c.log.bytes = m.ImageBytes
	c.mark("serve.SnapshotLive", t0, t1)
	c.mark("image.WriteCheckpoint", t1, t2)
	if rotate {
		t3 := time.Now()
		loaded, _, err := image.LoadCheckpoint(c.dir, c.gen)
		if err != nil {
			return err
		}
		t4 := time.Now()
		if err := c.pool.Rotate(loaded); err != nil {
			return err
		}
		t5 := time.Now()
		c.log.load = append(c.log.load, t4.Sub(t3))
		c.log.rotate = append(c.log.rotate, t5.Sub(t4))
		c.mark("image.LoadCheckpoint", t3, t4)
		c.mark("serve.Rotate", t4, t5)
		s := send{req: serve.Request{Receiver: word.FromInt(21), Selector: "double"}, want: 42, prog: progDouble}
		resp, err := c.check(s.req)
		c.t.record(s, resp, err)
	}
	_, err = image.Prune(c.dir, keepGenerations)
	return err
}

func (c *checkpointer) mark(name string, from, to time.Time) {
	c.log.events = append(c.log.events, event{name: name, start: from.Sub(c.epoch), dur: to.Sub(from)})
}

// start begins live checkpointing in the background; finish stops it.
func (c *checkpointer) start() {
	c.stop, c.done = make(chan struct{}), make(chan struct{})
	go c.run()
}

func (c *checkpointer) run() {
	defer close(c.done)
	tick := time.NewTicker(ckptEvery)
	defer tick.Stop()
	for i := 1; ; i++ {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		if err := c.cycle(i%rotateEvery == 0); err != nil {
			c.err = err
			return
		}
	}
}

// finish stops live checkpointing, waits for the loop to exit and
// answers the first error a cycle hit.
func (c *checkpointer) finish() error {
	close(c.stop)
	<-c.done
	return c.err
}
