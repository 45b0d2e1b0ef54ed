package cache

import "fmt"

// This file exposes the cache's replacement state — lines, recency stamps
// and the LRU clock — as plain data, for the persistent image codec: a
// machine loaded from disk must replay the exact replacement decisions the
// snapshotted machine would have made, so the warm ITLB/icache working set
// survives a restart bit-identically.

// LineState is the serialisable state of one held cache line. Index is
// its line number in the full geometry (set*assoc + way), whichever page
// holds it; empty lines carry no state (Invalidate zeroes them), so
// exports are sparse — an icache that has only seen a loader touch a
// fraction of its 4096 lines serialises just that fraction, and importing
// it allocates only the pages those lines sit on.
type LineState[V any] struct {
	Index uint32
	Key   uint64
	Value V
	Stamp uint64
}

// Validate reports whether the configuration can construct a cache, using
// the same rules New enforces by panic. Importers of untrusted state call
// this first so a corrupt image fails with an error instead of a panic.
func (c Config) Validate() error {
	_, _, err := c.normalize()
	return err
}

// Export returns the LRU clock and every held line in set-major order:
// it walks the pages in index order, so each line's Index is its line
// number in the full geometry. Together with Config and Stats this is the
// cache's complete observable state.
func (c *Cache[V]) Export() (clock uint64, lines []LineState[V]) {
	for p, pg := range c.pages {
		base := p << c.pageShift
		for i := range pg {
			if ln := &pg[i]; ln.stamp != 0 {
				lines = append(lines, LineState[V]{Index: uint32(base + i), Key: ln.key, Value: ln.value, Stamp: ln.stamp})
			}
		}
	}
	return c.clock, lines
}

// Import rebuilds a cache from exported state. Line indexes must be
// strictly increasing (as Export emits them) and within the geometry, and
// every stamp must lie in 1..clock: a stamp of 0 would read as an empty
// line, and one past the clock would rank a loaded line younger than the
// next access, so the loaded cache would evict differently from the one
// that was saved. mapVal, when non-nil, rewrites each line's value into
// the importer's object graph (the image loader uses it to swap method
// indexes back to method pointers).
func Import[V any](cfg Config, stats Stats, clock uint64, lines []LineState[V], mapVal func(V) (V, error)) (*Cache[V], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := New[V](cfg)
	last := -1
	for _, ls := range lines {
		if int(ls.Index) <= last || int(ls.Index) >= cfg.Entries {
			return nil, fmt.Errorf("cache: line index %d out of order or beyond %d lines", ls.Index, cfg.Entries)
		}
		if ls.Stamp == 0 || ls.Stamp > clock {
			return nil, fmt.Errorf("cache: line %d has stamp %d outside 1..%d", ls.Index, ls.Stamp, clock)
		}
		last = int(ls.Index)
		v := ls.Value
		if mapVal != nil {
			var err error
			if v, err = mapVal(v); err != nil {
				return nil, err
			}
		}
		i := uint64(ls.Index)
		c.page(i >> c.pageShift)[i&c.pageMask] = Line[V]{key: ls.Key, value: v, stamp: ls.Stamp}
	}
	c.clock = clock
	c.Stats = stats
	return c, nil
}
