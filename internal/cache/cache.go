// Package cache implements the set-associative, LRU-replaced lookaside
// structure used throughout the COM: the ITLB (§2.1), the ATLB (§3.1), the
// instruction cache, and the trace-driven cache simulations of §5 all share
// this model.
//
// A cache is organised as Entries/Assoc sets of Assoc lines each: way w
// of set s is line s*Assoc + w. Keys are opaque 64-bit values; the set
// index is derived from a mixed hash of the key so that structured keys
// (opcode×class, segment names, instruction addresses) spread evenly,
// mirroring the hashed associative memories the paper assumes.
//
// The lines are held in fixed-size pages of pageLines lines, or of Assoc
// lines when the associativity is larger, so a set never straddles two
// pages and a fully associative cache is one page. A page is allocated by
// the first write into it (TouchLine, Insert, InsertLine, Import); a read
// probe of an unallocated page misses without allocating. A cache's host
// footprint therefore follows the sets its traffic touches, while every
// modelled hit, miss, victim and stamp is that of the full geometry. A
// page is never freed or moved: Flush and the invalidations clear lines
// in place.
//
// A line carries no valid bit: it is empty exactly when its recency stamp
// is 0. Every placement and hit advances the LRU clock before stamping, so
// a held line's stamp is at least 1, and every invalidation and flush
// zeroes the whole line.
package cache

import (
	"fmt"
	"math/bits"
)

// Config sizes a cache.
type Config struct {
	// Entries is the total number of lines. It must be a power of two.
	Entries int
	// Assoc is the set associativity. 1 is direct mapped. Values of
	// Entries or larger (or <= 0) mean fully associative.
	Assoc int
	// HashSets selects hashed set indexing. When false, the set index is
	// taken from the low bits of the key directly — the behaviour of a
	// conventional direct-mapped hardware cache indexed by address.
	HashSets bool
}

func (c Config) normalize() (sets, assoc int, err error) {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
		return 0, 0, fmt.Errorf("cache: entries must be a positive power of two, got %d", c.Entries)
	}
	assoc = c.Assoc
	if assoc <= 0 || assoc > c.Entries {
		assoc = c.Entries
	}
	if c.Entries%assoc != 0 {
		return 0, 0, fmt.Errorf("cache: entries %d not divisible by associativity %d", c.Entries, assoc)
	}
	return c.Entries / assoc, assoc, nil
}

// Stats accumulates the outcome of every access.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Inserts   uint64
	Flushes   uint64
}

// Accesses returns the total number of lookups performed.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRatio returns hits over accesses, or 0 when empty.
func (s Stats) HitRatio() float64 {
	t := s.Accesses()
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// Line is one cache line. Lines are exposed (opaquely) so that callers can
// hold stable references to them: a page, once allocated, is never freed
// or moved, so a *Line taken from LookupLine, TouchLine or InsertLine
// stays valid for the cache's lifetime and can back an inline cache in
// front of the associative probe (see HitLine). All fields stay private;
// a line's contents are only reachable through cache methods. A stamp of
// 0 marks the line empty.
type Line[V any] struct {
	key   uint64
	value V
	stamp uint64
}

// pageLines is the line count of a page when the associativity is at
// most that: 1 KiB of struct{} lines.
const pageLines = 64

// Cache is a set-associative cache mapping uint64 keys to values of type V.
// The zero value is not usable; construct with New.
type Cache[V any] struct {
	cfg Config
	// pages holds line i at pages[i>>pageShift][i&pageMask]; a nil page
	// has never been written, and all its lines are empty.
	pages     [][]Line[V]
	pageShift uint   // log2(lines per page)
	pageMask  uint64 // lines per page - 1
	mask      uint64 // sets - 1
	shift     uint   // log2(assoc)
	clock     uint64
	Stats     Stats
}

// New builds a cache from the configuration, every line empty and no page
// allocated. It panics on an invalid configuration, which is always a
// programming error in this codebase.
func New[V any](cfg Config) *Cache[V] {
	sets, assoc, err := cfg.normalize()
	if err != nil {
		panic(err)
	}
	per := min(max(pageLines, assoc), cfg.Entries)
	return &Cache[V]{
		cfg:       cfg,
		pages:     make([][]Line[V], cfg.Entries/per),
		pageShift: uint(bits.TrailingZeros(uint(per))),
		pageMask:  uint64(per - 1),
		mask:      uint64(sets - 1),
		shift:     uint(bits.TrailingZeros(uint(assoc))),
	}
}

// Entries returns the total line count.
func (c *Cache[V]) Entries() int { return c.cfg.Entries }

// Config returns the configuration the cache was built with.
func (c *Cache[V]) Config() Config { return c.cfg }

// Assoc returns the effective associativity.
func (c *Cache[V]) Assoc() int { return 1 << c.shift }

// Sets returns the number of sets.
func (c *Cache[V]) Sets() int { return int(c.mask) + 1 }

// mix is a 64-bit finalizer (splitmix64) giving structured keys a uniform
// set distribution.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// place returns the index of the key's set's first line. Associativity
// is a power of two (it divides the power-of-two Entries), so that line
// is a shift away from the set index.
func (c *Cache[V]) place(key uint64) uint64 {
	idx := key
	if c.cfg.HashSets {
		idx = mix(key)
	}
	return (idx & c.mask) << c.shift
}

// setFor returns the lines of the key's set for a read probe: nil when
// the set's page was never written, which holds only empty lines.
func (c *Cache[V]) setFor(key uint64) []Line[V] {
	first := c.place(key)
	pg := c.pages[first>>c.pageShift]
	if pg == nil {
		return nil
	}
	lo := first & c.pageMask
	hi := lo + 1<<c.shift
	return pg[lo:hi:hi]
}

// setForWrite is setFor for a placement: it allocates the set's page on
// the first write into it.
func (c *Cache[V]) setForWrite(key uint64) []Line[V] {
	first := c.place(key)
	pg := c.page(first >> c.pageShift)
	lo := first & c.pageMask
	hi := lo + 1<<c.shift
	return pg[lo:hi:hi]
}

// page returns page p, allocating it if it was never written.
func (c *Cache[V]) page(p uint64) []Line[V] {
	pg := c.pages[p]
	if pg == nil {
		pg = make([]Line[V], c.pageMask+1)
		c.pages[p] = pg
	}
	return pg
}

// Lookup probes the cache. On a hit it refreshes the line's recency and
// returns the value. Statistics are updated either way.
func (c *Cache[V]) Lookup(key uint64) (V, bool) {
	v, _, ok := c.LookupLine(key)
	return v, ok
}

// Peek probes without touching statistics or recency. It exists for
// diagnostics and tests.
func (c *Cache[V]) Peek(key uint64) (V, bool) {
	set := c.setFor(key)
	for i := range set {
		if set[i].key == key && set[i].stamp != 0 {
			return set[i].value, true
		}
	}
	var zero V
	return zero, false
}

// Insert places a key/value pair, evicting the LRU line of the set when
// full. It returns the evicted key and value, if any.
func (c *Cache[V]) Insert(key uint64, v V) (evictedKey uint64, evictedVal V, evicted bool) {
	if _, old := c.insert(key, v); old.stamp != 0 {
		return old.key, old.value, true
	}
	return 0, evictedVal, false
}

// insert places a key/value pair in one scan of its set, as TouchLine
// probes: a line already holding the key, wherever it sits in the set,
// takes the new value; otherwise the victim is the first empty line,
// else the least recently used one. It answers the line now holding the
// key and the other key's line it displaced (stamp 0 when none was).
func (c *Cache[V]) insert(key uint64, v V) (*Line[V], Line[V]) {
	set := c.setForWrite(key)
	c.clock++
	c.Stats.Inserts++
	victim := 0
	for i := range set {
		if set[i].key == key && set[i].stamp != 0 {
			set[i].value = v
			set[i].stamp = c.clock
			return &set[i], Line[V]{}
		}
		if set[i].stamp < set[victim].stamp {
			victim = i
		}
	}
	old := set[victim]
	if old.stamp != 0 {
		c.Stats.Evictions++
	}
	set[victim] = Line[V]{key: key, value: v, stamp: c.clock}
	return &set[victim], old
}

// Touch performs the standard cache-simulation access: look up the key,
// and on a miss insert it. It returns whether the access hit. This is the
// single operation driving the trace simulations of §5.
func (c *Cache[V]) Touch(key uint64) bool {
	_, hit := c.TouchLine(key)
	return hit
}

// TouchLine is Touch returning also the line now holding the key, so the
// caller can service later accesses to the same key through HitLine
// without re-probing the set.
//
// It probes the set once: the scan that detects the hit also selects the
// victim — the first empty line, else the least recently used one (an
// empty line's stamp of 0 ranks below every held line's) — so a miss does
// not re-hash and re-scan the same set the way a Lookup-then-Insert pair
// would. Counters advance exactly as that pair would advance them (hit:
// Hits; miss: Misses, Inserts, and Evictions when a held line is
// displaced), and the relative recency order — all the LRU replacement
// ever consults — is identical.
func (c *Cache[V]) TouchLine(key uint64) (*Line[V], bool) {
	set := c.setForWrite(key)
	c.clock++
	victim := 0
	for i := range set {
		if set[i].key == key && set[i].stamp != 0 {
			set[i].stamp = c.clock
			c.Stats.Hits++
			return &set[i], true
		}
		if set[i].stamp < set[victim].stamp {
			victim = i
		}
	}
	c.Stats.Misses++
	c.Stats.Inserts++
	if set[victim].stamp != 0 {
		c.Stats.Evictions++
	}
	set[victim] = Line[V]{key: key, stamp: c.clock}
	return &set[victim], false
}

// LookupLine is Lookup returning also a stable reference to the hit line.
// Pages never move, so the pointer stays valid for the cache's lifetime;
// pair it with HitLine to build an inline cache in front of the
// associative probe.
func (c *Cache[V]) LookupLine(key uint64) (V, *Line[V], bool) {
	set := c.setFor(key)
	c.clock++
	for i := range set {
		if set[i].key == key && set[i].stamp != 0 {
			set[i].stamp = c.clock
			c.Stats.Hits++
			return set[i].value, &set[i], true
		}
	}
	c.Stats.Misses++
	var zero V
	return zero, nil, false
}

// InsertLine is Insert returning the line now holding the key (and
// discarding the eviction report).
func (c *Cache[V]) InsertLine(key uint64, v V) *Line[V] {
	ln, _ := c.insert(key, v)
	return ln
}

// HitLine replays the hit bookkeeping on a line previously returned by
// LookupLine, TouchLine or InsertLine, provided the line still caches the
// given key. On a match it performs exactly what Lookup performs on a hit
// — clock advance, recency stamp, Hits counter — without hashing or
// scanning the set; modelled statistics and future replacement decisions
// are therefore indistinguishable from a full probe. When the line has
// been evicted or rebound the call does nothing and reports false, and the
// caller falls back to the associative path (which then counts the access).
func (c *Cache[V]) HitLine(ln *Line[V], key uint64) (V, bool) {
	if ln.key != key || ln.stamp == 0 {
		var zero V
		return zero, false
	}
	c.clock++
	ln.stamp = c.clock
	c.Stats.Hits++
	return ln.value, true
}

// Invalidate removes a key if present and reports whether it was found.
func (c *Cache[V]) Invalidate(key uint64) bool {
	set := c.setFor(key)
	for i := range set {
		if set[i].key == key && set[i].stamp != 0 {
			set[i] = Line[V]{}
			return true
		}
	}
	return false
}

// InvalidateIf removes every line whose value fails the keep predicate.
// It is used when segment descriptors are rebound (object growth aliasing).
func (c *Cache[V]) InvalidateIf(drop func(key uint64, v V) bool) int {
	n := 0
	for _, pg := range c.pages {
		for i := range pg {
			if ln := &pg[i]; ln.stamp != 0 && drop(ln.key, ln.value) {
				*ln = Line[V]{}
				n++
			}
		}
	}
	return n
}

// Flush empties the cache but keeps statistics. Its pages stay allocated.
func (c *Cache[V]) Flush() {
	for _, pg := range c.pages {
		clear(pg)
	}
	c.Stats.Flushes++
}

// ResetStats zeroes the statistics, e.g. after a warmup trace (§5 runs a
// warmup trace before the measurement trace).
func (c *Cache[V]) ResetStats() { c.Stats = Stats{} }

// Len returns the number of lines currently held.
func (c *Cache[V]) Len() int {
	n := 0
	for _, pg := range c.pages {
		for i := range pg {
			if pg[i].stamp != 0 {
				n++
			}
		}
	}
	return n
}
