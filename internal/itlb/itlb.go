// Package itlb implements the instruction translation lookaside buffer of
// §2.1: the associative memory that turns an abstract instruction — an
// opcode plus the classes of its operands — into either a primitive
// function-unit selection or a method pointer.
//
// Each entry corresponds to a unique method and has three fields: the key
// (opcode and operand classes), the primitive bit, and the method field.
// On a miss, an instruction descriptor is pulled in from the appropriate
// message dictionary via the standard method lookup — the costly step the
// ITLB exists to amortise.
package itlb

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/object"
	"repro/internal/word"
)

// Key identifies an abstract instruction: the opcode together with the
// classes of the dispatching operands. Control opcodes use zero classes.
type Key struct {
	Op isa.Opcode
	B  word.Class // receiver operand class
	C  word.Class // second operand class
}

// Pack flattens the key for the associative memory.
func (k Key) Pack() uint64 {
	return uint64(k.Op)<<32 | uint64(k.B)<<16 | uint64(k.C)
}

// String renders the key for diagnostics.
func (k Key) String() string {
	return fmt.Sprintf("%s(%d,%d)", k.Op.Name(), k.B, k.C)
}

// Entry is an ITLB entry body: the primitive bit and the method field.
// When Primitive is set, the method field selects the result of a function
// unit (represented by the opcode plus the primitive id); otherwise it
// points at the code defining the method.
type Entry struct {
	Primitive bool
	PrimID    object.PrimID
	Method    *object.Method
}

// Stats extends the cache counters with miss-path accounting.
type Stats struct {
	LookupCycles uint64 // cycles spent in full method lookup on misses
	Failures     uint64 // lookups that found no method (doesNotUnderstand)
}

// Config sizes the buffer. The paper's headline configuration is 512
// entries, 2-way set associative, which achieved a 99% hit ratio.
type Config struct {
	Entries int
	Assoc   int
}

// DefaultConfig is the paper's 512-entry 2-way ITLB.
var DefaultConfig = Config{Entries: 512, Assoc: 2}

// ITLB is the instruction translation lookaside buffer.
type ITLB struct {
	c     *cache.Cache[Entry]
	Stats Stats
}

// New builds an ITLB.
func New(cfg Config) *ITLB {
	if cfg.Entries == 0 {
		cfg = DefaultConfig
	}
	return &ITLB{c: cache.New[Entry](cfg.cacheConfig())}
}

func (cfg Config) cacheConfig() cache.Config {
	return cache.Config{Entries: cfg.Entries, Assoc: cfg.Assoc, HashSets: true}
}

// CacheStats exposes hit/miss counters.
func (t *ITLB) CacheStats() cache.Stats { return t.c.Stats }

// HitRatio returns the buffer's hit ratio so far.
func (t *ITLB) HitRatio() float64 { return t.c.Stats.HitRatio() }

// Translate resolves a key. On a miss it calls miss, which performs the
// full method lookup and returns the entry plus the cycles the lookup
// cost; the entry is then cached. The returned bool reports a hit.
// A nil error with a zero entry never occurs: failed lookups return an
// error from miss, are counted, and are not cached.
func (t *ITLB) Translate(key Key, miss func() (Entry, int, error)) (Entry, bool, error) {
	if e, _, ok := t.LookupLine(key); ok {
		return e, true, nil
	}
	e, cycles, err := miss()
	if t.FillMiss(key, e, cycles, err) == nil {
		return Entry{}, false, err
	}
	return e, false, nil
}

// Line is a stable reference to one ITLB line, the token a per-site inline
// cache holds. See cache.Line.
type Line = cache.Line[Entry]

// LookupLine probes the buffer and, on a hit, also returns the line
// holding the translation so the call site can cache it. Statistics and
// recency advance exactly as Translate's probe would advance them.
func (t *ITLB) LookupLine(key Key) (Entry, *Line, bool) {
	return t.c.LookupLine(key.Pack())
}

// HitLine services a translation through a line previously returned by
// LookupLine or FillMiss, provided the line still caches the packed key.
// A successful HitLine is accounting-identical to a Translate hit; a false
// return did not touch any counter, and the caller must fall back to
// LookupLine (which then counts the access). This is the fast path behind
// the interpreter's per-site inline caches: one pointer chase and one
// compare instead of hash, set scan and key match.
func (t *ITLB) HitLine(ln *Line, packed uint64) (Entry, bool) {
	return t.c.HitLine(ln, packed)
}

// FillMiss records the outcome of the full method lookup run after
// LookupLine missed: the lookup cycles are charged, failures counted, and
// successful translations cached. It returns the line now holding the
// entry, nil when the lookup failed. Translate is LookupLine+miss+FillMiss
// in one call; split callers get the line for their inline caches.
func (t *ITLB) FillMiss(key Key, e Entry, cycles int, lookupErr error) *Line {
	t.Stats.LookupCycles += uint64(cycles)
	if lookupErr != nil {
		t.Stats.Failures++
		return nil
	}
	return t.c.InsertLine(key.Pack(), e)
}

// Preload inserts an entry without going through the miss path, used by
// tests and by the loader when warming the machine deterministically.
func (t *ITLB) Preload(key Key, e Entry) { t.c.Insert(key.Pack(), e) }

// Flush empties the buffer (the context cache never needs this on process
// switch, but the ITLB does when methods are redefined).
func (t *ITLB) Flush() { t.c.Flush() }

// InvalidateMethod drops every entry resolving to the given method, used
// when a method is redefined — the paper's smooth extensibility means no
// object code changes, only translations.
func (t *ITLB) InvalidateMethod(m *object.Method) int {
	return t.c.InvalidateIf(func(_ uint64, e Entry) bool { return e.Method == m })
}

// ResetStats clears counters after warmup.
func (t *ITLB) ResetStats() {
	t.c.ResetStats()
	t.Stats = Stats{}
}
