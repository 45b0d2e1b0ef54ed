package cache

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Entries: 0, Assoc: 1},
		{Entries: -8, Assoc: 1},
		{Entries: 12, Assoc: 1}, // not a power of two
		{Entries: 8, Assoc: 3},  // not divisible
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New[int](cfg)
		}()
	}
}

func TestGeometry(t *testing.T) {
	c := New[int](Config{Entries: 64, Assoc: 4})
	if c.Entries() != 64 || c.Assoc() != 4 || c.Sets() != 16 {
		t.Fatalf("geometry = %d/%d/%d", c.Entries(), c.Assoc(), c.Sets())
	}
	full := New[int](Config{Entries: 16, Assoc: 0})
	if full.Assoc() != 16 || full.Sets() != 1 {
		t.Fatalf("fully associative geometry = %d/%d", full.Assoc(), full.Sets())
	}
	over := New[int](Config{Entries: 16, Assoc: 32})
	if over.Assoc() != 16 {
		t.Fatalf("over-associative clamps to %d", over.Assoc())
	}
}

func TestLookupInsert(t *testing.T) {
	c := New[string](Config{Entries: 8, Assoc: 2, HashSets: true})
	if _, ok := c.Lookup(1); ok {
		t.Fatal("hit in empty cache")
	}
	c.Insert(1, "one")
	v, ok := c.Lookup(1)
	if !ok || v != "one" {
		t.Fatalf("Lookup(1) = %q,%v", v, ok)
	}
	c.Insert(1, "uno")
	if v, _ := c.Lookup(1); v != "uno" {
		t.Fatalf("reinsert did not update: %q", v)
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// Direct construction of a fully-associative 2-entry cache makes LRU
	// order observable without knowing the set hash.
	c := New[int](Config{Entries: 2, Assoc: 0})
	c.Insert(10, 1)
	c.Insert(20, 2)
	c.Lookup(10) // 20 becomes LRU
	k, _, ev := c.Insert(30, 3)
	if !ev || k != 20 {
		t.Fatalf("evicted %d (ev=%v), want 20", k, ev)
	}
	if _, ok := c.Peek(10); !ok {
		t.Error("recently used key evicted")
	}
	if _, ok := c.Peek(20); ok {
		t.Error("LRU key survived")
	}
}

func TestTouchSimulatesMissInsert(t *testing.T) {
	c := New[struct{}](Config{Entries: 4, Assoc: 0})
	if c.Touch(7) {
		t.Fatal("first touch hit")
	}
	if !c.Touch(7) {
		t.Fatal("second touch missed")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	if c.Stats.HitRatio() != 0.5 {
		t.Fatalf("hit ratio = %v", c.Stats.HitRatio())
	}
}

func TestPeekDoesNotPerturb(t *testing.T) {
	c := New[int](Config{Entries: 2, Assoc: 0})
	c.Insert(1, 1)
	c.Insert(2, 2)
	before := c.Stats
	c.Peek(1)
	c.Peek(99)
	if c.Stats != before {
		t.Fatal("Peek changed statistics")
	}
	// Peek must not refresh recency: 1 is still LRU and gets evicted.
	c.Insert(3, 3)
	if _, ok := c.Peek(1); ok {
		t.Error("Peek refreshed recency of key 1")
	}
}

func TestInvalidate(t *testing.T) {
	c := New[int](Config{Entries: 8, Assoc: 2})
	c.Insert(5, 50)
	if !c.Invalidate(5) {
		t.Fatal("Invalidate missed present key")
	}
	if c.Invalidate(5) {
		t.Fatal("Invalidate found absent key")
	}
	if _, ok := c.Peek(5); ok {
		t.Fatal("key present after invalidate")
	}
}

// TestInsertFindsKeyPastEmptyLine: a re-insert of a key held in a later
// way than an empty one updates that line instead of placing a second
// copy, so an Invalidate afterwards leaves no stale hit behind. Insert
// and InsertLine both go this way.
func TestInsertFindsKeyPastEmptyLine(t *testing.T) {
	for _, name := range []string{"Insert", "InsertLine"} {
		c := New[int](Config{Entries: 2, Assoc: 2})
		c.Insert(1, 11)
		c.Insert(2, 2)
		c.Invalidate(1) // way 0 is now empty, key 2 sits in way 1
		_, held, _ := c.LookupLine(2)
		if name == "Insert" {
			if _, _, evicted := c.Insert(2, 22); evicted {
				t.Errorf("%s: re-inserting a held key evicted a line", name)
			}
		} else if ln := c.InsertLine(2, 22); ln != held {
			t.Errorf("%s: answered a line other than the one holding key 2", name)
		}
		if n := c.Len(); n != 1 {
			t.Errorf("%s: Len = %d after re-inserting a held key, want 1", name, n)
		}
		if v, ok := c.Peek(2); !ok || v != 22 {
			t.Errorf("%s: Peek(2) = %d, %v; want 22", name, v, ok)
		}
		c.Invalidate(2)
		if v, ok := c.Peek(2); ok {
			t.Errorf("%s: Peek(2) hit a stale %d after Invalidate", name, v)
		}
	}
}

func TestInvalidateIf(t *testing.T) {
	c := New[int](Config{Entries: 8, Assoc: 0})
	for i := 0; i < 6; i++ {
		c.Insert(uint64(i), i)
	}
	n := c.InvalidateIf(func(_ uint64, v int) bool { return v%2 == 0 })
	if n != 3 {
		t.Fatalf("dropped %d lines, want 3", n)
	}
	for i := 0; i < 6; i++ {
		_, ok := c.Peek(uint64(i))
		if want := i%2 == 1; ok != want {
			t.Errorf("key %d present=%v, want %v", i, ok, want)
		}
	}
}

func TestFlushAndResetStats(t *testing.T) {
	c := New[int](Config{Entries: 4, Assoc: 2})
	c.Insert(1, 1)
	c.Insert(2, 2)
	c.Flush()
	if c.Len() != 0 {
		t.Fatalf("Len after flush = %d", c.Len())
	}
	if c.Stats.Flushes != 1 {
		t.Fatalf("flush count = %d", c.Stats.Flushes)
	}
	c.Lookup(1)
	c.ResetStats()
	if c.Stats.Accesses() != 0 {
		t.Fatal("ResetStats left accesses")
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	// With unhashed low-bit indexing, keys 0 and 8 collide in an
	// 8-set direct-mapped cache while 0 and 1 do not.
	c := New[int](Config{Entries: 8, Assoc: 1})
	c.Insert(0, 0)
	c.Insert(8, 8)
	if _, ok := c.Peek(0); ok {
		t.Error("conflicting key survived in direct-mapped set")
	}
	c.Insert(1, 1)
	if _, ok := c.Peek(8); !ok {
		t.Error("non-conflicting insert evicted other set")
	}
}

func TestAssociativityReducesConflicts(t *testing.T) {
	// The same conflicting pair coexists in a 2-way cache of equal size.
	c := New[int](Config{Entries: 8, Assoc: 2})
	c.Insert(0, 0)
	c.Insert(8, 8)
	if _, ok := c.Peek(0); !ok {
		t.Error("2-way cache evicted on a 2-key conflict")
	}
	if _, ok := c.Peek(8); !ok {
		t.Error("second key missing")
	}
}

func TestLenCountsValidLines(t *testing.T) {
	c := New[int](Config{Entries: 16, Assoc: 4, HashSets: true})
	for i := 0; i < 10; i++ {
		c.Insert(uint64(i*977), i)
	}
	if got := c.Len(); got < 1 || got > 16 {
		t.Fatalf("Len = %d", got)
	}
}

func TestNeverExceedsCapacityProperty(t *testing.T) {
	prop := func(keys []uint64) bool {
		c := New[struct{}](Config{Entries: 16, Assoc: 2, HashSets: true})
		for _, k := range keys {
			c.Touch(k)
		}
		return c.Len() <= 16
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHitAfterTouchProperty(t *testing.T) {
	// Immediately re-touching a key always hits, for any geometry.
	prop := func(keys []uint64, assocSel uint8) bool {
		assoc := []int{1, 2, 4, 0}[assocSel%4]
		c := New[struct{}](Config{Entries: 32, Assoc: assoc, HashSets: true})
		for _, k := range keys {
			c.Touch(k)
			if !c.Touch(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatsArithmetic(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1}
	if s.Accesses() != 4 {
		t.Fatalf("accesses = %d", s.Accesses())
	}
	if s.HitRatio() != 0.75 {
		t.Fatalf("ratio = %v", s.HitRatio())
	}
	if (Stats{}).HitRatio() != 0 {
		t.Fatal("empty ratio not 0")
	}
}

// TestImportRefusesImpossibleStamps: a held line's stamp lies in 1..clock.
// A stamp of 0 would load as an empty line, and one past the clock would
// outrank the next access, so the loaded cache would evict differently
// from the one that was saved.
func TestImportRefusesImpossibleStamps(t *testing.T) {
	cfg := Config{Entries: 8, Assoc: 2}
	for _, stamp := range []uint64{0, 6} {
		lines := []LineState[int]{
			{Index: 1, Key: 1, Value: 1, Stamp: 3},
			{Index: 4, Key: 2, Value: 2, Stamp: stamp},
		}
		_, err := Import(cfg, Stats{}, 5, lines, nil)
		if err == nil || !strings.Contains(err.Error(), "line 4 ") {
			t.Fatalf("stamp %d of clock 5: err = %v, want a refusal naming line 4", stamp, err)
		}
	}
	lines := []LineState[int]{{Index: 1, Key: 1, Value: 1, Stamp: 1}, {Index: 4, Key: 2, Value: 2, Stamp: 5}}
	if _, err := Import(cfg, Stats{}, 5, lines, nil); err != nil {
		t.Fatalf("stamps 1 and clock refused: %v", err)
	}
}

// TestCloneIsIndependent: a cache rebuilt by Import from another's
// Export has the held lines' values, and only those, mapped, and shares
// no lines with its source.
func TestCloneIsIndependent(t *testing.T) {
	c := New[int](Config{Entries: 8, Assoc: 2})
	c.Insert(1, 10)
	c.Insert(2, 20)
	mapped := 0
	clock, lines := c.Export()
	nc, err := Import(c.Config(), c.Stats, clock, lines, func(v int) (int, error) { mapped++; return v + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := nc.Peek(1); v != 11 || mapped != 2 {
		t.Fatalf("mapped import value = %d after %d calls, want 11 after 2", v, mapped)
	}
	nc.Flush()
	if v, ok := c.Peek(2); !ok || v != 20 {
		t.Fatalf("source after import flush: %d,%v", v, ok)
	}
	if nc.Stats.Inserts != 2 || nc.Len() != 0 {
		t.Fatalf("import stats %+v len %d", nc.Stats, nc.Len())
	}
}
