package cache

import (
	"reflect"
	"strings"
	"testing"
)

// allocatedPages counts the pages a cache has allocated.
func allocatedPages[V any](c *Cache[V]) int {
	n := 0
	for _, pg := range c.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// TestReadProbesAllocateNothing: Lookup, LookupLine, Peek and Invalidate
// on sets whose page was never written miss without allocating, and
// still count what a probe counts.
func TestReadProbesAllocateNothing(t *testing.T) {
	c := New[struct{}](Config{Entries: 4096, Assoc: 1, HashSets: true})
	key := uint64(0)
	probes := map[string]func(){
		"Lookup":     func() { c.Lookup(key) },
		"LookupLine": func() { c.LookupLine(key) },
		"Peek":       func() { c.Peek(key) },
		"Invalidate": func() { c.Invalidate(key) },
	}
	for name, probe := range probes {
		if a := testing.AllocsPerRun(100, func() { key++; probe() }); a != 0 {
			t.Errorf("%s on an untouched set: %v allocs, want 0", name, a)
		}
	}
	if n := allocatedPages(c); n != 0 {
		t.Fatalf("read probes allocated %d pages", n)
	}
	if c.Stats.Hits != 0 || c.Stats.Misses == 0 {
		t.Fatalf("stats after missing probes = %+v", c.Stats)
	}
}

// TestPageGeometry: a page holds pageLines lines, or a whole set when the
// associativity is larger, so a set never straddles two pages, and a
// fully associative cache is one page.
func TestPageGeometry(t *testing.T) {
	for _, tc := range []struct {
		cfg         Config
		pages, per  int
		fillOneSet  int
		description string
	}{
		{Config{Entries: 4096, Assoc: 1}, 64, pageLines, 1, "direct mapped"},
		{Config{Entries: 32, Assoc: 2}, 1, 32, 2, "smaller than a page"},
		{Config{Entries: 512, Assoc: 128}, 4, 128, 128, "sets wider than a page"},
		{Config{Entries: 256, Assoc: 0}, 1, 256, 256, "fully associative"},
	} {
		c := New[int](tc.cfg)
		if len(c.pages) != tc.pages || int(c.pageMask)+1 != tc.per {
			t.Errorf("%s: %d pages of %d lines, want %d of %d", tc.description, len(c.pages), c.pageMask+1, tc.pages, tc.per)
		}
		// Unhashed keys k*Sets() all index set 0: its ways fill without
		// an eviction, whatever page boundary lies near them.
		for k := 0; k < tc.fillOneSet; k++ {
			if _, _, ev := c.Insert(uint64(k*c.Sets()), k); ev {
				t.Fatalf("%s: insert %d of %d into one set evicted", tc.description, k, tc.fillOneSet)
			}
		}
		if c.Len() != tc.fillOneSet || allocatedPages(c) != 1 {
			t.Errorf("%s: %d lines on %d pages, want %d on 1", tc.description, c.Len(), allocatedPages(c), tc.fillOneSet)
		}
	}
}

// TestLinePointersStayPut: a *Line from TouchLine or InsertLine stays the
// line holding its key while other pages are allocated, and HitLine on it
// reports false once Flush or InvalidateIf has emptied it.
func TestLinePointersStayPut(t *testing.T) {
	for _, how := range []string{"Flush", "InvalidateIf"} {
		c := New[int](Config{Entries: 4096, Assoc: 2})
		touched, _ := c.TouchLine(1)
		inserted := c.InsertLine(2, 20)
		// Unhashed keys 64*k (k >= 1) index sets 64, 128, ...: each
		// lies on a page of its own, away from keys 1 and 2's page.
		for k := uint64(1); k < 32; k++ {
			c.Insert(64*k, int(k))
		}
		if n := allocatedPages(c); n != 32 {
			t.Fatalf("%d pages allocated, want 32", n)
		}
		for _, tc := range []struct {
			ln  *Line[int]
			key uint64
		}{{touched, 1}, {inserted, 2}} {
			if _, held, ok := c.LookupLine(tc.key); !ok || held != tc.ln {
				t.Fatalf("key %d moved off the line first answered for it", tc.key)
			}
			if _, ok := c.HitLine(tc.ln, tc.key); !ok {
				t.Fatalf("HitLine on key %d's line missed", tc.key)
			}
		}
		if how == "Flush" {
			c.Flush()
		} else {
			c.InvalidateIf(func(uint64, int) bool { return true })
		}
		if _, ok := c.HitLine(touched, 1); ok {
			t.Errorf("%s: HitLine on a touched line hit after clearing", how)
		}
		if _, ok := c.HitLine(inserted, 2); ok {
			t.Errorf("%s: HitLine on an inserted line hit after clearing", how)
		}
		if n := allocatedPages(c); n != 32 {
			t.Errorf("%s: %d pages allocated after clearing, want 32 kept", how, n)
		}
	}
}

// TestExportImportAcrossPages: Import of an Export whose lines spread
// over several pages rebuilds a cache that exports exactly the same
// state and holds only the pages those lines sit on.
func TestExportImportAcrossPages(t *testing.T) {
	cfg := Config{Entries: 1024, Assoc: 4, HashSets: true}
	c := New[int](cfg)
	for k := uint64(0); k < 300; k++ {
		c.Insert(k*977, int(k))
	}
	for k := uint64(0); k < 300; k += 3 {
		c.Lookup(k * 977)
	}
	clock, lines := c.Export()
	pages := map[uint32]bool{}
	for _, ls := range lines {
		pages[ls.Index/pageLines] = true
	}
	if len(pages) < 2 {
		t.Fatalf("export covers %d pages, want several", len(pages))
	}
	nc, err := Import(cfg, c.Stats, clock, lines, nil)
	if err != nil {
		t.Fatal(err)
	}
	clock2, lines2 := nc.Export()
	if clock2 != clock || !reflect.DeepEqual(lines2, lines) || nc.Stats != c.Stats {
		t.Fatal("re-export of an imported cache differs from the export it was imported from")
	}
	if n := allocatedPages(nc); n != len(pages) {
		t.Fatalf("import allocated %d pages for lines on %d", n, len(pages))
	}
}

// TestImportRefusesBadIndexes: Import refuses a line index at or past
// Entries, and indexes not strictly increasing.
func TestImportRefusesBadIndexes(t *testing.T) {
	cfg := Config{Entries: 256, Assoc: 2}
	for name, lines := range map[string][]LineState[int]{
		"at Entries":   {{Index: 1, Stamp: 1}, {Index: 256, Stamp: 2}},
		"past Entries": {{Index: 1000, Stamp: 1}},
		"repeated":     {{Index: 70, Stamp: 1}, {Index: 70, Stamp: 2}},
		"descending":   {{Index: 130, Stamp: 1}, {Index: 3, Stamp: 2}},
	} {
		_, err := Import(cfg, Stats{}, 5, lines, nil)
		if err == nil || !strings.Contains(err.Error(), "out of order or beyond") {
			t.Errorf("%s: err = %v, want an index refusal", name, err)
		}
	}
}
