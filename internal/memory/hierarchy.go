package memory

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
)

// Level describes one storage device of physical space. Per §3.1, "each
// storage device is treated as a cache in which frequently accessed
// portions of absolute space may be stored", mapped by hashing as in a
// conventional set associative cache, so the page table size is a function
// of the device size and places no limit on absolute space.
type Level struct {
	Name       string
	Entries    int // number of blocks
	Assoc      int
	BlockWords int // words per block; must be a power of two
	Penalty    int // cycles charged when this level misses and the next is consulted
}

// HierarchyStats aggregates access counts per level.
type HierarchyStats struct {
	Accesses uint64
	Cycles   uint64
}

// Hierarchy is the absolute→physical translation machinery: an ordered
// list of devices, fastest first, ending in a backing store that always
// hits. Data itself lives in the Space; the hierarchy accounts residency
// and cycle costs only, exactly the role physical space plays in the paper.
type Hierarchy struct {
	levels []*hlevel
	Stats  HierarchyStats
}

type hlevel struct {
	Level
	shift uint
	c     *cache.Cache[struct{}]
}

// Validate reports a level geometry a hierarchy cannot be built from.
func (lv Level) Validate() error {
	if lv.BlockWords <= 0 || lv.BlockWords&(lv.BlockWords-1) != 0 {
		return fmt.Errorf("memory: block size %d not a power of two", lv.BlockWords)
	}
	return lv.cacheConfig().Validate()
}

func (lv Level) cacheConfig() cache.Config {
	return cache.Config{Entries: lv.Entries, Assoc: lv.Assoc, HashSets: true}
}

// newHLevel pairs a validated level with its residency cache.
func newHLevel(lv Level, c *cache.Cache[struct{}]) *hlevel {
	return &hlevel{Level: lv, shift: uint(bits.TrailingZeros(uint(lv.BlockWords))), c: c}
}

// NewHierarchy builds a hierarchy from the given levels, panicking on a
// geometry Validate refuses. An empty level list yields a flat memory
// with zero-cost accesses.
func NewHierarchy(levels ...Level) *Hierarchy {
	h := &Hierarchy{}
	for _, lv := range levels {
		if err := lv.Validate(); err != nil {
			panic(err)
		}
		h.levels = append(h.levels, newHLevel(lv, cache.New[struct{}](lv.cacheConfig())))
	}
	return h
}

// Access charges one reference to the absolute address: each level is
// offered the address in turn, and every miss adds that level's penalty
// before the next level is consulted. The returned value is the total
// cycles beyond the base (hit-in-first-level) cost.
func (h *Hierarchy) Access(a AbsAddr) int {
	h.Stats.Accesses++
	cycles := 0
	for _, lv := range h.levels {
		key := uint64(a) >> lv.shift
		if lv.c.Touch(key) {
			break
		}
		cycles += lv.Penalty
	}
	h.Stats.Cycles += uint64(cycles)
	return cycles
}

// LevelStats returns the per-level cache statistics, fastest first.
func (h *Hierarchy) LevelStats() []cache.Stats {
	out := make([]cache.Stats, len(h.levels))
	for i, lv := range h.levels {
		out[i] = lv.c.Stats
	}
	return out
}

// LevelNames returns the configured level names, fastest first.
func (h *Hierarchy) LevelNames() []string {
	out := make([]string, len(h.levels))
	for i, lv := range h.levels {
		out[i] = lv.Name
	}
	return out
}

// ResetStats clears all counters, e.g. after warmup.
func (h *Hierarchy) ResetStats() {
	h.Stats = HierarchyStats{}
	for _, lv := range h.levels {
		lv.c.ResetStats()
	}
}
