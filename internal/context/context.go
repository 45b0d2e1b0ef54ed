// Package context implements the COM's hardware context support (§2.3,
// §3.6): the fixed-size context free list, allocated and recycled with a
// single memory reference, and the context cache — a set of fixed-size
// blocks fronted by an associative directory on absolute addresses and four
// access vectors (current, next, free, match).
//
// The three properties the paper claims over register windows and stack
// caches all hold here: blocks need not be contiguous (so non-LIFO contexts
// cache fine), the directory associates on absolute addresses (so no
// invalidation on process switch), and a new context is initialised by
// clearing its block in the cache (so fresh contexts are never faulted in
// and free contexts never cleaned).
package context

import (
	"fmt"
	"math/bits"

	"repro/internal/memory"
	"repro/internal/word"
)

// Fixed context layout (§4 figure 8). Every context is CtxWords long;
// methods needing more than fits allocate extra space from the heap.
const (
	SlotRCP      = 0 // link to the sending context
	SlotRIP      = 1 // return instruction pointer (method + offset)
	SlotResult   = 2 // arg0: where to store the result
	SlotReceiver = 3 // arg1: receiver of the message
	SlotArg2     = 4 // first message argument
	// Further arguments and temporaries follow.

	// DefaultWords is the paper's chosen context length: 32 words.
	DefaultWords = 32
	// DefaultBlocks is the paper's context cache size: 32 blocks, enough
	// that programs "would almost never miss".
	DefaultBlocks = 32
)

// FreeList manages the pool of free contexts. All contexts are the same
// size, so a single free list suffices and allocation or release is one
// memory reference through the hardware FP register (§2.3). We keep the
// list as a stack of segments and charge the single reference per
// operation; the MemoryRefs counter is that charge. Membership is the
// segments' own Pooled flag.
type FreeList struct {
	space *memory.Space
	words int
	free  []*memory.Segment
	class word.Class

	// Stats
	Allocs     uint64
	Recycles   uint64 // allocations served from the free list
	Frees      uint64
	MemoryRefs uint64
}

// NewFreeList creates a free list producing contexts of the given length
// and class in the given space.
func NewFreeList(space *memory.Space, words int, class word.Class) *FreeList {
	if words <= 0 {
		words = DefaultWords
	}
	return &FreeList{space: space, words: words, class: class}
}

// Words returns the fixed context length.
func (f *FreeList) Words() int { return f.words }

// Alloc produces a context segment: from the free list when possible
// (one memory reference), from the heap allocator otherwise. The segment's
// contents are *not* cleared here — clearing happens in the context cache
// block, which is the point of the design.
func (f *FreeList) Alloc() *memory.Segment {
	f.Allocs++
	f.MemoryRefs++
	if n := len(f.free); n > 0 {
		seg := f.free[n-1]
		f.free = f.free[:n-1]
		seg.Pooled = false
		f.Recycles++
		return seg
	}
	return f.space.Alloc(uint64(f.words), f.class, memory.KindContext)
}

// Free pushes a context back on the list with one memory reference.
// Double frees are ignored.
func (f *FreeList) Free(seg *memory.Segment) {
	if seg.Pooled {
		return
	}
	f.Frees++
	f.MemoryRefs++
	f.free = append(f.free, seg)
	seg.Pooled = true
}

// Contains reports whether the segment is currently pooled.
func (f *FreeList) Contains(seg *memory.Segment) bool { return seg.Pooled }

// Len returns the number of contexts waiting on the list.
func (f *FreeList) Len() int { return len(f.free) }

// Stats of the context cache.
type Stats struct {
	Reads     uint64
	Writes    uint64
	Hits      uint64 // directory matches on absolute-address access
	Faults    uint64 // directory misses requiring a block fill from memory
	Clears    uint64 // blocks cleared for newly allocated contexts
	Copybacks uint64 // dirty blocks written back to memory
	Releases  uint64 // staging contexts discarded on LIFO return
}

// Config sizes the context cache.
type Config struct {
	Blocks     int // number of blocks; at most 64
	BlockWords int // words per block = context length
}

// Cache is the context cache. The directory is an associative memory with
// an entry per block holding the absolute address of the cached context;
// the four access vectors are bit vectors selecting blocks.
type Cache struct {
	space  *memory.Space
	blocks [][]word.Word
	dir    []memory.AbsAddr
	segs   []*memory.Segment // segment behind each valid block
	valid  []bool
	dirty  []bool
	lru    []uint64
	clock  uint64

	current uint64 // singleton set: the current context's block
	next    uint64 // singleton set: the next context's block
	freeVec uint64 // set of unused blocks
	match   uint64 // singleton set: last directory match

	// curBlk and nxtBlk mirror the current and next vectors as plain
	// indexes (-1 when the vector is empty), and curW/nxtW mirror the
	// selected blocks' word slices, so the per-instruction operand reads
	// resolve a register-file index instead of running a find-first-set
	// with a singleton check and a double slice load. In hardware the
	// vectors ARE the select lines; the mirrors are the software
	// equivalent. setCur/setNxt keep all four in lockstep.
	curBlk int
	nxtBlk int
	curW   []word.Word
	nxtW   []word.Word

	Stats Stats
}

// NewCache builds a context cache over the given space.
func NewCache(space *memory.Space, cfg Config) *Cache {
	if cfg.Blocks == 0 {
		cfg.Blocks = DefaultBlocks
	}
	if cfg.BlockWords == 0 {
		cfg.BlockWords = DefaultWords
	}
	if cfg.Blocks < 3 || cfg.Blocks > 64 {
		panic(fmt.Sprintf("context: block count %d outside 3..64", cfg.Blocks))
	}
	c := &Cache{
		space:  space,
		blocks: make([][]word.Word, cfg.Blocks),
		dir:    make([]memory.AbsAddr, cfg.Blocks),
		segs:   make([]*memory.Segment, cfg.Blocks),
		valid:  make([]bool, cfg.Blocks),
		dirty:  make([]bool, cfg.Blocks),
		lru:    make([]uint64, cfg.Blocks),
		curBlk: -1,
		nxtBlk: -1,
	}
	for i := range c.blocks {
		c.blocks[i] = make([]word.Word, cfg.BlockWords)
	}
	if cfg.Blocks == 64 {
		c.freeVec = ^uint64(0)
	} else {
		c.freeVec = 1<<cfg.Blocks - 1
	}
	return c
}

// Blocks returns the number of blocks.
func (c *Cache) Blocks() int { return len(c.blocks) }

// BlockWords returns the words per block.
func (c *Cache) BlockWords() int { return len(c.blocks[0]) }

// Vectors returns the four access vectors for inspection: current, next,
// free and match.
func (c *Cache) Vectors() (current, next, free, match uint64) {
	return c.current, c.next, c.freeVec, c.match
}

// FreeBlocks returns the population of the free vector.
func (c *Cache) FreeBlocks() int { return bits.OnesCount64(c.freeVec) }

func (c *Cache) touch(blk int) {
	c.clock++
	c.lru[blk] = c.clock
}

// setCur points the current vector (and its mirrors) at blk; -1 clears it.
func (c *Cache) setCur(blk int) {
	c.curBlk = blk
	if blk < 0 {
		c.current, c.curW = 0, nil
		return
	}
	c.current, c.curW = 1<<blk, c.blocks[blk]
}

// setNxt points the next vector (and its mirrors) at blk; -1 clears it.
func (c *Cache) setNxt(blk int) {
	c.nxtBlk = blk
	if blk < 0 {
		c.next, c.nxtW = 0, nil
		return
	}
	c.next, c.nxtW = 1<<blk, c.blocks[blk]
}

func (c *Cache) currentBlock() int {
	if c.curBlk < 0 {
		panic("context: no current context")
	}
	return c.curBlk
}

func (c *Cache) nextBlock() int {
	if c.nxtBlk < 0 {
		panic("context: no next context")
	}
	return c.nxtBlk
}

// HasCurrent reports whether a current context is selected.
func (c *Cache) HasCurrent() bool { return c.curBlk >= 0 }

// HasNext reports whether a next context is selected.
func (c *Cache) HasNext() bool { return c.nxtBlk >= 0 }

// CurrentBase returns the absolute address of the current context.
func (c *Cache) CurrentBase() memory.AbsAddr { return c.dir[c.currentBlock()] }

// NextBase returns the absolute address of the next context.
func (c *Cache) NextBase() memory.AbsAddr { return c.dir[c.nextBlock()] }

// NextSegment returns the segment behind the next context.
func (c *Cache) NextSegment() *memory.Segment { return c.segs[c.nextBlock()] }

// CurrentSegment returns the segment behind the current context.
func (c *Cache) CurrentSegment() *memory.Segment { return c.segs[c.currentBlock()] }

// takeFreeBlock claims a free block, evicting the LRU plain block if
// necessary. Current and next blocks are never victims.
func (c *Cache) takeFreeBlock() int {
	if blk, ok := firstSet(c.freeVec); ok {
		c.freeVec &^= 1 << blk
		return blk
	}
	victim := -1
	pinned := c.current | c.next
	for i := range c.blocks {
		if pinned&(1<<i) != 0 {
			continue
		}
		if victim < 0 || c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	if victim < 0 {
		panic("context: all blocks pinned")
	}
	c.evict(victim)
	c.freeVec &^= 1 << victim
	return victim
}

func firstSet(v uint64) (int, bool) {
	if v == 0 {
		return 0, false
	}
	return bits.TrailingZeros64(v), true
}

// evict writes a block back if dirty and frees it.
func (c *Cache) evict(blk int) {
	if c.valid[blk] {
		if c.dirty[blk] {
			copy(c.segs[blk].Data, c.blocks[blk])
			c.Stats.Copybacks++
		}
		c.valid[blk] = false
		c.segs[blk] = nil
	}
	c.freeVec |= 1 << blk
}

// AllocNext installs a freshly allocated context segment as the next
// context. The block is cleared in place — the hardware's single-cycle
// block clear — so the new context never touches memory, and the RCP slot
// is immediately initialised with the given current context pointer word.
func (c *Cache) AllocNext(seg *memory.Segment, rcp word.Word) {
	if c.nxtBlk >= 0 {
		panic("context: next context already allocated")
	}
	blk := c.takeFreeBlock()
	clear(c.blocks[blk]) // word.Uninit is the zero Word
	c.Stats.Clears++
	c.dir[blk] = seg.Base
	c.segs[blk] = seg
	c.valid[blk] = true
	c.dirty[blk] = true
	c.setNxt(blk)
	c.touch(blk)
	c.blocks[blk][SlotRCP] = rcp
}

// Call makes the next context current ("the next vector is moved to the
// current vector"). The caller must then allocate a new next context.
func (c *Cache) Call() {
	blk := c.nextBlock()
	c.setCur(blk)
	c.setNxt(-1)
	c.touch(blk)
}

// ReturnLIFO implements return when the returning context is LIFO: the
// staging (next) context is discarded to the free vector, the returning
// current block moves back to the next vector, and the caller's context —
// named by its absolute address — is made current via a directory match,
// faulting it in from memory if needed. It returns the discarded staging
// segment (for the free list) and whether the directory matched.
func (c *Cache) ReturnLIFO(callerBase memory.AbsAddr) (staging *memory.Segment, hit bool) {
	nblk := c.nextBlock()
	staging = c.segs[nblk]
	c.valid[nblk] = false
	c.segs[nblk] = nil
	c.freeVec |= 1 << nblk
	c.Stats.Releases++

	cblk := c.currentBlock()
	c.setNxt(cblk)
	c.touch(cblk)

	hit = c.activateCurrent(callerBase)
	return staging, hit
}

// ReturnNonLIFO implements return when the returning context has been
// captured: it stays cached as a plain block (dirty, reachable by address)
// rather than becoming the staging context. The staging slot is left
// empty; the caller must allocate a fresh next context. The caller's
// context is made current as in ReturnLIFO.
func (c *Cache) ReturnNonLIFO(callerBase memory.AbsAddr) (hit bool) {
	cblk := c.currentBlock()
	c.setCur(-1)
	c.touch(cblk) // remains a valid plain block
	nblk := c.nextBlock()
	_ = nblk
	return c.activateCurrent(callerBase)
}

// activateCurrent points the current vector at the block caching
// callerBase, faulting the context in from memory when the directory has
// no match.
func (c *Cache) activateCurrent(callerBase memory.AbsAddr) bool {
	if blk, ok := c.lookup(callerBase); ok {
		c.setCur(blk)
		c.touch(blk)
		c.Stats.Hits++
		return true
	}
	blk := c.faultIn(callerBase)
	c.setCur(blk)
	c.touch(blk)
	return false
}

// lookup consults the directory and sets the match vector.
func (c *Cache) lookup(base memory.AbsAddr) (int, bool) {
	for i := range c.dir {
		if c.valid[i] && c.dir[i] == base {
			c.match = 1 << i
			return i, true
		}
	}
	c.match = 0
	return 0, false
}

// faultIn loads a context from memory into a free block.
func (c *Cache) faultIn(base memory.AbsAddr) int {
	seg, ok := c.space.ByBase(base)
	if !ok {
		panic(fmt.Sprintf("context: fault-in of unknown context %#x", uint64(base)))
	}
	blk := c.takeFreeBlock()
	copy(c.blocks[blk], seg.Data)
	c.dir[blk] = base
	c.segs[blk] = seg
	c.valid[blk] = true
	c.dirty[blk] = false
	c.Stats.Faults++
	return blk
}

// SwapCurrentNext exchanges the current and next vectors — the xfer
// instruction's context transfer.
func (c *Cache) SwapCurrentNext() {
	c.current, c.next = c.next, c.current
	c.curBlk, c.nxtBlk = c.nxtBlk, c.curBlk
	c.curW, c.nxtW = c.nxtW, c.curW
}

// Deactivate clears the current and next vectors, leaving their blocks as
// plain cached contexts. The machine uses this when the root send returns
// and the context pair is dissolved.
func (c *Cache) Deactivate() {
	c.setCur(-1)
	c.setNxt(-1)
}

// ReadCur reads word off of the current context, bypassing the directory
// via the current vector. With no current context selected the nil mirror
// slice panics, as the vector decode would.
func (c *Cache) ReadCur(off int) word.Word {
	c.Stats.Reads++
	c.clock++
	c.lru[c.curBlk] = c.clock
	return c.curW[off]
}

// WriteCur writes word off of the current context.
func (c *Cache) WriteCur(off int, w word.Word) {
	c.Stats.Writes++
	c.clock++
	blk := c.curBlk
	c.lru[blk] = c.clock
	c.dirty[blk] = true
	c.curW[off] = w
}

// ReadNext reads word off of the next context via the next vector.
func (c *Cache) ReadNext(off int) word.Word {
	c.Stats.Reads++
	c.clock++
	c.lru[c.nxtBlk] = c.clock
	return c.nxtW[off]
}

// WriteNext writes word off of the next context.
func (c *Cache) WriteNext(off int, w word.Word) {
	c.Stats.Writes++
	c.clock++
	blk := c.nxtBlk
	c.lru[blk] = c.clock
	c.dirty[blk] = true
	c.nxtW[off] = w
}

// ReadAbs reads a context word by absolute address — the path taken when
// an at: instruction references a context object. The bool reports whether
// the directory matched (miss = fault-in).
func (c *Cache) ReadAbs(base memory.AbsAddr, off int) (word.Word, bool) {
	c.Stats.Reads++
	blk, ok := c.lookup(base)
	if ok {
		c.Stats.Hits++
	} else {
		blk = c.faultIn(base)
	}
	c.touch(blk)
	return c.blocks[blk][off], ok
}

// WriteAbs writes a context word by absolute address.
func (c *Cache) WriteAbs(base memory.AbsAddr, off int, w word.Word) bool {
	c.Stats.Writes++
	blk, ok := c.lookup(base)
	if ok {
		c.Stats.Hits++
	} else {
		blk = c.faultIn(base)
	}
	c.touch(blk)
	c.dirty[blk] = true
	c.blocks[blk][off] = w
	return ok
}

// Release frees the block caching the given context (if any) without
// copyback; used when a dead context is returned to the free list.
func (c *Cache) Release(base memory.AbsAddr) {
	if blk, ok := c.lookup(base); ok {
		if c.current&(1<<blk) != 0 || c.next&(1<<blk) != 0 {
			panic("context: releasing a pinned context")
		}
		c.valid[blk] = false
		c.segs[blk] = nil
		c.freeVec |= 1 << blk
	}
}

// Maintain runs the copy-back mechanism of §2.3: while fewer than two
// blocks are free, the LRU plain block is copied back to memory and freed.
// In hardware this proceeds concurrently with execution, so it costs no
// cycles in the timing model; the work is visible in Stats.Copybacks.
func (c *Cache) Maintain() {
	for c.FreeBlocks() < 2 {
		victim := -1
		pinned := c.current | c.next
		for i := range c.blocks {
			if pinned&(1<<i) != 0 || c.freeVec&(1<<i) != 0 {
				continue
			}
			if victim < 0 || c.lru[i] < c.lru[victim] {
				victim = i
			}
		}
		if victim < 0 {
			return
		}
		c.evict(victim)
	}
}

// WritebackAll copies every dirty block to its segment, leaving blocks
// valid. The garbage collector and any whole-memory inspection call this
// so absolute space is coherent.
func (c *Cache) WritebackAll() {
	for i := range c.blocks {
		if c.valid[i] && c.dirty[i] {
			copy(c.segs[i].Data, c.blocks[i])
			c.dirty[i] = false
		}
	}
}
