// Package memory implements the COM's three address spaces (§3.1):
//
//   - Virtual space — per-team floating point names with capability rights,
//     translated through segment descriptor tables (and cached by the ATLB).
//   - Absolute space — the single global name space where every object has a
//     unique address and where garbage collection operates.
//   - Physical space — a hierarchy of storage devices, each treated as a
//     cache of frequently accessed portions of absolute space.
//
// The translation from virtual to absolute resolves naming: the segment
// field and exponent of the virtual address index the team's descriptor
// table, the offset is bounds-checked against the descriptor length, and —
// because segments are aligned on multiples of their size — the absolute
// address is formed by OR-ing base and offset, no add required.
//
// # Slab layout of absolute space
//
// Absolute space is backed by slabs: contiguous []word.Word arrays of
// SlabWords words each, aligned on SlabWords boundaries of the absolute
// address range. A segment of rounded (power of two) size r ≤ SlabWords is
// carved as a three-index subslice of the slab covering its base — the §3.1
// alignment rule guarantees an r-aligned segment never straddles a larger
// power-of-two boundary, so one slab always suffices. Segments with
// r > SlabWords get a dedicated slab of exactly r words at an r-aligned
// base. Around the slabs sit three O(1) indexes:
//
//   - a dense page table ([]int32 keyed by absolute base address, sized to
//     the base high-water mark) mapping a base to its segment id, replacing
//     the map[AbsAddr]*Segment — ByBase, context-cache fault-in and GC
//     pointer resolution are one bounds check and one load;
//   - size-class free lists (one LIFO stack per power-of-two class)
//     replacing the map[uint64][]*Segment reuse map;
//   - segment headers addressed by a per-space id: a contiguous arena laid
//     down by Clone plus an individually allocated tail for segments carved
//     afterwards. That split is what makes Clone a bulk operation — copy
//     each slab with one memcpy, copy the page table verbatim (ids are
//     position-stable), bulk-copy the header arena and re-point each
//     header's Data by offset — and since a snapshot's space is itself a
//     clone, the serving warm-start path always gets the bulk copy.
//
// Context segments recycled through the free lists skip the zero-fill the
// allocator otherwise performs: the machine initialises a fresh context by
// clearing its context-cache block (§2.3), never by reading the segment, so
// the fill is pure host-side overhead on the hottest allocation path.
package memory

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/fpa"
	"repro/internal/word"
)

// AbsAddr is an address in absolute space.
type AbsAddr uint64

// Kind labels what a segment holds, for the allocation statistics of §2.3
// (85% of allocations are contexts; 91% of references are to contexts).
type Kind uint8

const (
	KindObject Kind = iota
	KindContext
	KindMethod
	KindTable
	NumKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindObject:
		return "object"
	case KindContext:
		return "context"
	case KindMethod:
		return "method"
	case KindTable:
		return "table"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Segment is an allocated region of absolute space holding one object.
type Segment struct {
	Base  AbsAddr
	Data  []word.Word
	Class word.Class
	Kind  Kind

	// Mark is the garbage collector's mark bit. Segments allocated while
	// an incremental collection is sweeping are born marked
	// (allocate-black), so the sweep cannot reclaim objects created after
	// the mark phase ran.
	Mark bool
	// Freed marks segments returned to the allocator; accesses to them
	// are dangling-reference errors.
	Freed bool
	// Captured marks a context segment that escaped LIFO discipline
	// (§2.3): its address was stored, or it took part in an xfer. The
	// flag lives on the segment so the interpreter's return path reads
	// one field instead of probing a side table; the machine clears it
	// when the context is recycled.
	Captured bool
	// Pooled marks a context segment waiting on the context free list.
	// Like Captured it lives on the segment, so the free list keeps no
	// side table and the flag travels with a space clone.
	Pooled bool

	// id is the segment's index in the space's all-segments slice; slab
	// is the index of the slab backing Data. inOrder
	// records membership in the allocation-order scan list, so a segment
	// compacted out after a Free is re-listed when it is recycled.
	id      int32
	slab    int32
	inOrder bool
}

// Size returns the segment length in words.
func (s *Segment) Size() uint64 { return uint64(len(s.Data)) }

// End returns the first absolute address beyond the segment.
func (s *Segment) End() AbsAddr { return s.Base + AbsAddr(len(s.Data)) }

// Contains reports whether the absolute address falls inside the segment.
func (s *Segment) Contains(a AbsAddr) bool { return a >= s.Base && a < s.End() }

// AllocStats counts allocator activity by segment kind.
type AllocStats struct {
	Allocs [NumKinds]uint64
	Frees  [NumKinds]uint64
	Words  [NumKinds]uint64
}

// TotalAllocs sums allocations across kinds.
func (s AllocStats) TotalAllocs() uint64 {
	var t uint64
	for _, n := range s.Allocs {
		t += n
	}
	return t
}

const (
	slabShift = 12
	// SlabWords is the capacity of one slab of absolute space: segments
	// with rounded size up to this are carved from shared slabs; larger
	// ones get a dedicated slab. The quantum is deliberately modest so a
	// small image's clone cost tracks its heap, not the slab size.
	SlabWords = 1 << slabShift

	// compactMin is the scan-list length below which dead-entry
	// compaction is not worth running.
	compactMin = 64
)

// slab is one contiguous stretch of backing store, covering absolute
// addresses [base, base+len(data)).
type slab struct {
	base AbsAddr
	data []word.Word
}

// numFreeClasses bounds the size-class array: class = log2(rounded size).
const numFreeClasses = 64

// Space is absolute space: an aligned segment allocator plus the global
// segment index. Segments are aligned on multiples of their (power of two
// rounded) size, as §3.1 requires, so base|offset == base+offset. See the
// package comment for the slab layout.
type Space struct {
	// Segment headers live in two stores: headers,
	// a contiguous arena laid down by Clone (position == id), and extra,
	// individually allocated headers for segments carved after the space
	// was cloned (ids continue past the arena). A snapshot's space is
	// itself a clone, so the serving-path clone copies the whole arena
	// with one bulk copy instead of chasing per-segment pointers.
	slabs   []slab
	windows []int32 // SlabWords-window → slabs index + 1; 0 = no slab yet
	table   []int32 // absolute base address → segment id + 1; 0 = no live segment
	headers []Segment
	extra   []*Segment
	free    [numFreeClasses][]*Segment
	live    int

	// order is the scan list: every listed segment in allocation order,
	// freed entries included until compaction removes them. orderDead
	// counts the freed entries still listed; when they outnumber the
	// live ones the list is compacted (amortised O(1) per Free), so
	// scans never walk an unbounded run of dead entries. The list
	// stays implicit — id order IS allocation order — and is only
	// materialised by the first compaction (compacted flag).
	order     []*Segment
	orderDead int
	compacted bool

	nextBase AbsAddr

	// gcActive is set by an incremental collector between mark and the
	// end of sweep: allocations are born marked and compaction is
	// deferred so the sweep's snapshot stays valid.
	gcActive bool

	Stats AllocStats
}

// NewSpace returns an empty slab-backed absolute space. Address 0 is never
// allocated so it can serve as a null of sorts in tables.
func NewSpace() *Space {
	return &Space{nextBase: 1} // keep 0 unused; first alloc aligns past it
}

// numSegs returns how many segments the space has ever carved.
func (s *Space) numSegs() int { return len(s.headers) + len(s.extra) }

// segByID returns the segment with the given id: arena first, then the
// individually allocated tail.
func (s *Space) segByID(id int32) *Segment {
	if n := int32(len(s.headers)); id < n {
		return &s.headers[id]
	}
	return s.extra[id-int32(len(s.headers))]
}

func pow2ceil(n uint64) uint64 {
	if n <= 1 {
		return 1
	}
	p := uint64(1)
	for p < n {
		p <<= 1
	}
	return p
}

// Alloc carves a new aligned segment of the given size (at least 1 word),
// class and kind. Freed segments of the same rounded size are reused —
// this is the "single free list" fast path for contexts. Recycled context
// segments are handed back without zero-fill (see the package comment).
func (s *Space) Alloc(size uint64, class word.Class, kind Kind) *Segment {
	if size == 0 {
		size = 1
	}
	rounded := pow2ceil(size)
	s.Stats.Allocs[kind]++
	s.Stats.Words[kind] += size
	if seg := s.popFree(rounded); seg != nil {
		seg.Freed = false
		seg.Class = class
		seg.Kind = kind
		seg.Mark = s.gcActive
		seg.Data = seg.Data[:size]
		if kind != KindContext {
			clear(seg.Data) // word.Uninit is the zero Word
		}
		s.install(seg)
		return seg
	}
	base := (s.nextBase + AbsAddr(rounded) - 1) &^ (AbsAddr(rounded) - 1)
	s.nextBase = base + AbsAddr(rounded)
	// carve first: it creates the slab and its window entry, which the
	// slab index below reads.
	data := s.carve(base, size, rounded)
	seg := &Segment{
		Base:  base,
		Data:  data,
		Class: class,
		Kind:  kind,
		Mark:  s.gcActive,
		id:    int32(s.numSegs()),
		slab:  s.windows[base>>slabShift] - 1,
	}
	s.extra = append(s.extra, seg)
	s.install(seg)
	return seg
}

// popFree pops the most recently freed segment of the rounded size, if any:
// segments recycle LIFO per size class.
func (s *Space) popFree(rounded uint64) *Segment {
	cls := bits.TrailingZeros64(rounded)
	list := s.free[cls]
	if n := len(list); n > 0 {
		seg := list[n-1]
		s.free[cls] = list[:n-1]
		return seg
	}
	return nil
}

// install indexes a (re)allocated segment and lists it for scans.
func (s *Space) install(seg *Segment) {
	if uint64(seg.Base) >= uint64(len(s.table)) {
		s.growTable(uint64(seg.Base) + 1)
	}
	s.table[seg.Base] = seg.id + 1
	s.live++
	if seg.inOrder {
		s.orderDead-- // was listed as a dead entry; live again
	} else {
		seg.inOrder = true
		if s.compacted {
			s.order = append(s.order, seg)
		}
	}
}

// carve returns the backing store for a fresh segment, creating the slab
// covering it on first touch.
func (s *Space) carve(base AbsAddr, size, rounded uint64) []word.Word {
	sl := &s.slabs[s.ensureSlab(base, rounded)]
	off := uint64(base - sl.base)
	return sl.data[off : off+size : off+rounded]
}

// ensureSlab returns the index of the slab covering [base, base+rounded),
// creating it if needed. Alignment guarantees the range never straddles
// slabs: rounded ≤ SlabWords fits inside one SlabWords window, larger
// segments get a dedicated slab spanning whole windows.
func (s *Space) ensureSlab(base AbsAddr, rounded uint64) int32 {
	win := int(base >> slabShift)
	if rounded >= SlabWords {
		idx := int32(len(s.slabs))
		s.slabs = append(s.slabs, slab{base: base, data: make([]word.Word, rounded)})
		endWin := int((uint64(base) + rounded) >> slabShift)
		s.growWindows(endWin)
		for w := win; w < endWin; w++ {
			s.windows[w] = idx + 1
		}
		return idx
	}
	s.growWindows(win + 1)
	if s.windows[win] == 0 {
		idx := int32(len(s.slabs))
		s.slabs = append(s.slabs, slab{base: AbsAddr(win) << slabShift, data: make([]word.Word, SlabWords)})
		s.windows[win] = idx + 1
	}
	return s.windows[win] - 1
}

func (s *Space) growWindows(n int) {
	for len(s.windows) < n {
		s.windows = append(s.windows, 0)
	}
}

// growTable extends the page table to cover n entries, doubling so the
// amortised cost per fresh base stays O(1). The table tracks the base-
// address high-water mark, not the slab extent, so a small image keeps a
// small table (and a cheap clone).
func (s *Space) growTable(n uint64) {
	grown := uint64(len(s.table)) * 2
	if grown < n {
		grown = n
	}
	nt := make([]int32, grown)
	copy(nt, s.table)
	s.table = nt
}

// Free returns a segment to the allocator for reuse.
func (s *Space) Free(seg *Segment) {
	if seg.Freed {
		return
	}
	seg.Freed = true
	s.Stats.Frees[seg.Kind]++
	seg.Data = seg.Data[:cap(seg.Data)]
	rounded := pow2ceil(uint64(cap(seg.Data)))
	s.table[seg.Base] = 0
	s.live--
	cls := bits.TrailingZeros64(rounded)
	s.free[cls] = append(s.free[cls], seg)
	s.orderDead++
	s.maybeCompact()
}

// maybeCompact drops freed entries from the scan list once they outnumber
// the live ones, so long-running servers do not walk dead entries forever.
// Deferred while an incremental collection is sweeping (the sweep snapshot
// holds its own references). The first compaction materialises the until-then implicit (id-ordered) list.
func (s *Space) maybeCompact() {
	n := s.scanLen()
	if s.gcActive || n < compactMin || s.orderDead*2 <= n {
		return
	}
	if !s.compacted {
		order := make([]*Segment, 0, s.live)
		for id := 0; id < s.numSegs(); id++ {
			seg := s.segByID(int32(id))
			if seg.Freed {
				seg.inOrder = false
				continue
			}
			order = append(order, seg)
		}
		s.order = order
		s.compacted = true
		s.orderDead = 0
		return
	}
	kept := s.order[:0]
	for _, seg := range s.order {
		if seg.Freed {
			seg.inOrder = false
			continue
		}
		kept = append(kept, seg)
	}
	for i := len(kept); i < len(s.order); i++ {
		s.order[i] = nil
	}
	s.order = kept
	s.orderDead = 0
}

// SetGCActive brackets an incremental collection's sweep phase: while
// active, allocations are born marked (allocate-black) and scan-list
// compaction is deferred. The collector in package gc drives this.
func (s *Space) SetGCActive(on bool) {
	s.gcActive = on
	if !on {
		s.maybeCompact()
	}
}

// GCActive reports whether an incremental collection is in progress.
func (s *Space) GCActive() bool { return s.gcActive }

// ByBase returns the live segment with the given base address: one bounds
// check and one dense-table load — the O(1) resolution the context cache's
// fault-in and the collector's marking lean on.
func (s *Space) ByBase(base AbsAddr) (*Segment, bool) {
	if uint64(base) >= uint64(len(s.table)) {
		return nil, false
	}
	id := s.table[base]
	if id == 0 {
		return nil, false
	}
	return s.segByID(id - 1), true
}

// Live calls fn for every live segment, in allocation order.
func (s *Space) Live(fn func(*Segment)) {
	if !s.compacted {
		for id := 0; id < s.numSegs(); id++ {
			if seg := s.segByID(int32(id)); !seg.Freed {
				fn(seg)
			}
		}
		return
	}
	for _, seg := range s.order {
		if !seg.Freed {
			fn(seg)
		}
	}
}

// AppendLive appends every live segment to dst in allocation order and
// returns it — the collector's sweep snapshot, taken once per cycle so the
// incremental sweep iterates stable storage while the mutator runs.
func (s *Space) AppendLive(dst []*Segment) []*Segment {
	s.Live(func(seg *Segment) { dst = append(dst, seg) })
	return dst
}

// LiveCount returns the number of live segments.
func (s *Space) LiveCount() int {
	return s.live
}

// scanLen reports the scan-list length including dead entries (tests and
// the compaction trigger).
func (s *Space) scanLen() int {
	if !s.compacted {
		return s.numSegs()
	}
	return len(s.order)
}

// Rights are the capability bits of a virtual name (§3.1: "A name within
// this space is a capability to access an object").
type Rights uint8

const (
	Read Rights = 1 << iota
	Write
	Execute

	RW  = Read | Write
	RWX = Read | Write | Execute
)

// Has reports whether all bits of need are granted.
func (r Rights) Has(need Rights) bool { return r&need == need }

// Descriptor is a segment descriptor table entry: base address, length and
// object class (§3.1 figure 3), extended with capability rights and the
// forwarding address used when an object outgrows its exponent (§2.2).
type Descriptor struct {
	Seg    *Segment
	Length uint64
	Class  word.Class
	Rights Rights

	// Forward, when non-nil, holds the wider virtual address allocated
	// after the object grew. Accesses within the old bound still work;
	// accesses beyond it trap and the trap handler re-issues through
	// Forward ("When these bounds are exceeded a system trap routine
	// replaces the old segment number with the new segment number").
	Forward *fpa.Addr
}

// Fault is a translation failure with enough structure for the machine's
// trap dispatch.
type Fault struct {
	Code    FaultCode
	Addr    fpa.Addr
	Forward *fpa.Addr // set for FaultGrown
}

// FaultCode enumerates translation failure causes.
type FaultCode uint8

const (
	FaultNoSegment FaultCode = iota // no descriptor for the name
	FaultBounds                     // offset beyond descriptor length
	FaultGrown                      // offset beyond old bound of a grown object
	FaultRights                     // capability check failed
	FaultDangling                   // descriptor names a freed segment
)

func (c FaultCode) String() string {
	switch c {
	case FaultNoSegment:
		return "no-segment"
	case FaultBounds:
		return "bounds"
	case FaultGrown:
		return "grown"
	case FaultRights:
		return "rights"
	case FaultDangling:
		return "dangling"
	}
	return fmt.Sprintf("fault(%d)", uint8(c))
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("memory: %v fault at %v", f.Code, f.Addr)
}

// TeamStats counts translation activity.
type TeamStats struct {
	Translations uint64
	ATLBHits     uint64
	Faults       uint64
}

// Team is a team space: a segment descriptor table mapping floating point
// virtual names to absolute segments, with an ATLB accelerating the hot
// translations.
type Team struct {
	SN     int // team space number (the SN register's value)
	Format fpa.Format
	table  map[fpa.SegKey]*Descriptor
	atlb   *cache.Cache[*Descriptor]
	space  *Space
	Stats  TeamStats

	nextSeg map[uint8]uint64 // next unused integer part per exponent
	bySeg   map[*Segment][]fpa.SegKey
}

// ATLBConfig sizes the address translation lookaside buffer.
type ATLBConfig struct {
	Entries int
	Assoc   int
}

// NewTeam creates a team space over the given absolute space.
func NewTeam(sn int, format fpa.Format, space *Space, atlb ATLBConfig) *Team {
	if atlb.Entries == 0 {
		atlb = ATLBConfig{Entries: 256, Assoc: 2}
	}
	return &Team{
		SN:      sn,
		Format:  format,
		table:   make(map[fpa.SegKey]*Descriptor),
		atlb:    cache.New[*Descriptor](cache.Config{Entries: atlb.Entries, Assoc: atlb.Assoc, HashSets: true}),
		space:   space,
		nextSeg: make(map[uint8]uint64),
		bySeg:   make(map[*Segment][]fpa.SegKey),
	}
}

// Space returns the absolute space backing the team.
func (t *Team) Space() *Space { return t.space }

// ATLBStats exposes the translation buffer's counters.
func (t *Team) ATLBStats() cache.Stats { return t.atlb.Stats }

// Bind installs a descriptor for a virtual name. Existing bindings are
// replaced and the ATLB line invalidated.
func (t *Team) Bind(key fpa.SegKey, d *Descriptor) {
	if old, ok := t.table[key]; ok && old.Seg != nil {
		t.dropSegKey(old.Seg, key)
	}
	t.table[key] = d
	if d.Seg != nil {
		t.bySeg[d.Seg] = append(t.bySeg[d.Seg], key)
	}
	t.atlb.Invalidate(key.Pack())
}

func (t *Team) dropSegKey(seg *Segment, key fpa.SegKey) {
	keys := t.bySeg[seg]
	for i, k := range keys {
		if k == key {
			keys[i] = keys[len(keys)-1]
			t.bySeg[seg] = keys[:len(keys)-1]
			break
		}
	}
	if len(t.bySeg[seg]) == 0 {
		delete(t.bySeg, seg)
	}
}

// UnbindSegment removes every name bound to the segment, returning how
// many were dropped. The garbage collector calls this when an object dies
// so its names can never dangle onto a reused segment.
func (t *Team) UnbindSegment(seg *Segment) int {
	keys := append([]fpa.SegKey(nil), t.bySeg[seg]...)
	for _, k := range keys {
		delete(t.table, k)
		t.atlb.Invalidate(k.Pack())
	}
	delete(t.bySeg, seg)
	return len(keys)
}

// DescriptorFor returns the descriptor bound to a name, bypassing the ATLB.
func (t *Team) DescriptorFor(key fpa.SegKey) (*Descriptor, bool) {
	d, ok := t.table[key]
	return d, ok
}

// Names returns the virtual names bound to a segment. The slice belongs to
// the team and must not be modified.
func (t *Team) Names(seg *Segment) []fpa.SegKey { return t.bySeg[seg] }

// Alloc allocates a fresh object of the given size/class/kind, binds a new
// virtual name with the smallest sufficient exponent, and returns the name.
func (t *Team) Alloc(size uint64, class word.Class, kind Kind, rights Rights) (fpa.Addr, *Segment, error) {
	exp := uint8(fpa.MinExpFor(size))
	return t.AllocExp(exp, size, class, kind, rights)
}

// AllocExp allocates with an explicit exponent, which must cover size.
func (t *Team) AllocExp(exp uint8, size uint64, class word.Class, kind Kind, rights Rights) (fpa.Addr, *Segment, error) {
	if uint(exp) > t.Format.MaxExp() || uint(exp) > t.Format.ManBits {
		return fpa.Addr{}, nil, fmt.Errorf("memory: no exponent for object of %d words", size)
	}
	if size > 0 && size > uint64(1)<<exp {
		return fpa.Addr{}, nil, fmt.Errorf("memory: size %d exceeds exponent %d", size, exp)
	}
	num := t.nextSeg[exp]
	limit := t.Format.SegmentsAt(uint(exp))
	if num >= limit {
		return fpa.Addr{}, nil, fmt.Errorf("memory: virtual space exhausted at exponent %d", exp)
	}
	t.nextSeg[exp] = num + 1
	key := fpa.SegKey{Exp: exp, Num: num}
	seg := t.space.Alloc(size, class, kind)
	t.Bind(key, &Descriptor{Seg: seg, Length: size, Class: class, Rights: rights})
	addr, err := t.Format.Make(key, 0)
	if err != nil {
		return fpa.Addr{}, nil, err
	}
	return addr, seg, nil
}

// Translate resolves a virtual address plus word offset to a segment and
// in-segment index, enforcing exponent bounds, descriptor length and
// capability rights. The boolean reports whether the ATLB hit.
func (t *Team) Translate(a fpa.Addr, need Rights) (*Segment, uint64, bool, *Fault) {
	t.Stats.Translations++
	key := a.Key()
	var d *Descriptor
	hit := false
	if v, ok := t.atlb.Lookup(key.Pack()); ok {
		d = v
		hit = true
		t.Stats.ATLBHits++
	} else if v, ok := t.table[key]; ok {
		d = v
		t.atlb.Insert(key.Pack(), v)
	} else {
		t.Stats.Faults++
		return nil, 0, false, &Fault{Code: FaultNoSegment, Addr: a}
	}
	off := a.Offset()
	if off >= d.Length {
		t.Stats.Faults++
		if d.Forward != nil {
			return nil, 0, hit, &Fault{Code: FaultGrown, Addr: a, Forward: d.Forward}
		}
		return nil, 0, hit, &Fault{Code: FaultBounds, Addr: a}
	}
	if !d.Rights.Has(need) {
		t.Stats.Faults++
		return nil, 0, hit, &Fault{Code: FaultRights, Addr: a}
	}
	if d.Seg == nil || d.Seg.Freed {
		t.Stats.Faults++
		return nil, 0, hit, &Fault{Code: FaultDangling, Addr: a}
	}
	return d.Seg, off, hit, nil
}

// Grow reallocates the object named by a into a segment of newSize with a
// wider exponent, copies the contents, and leaves the old name forwarding
// (§2.2 aliasing). It returns the new virtual base address.
func (t *Team) Grow(a fpa.Addr, newSize uint64) (fpa.Addr, error) {
	key := a.Key()
	d, ok := t.table[key]
	if !ok {
		return fpa.Addr{}, &Fault{Code: FaultNoSegment, Addr: a}
	}
	if newSize <= d.Length {
		return fpa.Addr{}, fmt.Errorf("memory: grow to %d words is not larger than %d", newSize, d.Length)
	}
	newAddr, newSeg, err := t.Alloc(newSize, d.Class, d.Seg.Kind, d.Rights)
	if err != nil {
		return fpa.Addr{}, err
	}
	n := copy(newSeg.Data, d.Seg.Data)
	// A recycled segment may carry stale words past the copied prefix
	// (zero-fill elision); a grown object's fresh tail must read as
	// uninitialised either way.
	clear(newSeg.Data[n:])
	old := d.Seg
	// Both old and new descriptors point at the new segment; the old
	// name keeps its old length bound and forwards past it.
	d.Seg = newSeg
	fwd := newAddr
	d.Forward = &fwd
	t.dropSegKey(old, key)
	t.bySeg[newSeg] = append(t.bySeg[newSeg], key)
	t.atlb.Invalidate(key.Pack())
	t.space.Free(old)
	return newAddr, nil
}

// Resolve follows forwarding: given an address that faulted with
// FaultGrown, it returns the equivalent address under the new name.
func Resolve(f *Fault) (fpa.Addr, bool) {
	if f == nil || f.Code != FaultGrown || f.Forward == nil {
		return fpa.Addr{}, false
	}
	return f.Forward.WithOffset(f.Addr.Offset())
}
