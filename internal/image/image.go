// Package image implements persistent machine images: a versioned binary
// codec that serialises a core.Snapshot — the captured machine state the serving
// pool stamps workers from — to disk and back, so obarchd restarts and new
// hosts skip compile+load entirely and boot with the snapshot's warm ITLB.
//
// # Format
//
// An image is a fixed header followed by nine length-prefixed sections,
// and nothing after them:
//
//	magic "OBARIMG\0" | format version | ISA-encoding version | section count | header CRC32
//	for each section: id | payload length | payload CRC32 | payload
//
// All integers are little-endian. Sections appear in a fixed order
// (config, space, team, objects, itlb, icache, hierarchy, freelist,
// machine) and every payload carries its own CRC, so a stale, truncated or
// bit-flipped image fails loudly at load instead of building a corrupt
// machine. The header carries two versions: FormatVersion covers this
// codec's layout, and the ISA-encoding version (isa.EncodingVersion)
// covers the meaning of the serialised code words — an image written under
// either other version is rejected with a descriptive error, never
// reinterpreted.
//
// Each fact is stored once. Geometry (address format, cache and TLB
// sizes, hierarchy levels, context size) is in the config section only,
// and each importer takes it from there. No derivable index is stored:
// the loader rebuilds the space's window index and page table, and the
// machine's code index, class-object index and context names, from the
// slabs, the segment headers, the team's bindings and the methods.
//
// The decoder treats input as hostile: slice lengths are capped by the
// bytes actually present (see dec.sliceLen), section payloads are read
// incrementally so a forged length cannot force a huge allocation, and
// the per-package importers validate every cross-reference (segment ids,
// class/method indexes, slab offsets) and refuse a state from which an
// index cannot be rebuilt the way the running machine builds it.
// FuzzReadImage holds the line: arbitrary bytes and bit-flipped valid
// images must error, never panic.
//
// Loading reproduces a bit-identical machine: same core.Stats, ITLB/ATLB/
// icache counters, AllocStats and GC behaviour as the snapshot it came
// from. The round-trip suite in image_test.go proves it against the
// workload parity harness.
package image

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/cache"
	"repro/internal/context"
	"repro/internal/core"
	"repro/internal/fpa"
	"repro/internal/isa"
	"repro/internal/itlb"
	"repro/internal/memory"
	"repro/internal/object"
	"repro/internal/word"
)

// FormatVersion is the version of this codec's on-disk layout. Any change
// to the section layout or field encodings must bump it; Read rejects
// other versions. Version 2 dropped the space section's page table and
// its live and dead-entry counts, which the loader rebuilds from the
// segment headers. Version 3 stores each fact once: it dropped the
// geometry copies outside the config section (the team's address format
// and ATLB geometry, the ITLB's, each hierarchy level's, the free list's
// context size and class), the space section's window index, the machine
// section's code index, class-object index, context names and context-name
// counter, which the loader rebuilds, and the three reserved bytes of the
// retired ablation switches.
const FormatVersion = 3

// magic identifies an obarch machine image.
var magic = [8]byte{'O', 'B', 'A', 'R', 'I', 'M', 'G', 0}

// Section ids, in the order they appear in the file.
const (
	secConfig = iota + 1
	secSpace
	secTeam
	secObjects
	secITLB
	secICache
	secHier
	secFreeList
	secMachine
	numSections = secMachine
)

var sectionNames = [...]string{
	secConfig: "config", secSpace: "space", secTeam: "team",
	secObjects: "objects", secITLB: "itlb", secICache: "icache",
	secHier: "hierarchy", secFreeList: "freelist", secMachine: "machine",
}

// Fixed record widths of the bulk-encoded arrays.
const (
	segRec  = 8 + 8 + 8 + 2 + 1 + 3 + 4 // SegmentState
	itlbRec = 4 + 8 + 8 + 1 + 2 + 4     // itlb.LineState (sparse: held lines only)
	lineRec = 4 + 8 + 8                 // cache.LineState[struct{}] (sparse)
)

func b2u(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}

func u2b(v uint8) (bool, bool) { return v == 1, v <= 1 }

// Write serialises the snapshot to w, encoding its state directly.
func Write(w io.Writer, snap *core.Snapshot) error {
	st := snap.State()
	var he enc
	he.b = append(he.b, magic[:]...)
	he.u32(FormatVersion)
	he.u32(isa.EncodingVersion)
	he.u32(numSections)
	he.u32(crc32.ChecksumIEEE(he.b))
	if _, err := w.Write(he.b); err != nil {
		return err
	}
	for id := 1; id <= numSections; id++ {
		var e enc
		encodeSection(&e, id, st)
		var sh enc
		sh.u32(uint32(id))
		sh.u64(uint64(len(e.b)))
		sh.u32(crc32.ChecksumIEEE(e.b))
		if _, err := w.Write(sh.b); err != nil {
			return err
		}
		if _, err := w.Write(e.b); err != nil {
			return err
		}
	}
	return nil
}

// Read deserialises a snapshot from r, validating versions, CRCs and every
// cross-reference, and reads r to its end: bytes after the last section
// are refused. The decoded state is validated by one import
// (core.ImportSnapshot) and kept as the snapshot, which stamps out
// machines bit-identical to the one Write was given.
func Read(r io.Reader) (*core.Snapshot, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("image: header: %w", err)
	}
	hd := &dec{b: hdr[:]}
	var m [8]byte
	copy(m[:], hd.take(8))
	if m != magic {
		return nil, fmt.Errorf("image: bad magic %q: not an obarch machine image", m[:])
	}
	formatV := hd.u32()
	isaV := hd.u32()
	nsec := hd.u32()
	wantCRC := crc32.ChecksumIEEE(hdr[:20])
	if got := hd.u32(); got != wantCRC {
		return nil, fmt.Errorf("image: header CRC mismatch (got %#x, want %#x)", got, wantCRC)
	}
	if formatV != FormatVersion {
		return nil, fmt.Errorf("image: format version %d not supported (this build reads version %d)", formatV, FormatVersion)
	}
	if isaV != isa.EncodingVersion {
		return nil, fmt.Errorf("image: ISA encoding version %d does not match this build's version %d; the image's code words cannot be reinterpreted", isaV, isa.EncodingVersion)
	}
	if nsec != numSections {
		return nil, fmt.Errorf("image: %d sections, want %d", nsec, numSections)
	}
	st := &core.MachineState{}
	// One payload buffer serves all sections (decoders copy what they
	// keep), reset between them so only the largest section allocates.
	var buf bytes.Buffer
	for id := 1; id <= numSections; id++ {
		var sh [16]byte
		if _, err := io.ReadFull(r, sh[:]); err != nil {
			return nil, fmt.Errorf("image: %s section header: %w", sectionNames[id], err)
		}
		sd := &dec{b: sh[:]}
		gotID := sd.u32()
		payLen := sd.u64()
		payCRC := sd.u32()
		if gotID != uint32(id) {
			return nil, fmt.Errorf("image: section %d is %q, want %q", id, name(int(gotID)), sectionNames[id])
		}
		if payLen > 1<<40 {
			return nil, fmt.Errorf("image: %s section declares %d bytes", sectionNames[id], payLen)
		}
		// The payload is read incrementally: a forged length never
		// allocates beyond the bytes the reader actually delivers.
		buf.Reset()
		n, err := io.Copy(&buf, io.LimitReader(r, int64(payLen)))
		if err != nil {
			return nil, fmt.Errorf("image: %s section: %w", sectionNames[id], err)
		}
		if uint64(n) != payLen {
			return nil, fmt.Errorf("image: %s section truncated (%d of %d bytes)", sectionNames[id], n, payLen)
		}
		if got := crc32.ChecksumIEEE(buf.Bytes()); got != payCRC {
			return nil, fmt.Errorf("image: %s section CRC mismatch (got %#x, want %#x)", sectionNames[id], got, payCRC)
		}
		d := &dec{b: buf.Bytes()}
		if err := decodeSection(d, id, st); err != nil {
			return nil, fmt.Errorf("image: %s section: %w", sectionNames[id], err)
		}
	}
	// Every caller hands Read a whole file or buffer, so the image must
	// end where its last section does.
	var extra [1]byte
	switch _, err := io.ReadFull(r, extra[:]); {
	case err == nil:
		return nil, fmt.Errorf("image: bytes after the last section")
	case err != io.EOF:
		return nil, fmt.Errorf("image: after the last section: %w", err)
	}
	snap, err := core.ImportSnapshot(st)
	if err != nil {
		return nil, fmt.Errorf("image: %w", err)
	}
	return snap, nil
}

func name(id int) string {
	if id >= 1 && id < len(sectionNames) {
		return sectionNames[id]
	}
	return fmt.Sprintf("section(%d)", id)
}

// encodeSection dispatches one section's payload encoding.
func encodeSection(e *enc, id int, st *core.MachineState) {
	switch id {
	case secConfig:
		encConfig(e, st.Cfg)
	case secSpace:
		encSpace(e, st.Space)
	case secTeam:
		encTeam(e, st.Team)
	case secObjects:
		encObjects(e, st.Image)
	case secITLB:
		encITLB(e, st.ITLB)
	case secICache:
		encStructLines(e, st.ICClock, st.ICStats, st.ICLines)
	case secHier:
		encHier(e, st.Hier)
	case secFreeList:
		encFreeList(e, st.Free)
	case secMachine:
		encMachine(e, st)
	}
}

// decodeSection dispatches one section's payload decoding and verifies the
// payload was consumed exactly.
func decodeSection(d *dec, id int, st *core.MachineState) error {
	switch id {
	case secConfig:
		st.Cfg = decConfig(d)
	case secSpace:
		st.Space = decSpace(d)
	case secTeam:
		st.Team = decTeam(d)
	case secObjects:
		st.Image = decObjects(d)
	case secITLB:
		st.ITLB = decITLB(d)
	case secICache:
		st.ICClock, st.ICStats, st.ICLines = decStructLines(d)
	case secHier:
		st.Hier = decHier(d)
	case secFreeList:
		st.Free = decFreeList(d)
	case secMachine:
		decMachine(d, st)
	}
	return d.done()
}

// --- config ---

func encConfig(e *enc, cfg core.Config) {
	e.u32(uint32(cfg.Format.ExpBits))
	e.u32(uint32(cfg.Format.ManBits))
	e.i64(int64(cfg.CtxWords))
	e.i64(int64(cfg.CtxBlocks))
	e.i64(int64(cfg.ITLB.Entries))
	e.i64(int64(cfg.ITLB.Assoc))
	encCacheConfig(e, cfg.ICache)
	e.i64(int64(cfg.ATLB.Entries))
	e.i64(int64(cfg.ATLB.Assoc))
	e.u32(uint32(len(cfg.Hierarchy)))
	for _, lv := range cfg.Hierarchy {
		encLevel(e, lv)
	}
	e.i64(int64(cfg.Penalties.ICacheMiss))
	e.i64(int64(cfg.Penalties.CtxFault))
	e.i64(int64(cfg.Penalties.ATLBMiss))
	e.i64(int64(cfg.Penalties.Branch))
	e.u64(cfg.MaxSteps)
	e.bool(cfg.NoITLB)
	e.bool(cfg.Privileged)
}

func decConfig(d *dec) core.Config {
	var cfg core.Config
	cfg.Format.ExpBits = uint(d.u32())
	cfg.Format.ManBits = uint(d.u32())
	cfg.CtxWords = int(d.i64())
	cfg.CtxBlocks = int(d.i64())
	cfg.ITLB.Entries = int(d.i64())
	cfg.ITLB.Assoc = int(d.i64())
	cfg.ICache = decCacheConfig(d)
	cfg.ATLB.Entries = int(d.i64())
	cfg.ATLB.Assoc = int(d.i64())
	n := d.sliceLen(4 + 4*8)
	for i := 0; i < n; i++ {
		cfg.Hierarchy = append(cfg.Hierarchy, decLevel(d))
	}
	cfg.Penalties.ICacheMiss = int(d.i64())
	cfg.Penalties.CtxFault = int(d.i64())
	cfg.Penalties.ATLBMiss = int(d.i64())
	cfg.Penalties.Branch = int(d.i64())
	cfg.MaxSteps = d.u64()
	cfg.NoITLB = d.bool()
	cfg.Privileged = d.bool()
	return cfg
}

func encCacheConfig(e *enc, c cache.Config) {
	e.i64(int64(c.Entries))
	e.i64(int64(c.Assoc))
	e.bool(c.HashSets)
}

func decCacheConfig(d *dec) cache.Config {
	return cache.Config{Entries: int(d.i64()), Assoc: int(d.i64()), HashSets: d.bool()}
}

func encLevel(e *enc, lv memory.Level) {
	e.str(lv.Name)
	e.i64(int64(lv.Entries))
	e.i64(int64(lv.Assoc))
	e.i64(int64(lv.BlockWords))
	e.i64(int64(lv.Penalty))
}

func decLevel(d *dec) memory.Level {
	return memory.Level{
		Name:       d.str(),
		Entries:    int(d.i64()),
		Assoc:      int(d.i64()),
		BlockWords: int(d.i64()),
		Penalty:    int(d.i64()),
	}
}

// --- space ---

func encAllocStats(e *enc, s memory.AllocStats) {
	for _, arr := range [][memory.NumKinds]uint64{s.Allocs, s.Frees, s.Words} {
		for _, v := range arr {
			e.u64(v)
		}
	}
}

func decAllocStats(d *dec) memory.AllocStats {
	var s memory.AllocStats
	for _, arr := range []*[memory.NumKinds]uint64{&s.Allocs, &s.Frees, &s.Words} {
		for i := range arr {
			arr[i] = d.u64()
		}
	}
	return s
}

func encSpace(e *enc, st *memory.SpaceState) {
	e.u64(uint64(st.NextBase))
	encAllocStats(e, st.Stats)
	e.bool(st.Compacted)
	e.u32(uint32(len(st.Slabs)))
	for _, sl := range st.Slabs {
		e.u64(uint64(sl.Base))
		e.words(sl.Data)
	}
	// Segment headers are the bulkiest fixed-width records after the slab
	// words themselves; both directions handle them as one block.
	e.u32(uint32(len(st.Segments)))
	out := e.grow(segRec * len(st.Segments))
	for i, sg := range st.Segments {
		o := out[i*segRec : i*segRec+segRec]
		binary.LittleEndian.PutUint64(o, uint64(sg.Base))
		binary.LittleEndian.PutUint64(o[8:], sg.Len)
		binary.LittleEndian.PutUint64(o[16:], sg.Cap)
		binary.LittleEndian.PutUint16(o[24:], uint16(sg.Class))
		o[26] = uint8(sg.Kind)
		o[27] = b2u(sg.Mark)
		o[28] = b2u(sg.Freed)
		o[29] = b2u(sg.Captured)
		binary.LittleEndian.PutUint32(o[30:], uint32(sg.Slab))
	}
	e.u32(uint32(len(st.Free)))
	for _, fc := range st.Free {
		e.u8(fc.SizeClass)
		e.i32s(fc.IDs)
	}
	e.i32s(st.Order)
}

func decSpace(d *dec) *memory.SpaceState {
	st := &memory.SpaceState{}
	st.NextBase = memory.AbsAddr(d.u64())
	st.Stats = decAllocStats(d)
	st.Compacted = d.bool()
	n := d.sliceLen(8 + 4)
	st.Slabs = make([]memory.SlabState, 0, n)
	for i := 0; i < n; i++ {
		base := memory.AbsAddr(d.u64())
		st.Slabs = append(st.Slabs, memory.SlabState{Base: base, Data: d.words()})
	}
	n = d.sliceLen(segRec)
	if raw := d.take(segRec * n); raw != nil {
		st.Segments = make([]memory.SegmentState, n)
		for i := range st.Segments {
			o := raw[i*segRec : i*segRec+segRec]
			mark, okM := u2b(o[27])
			freed, okF := u2b(o[28])
			captured, okC := u2b(o[29])
			if !okM || !okF || !okC {
				d.fail("image: malformed boolean")
				break
			}
			st.Segments[i] = memory.SegmentState{
				Base:     memory.AbsAddr(binary.LittleEndian.Uint64(o)),
				Len:      binary.LittleEndian.Uint64(o[8:]),
				Cap:      binary.LittleEndian.Uint64(o[16:]),
				Class:    word.Class(binary.LittleEndian.Uint16(o[24:])),
				Kind:     memory.Kind(o[26]),
				Mark:     mark,
				Freed:    freed,
				Captured: captured,
				Slab:     int32(binary.LittleEndian.Uint32(o[30:])),
			}
		}
	}
	n = d.sliceLen(1 + 4)
	for i := 0; i < n; i++ {
		cls := d.u8()
		st.Free = append(st.Free, memory.FreeClassState{SizeClass: cls, IDs: d.i32s()})
	}
	st.Order = d.i32s()
	return st
}

// --- team ---

func encTeam(e *enc, st *memory.TeamState) {
	e.i64(int64(st.SN))
	e.u64(st.Stats.Translations)
	e.u64(st.Stats.ATLBHits)
	e.u64(st.Stats.Faults)
	e.u32(uint32(len(st.NextSeg)))
	for _, ns := range st.NextSeg {
		e.u8(ns.Exp)
		e.u64(ns.Num)
	}
	e.u32(uint32(len(st.Descriptors)))
	for _, ds := range st.Descriptors {
		e.i32(ds.Seg)
		e.u64(ds.Length)
		e.u16(uint16(ds.Class))
		e.u8(uint8(ds.Rights))
		e.bool(ds.HasForward)
		e.addr(ds.Forward)
	}
	e.u32(uint32(len(st.Bindings)))
	for _, b := range st.Bindings {
		e.u8(b.Key.Exp)
		e.u64(b.Key.Num)
		e.i32(b.Desc)
	}
}

func decTeam(d *dec) *memory.TeamState {
	st := &memory.TeamState{}
	st.SN = int(d.i64())
	st.Stats.Translations = d.u64()
	st.Stats.ATLBHits = d.u64()
	st.Stats.Faults = d.u64()
	n := d.sliceLen(1 + 8)
	for i := 0; i < n; i++ {
		st.NextSeg = append(st.NextSeg, memory.NextSegState{Exp: d.u8(), Num: d.u64()})
	}
	n = d.sliceLen(4 + 8 + 2 + 1 + 1 + 9)
	st.Descriptors = make([]memory.DescriptorState, 0, n)
	for i := 0; i < n; i++ {
		st.Descriptors = append(st.Descriptors, memory.DescriptorState{
			Seg:        d.i32(),
			Length:     d.u64(),
			Class:      word.Class(d.u16()),
			Rights:     memory.Rights(d.u8()),
			HasForward: d.bool(),
			Forward:    d.addr(),
		})
	}
	n = d.sliceLen(1 + 8 + 4)
	st.Bindings = make([]memory.BindingState, 0, n)
	for i := 0; i < n; i++ {
		st.Bindings = append(st.Bindings, memory.BindingState{
			Key:  fpa.SegKey{Exp: d.u8(), Num: d.u64()},
			Desc: d.i32(),
		})
	}
	return st
}

// --- objects ---

func encObjects(e *enc, st *object.ImageState) {
	e.u32(uint32(len(st.AtomNames)))
	for _, s := range st.AtomNames {
		e.str(s)
	}
	e.u16(uint16(st.NextID))
	e.u32(uint32(len(st.Classes)))
	for _, cs := range st.Classes {
		e.u16(uint16(cs.ID))
		e.str(cs.Name)
		e.i32(cs.Super)
		e.u32(uint32(len(cs.Fields)))
		for _, f := range cs.Fields {
			e.str(f)
		}
		e.bool(cs.Indexed)
		e.u32(uint32(len(cs.Slots)))
		for _, ss := range cs.Slots {
			e.bool(ss.Used)
			e.u32(uint32(ss.Sel))
			e.i32(ss.Method)
		}
	}
	e.u32(uint32(len(st.Methods)))
	for _, ms := range st.Methods {
		e.u32(uint32(ms.Selector))
		e.i32(ms.Class)
		e.i32(ms.NumArgs)
		e.i32(ms.NumTemps)
		e.words(ms.Literals)
		e.u32s(ms.Code)
		e.u16(uint16(ms.Primitive))
		e.u32s(ms.StackCode)
		e.u32(ms.CodeBase)
	}
	for _, b := range st.Bootstrap {
		e.i32(b)
	}
}

func decObjects(d *dec) *object.ImageState {
	st := &object.ImageState{}
	n := d.sliceLen(4)
	st.AtomNames = make([]string, 0, n)
	for i := 0; i < n; i++ {
		st.AtomNames = append(st.AtomNames, d.str())
	}
	st.NextID = word.Class(d.u16())
	n = d.sliceLen(2 + 4 + 4 + 4 + 1 + 4)
	st.Classes = make([]object.ClassState, 0, n)
	for i := 0; i < n; i++ {
		cs := object.ClassState{
			ID:    word.Class(d.u16()),
			Name:  d.str(),
			Super: d.i32(),
		}
		nf := d.sliceLen(4)
		for j := 0; j < nf; j++ {
			cs.Fields = append(cs.Fields, d.str())
		}
		cs.Indexed = d.bool()
		ns := d.sliceLen(1 + 4 + 4)
		cs.Slots = make([]object.SlotState, 0, ns)
		for j := 0; j < ns; j++ {
			cs.Slots = append(cs.Slots, object.SlotState{Used: d.bool(), Sel: object.Selector(d.u32()), Method: d.i32()})
		}
		st.Classes = append(st.Classes, cs)
	}
	n = d.sliceLen(4 + 4 + 4 + 4 + 4 + 4 + 2 + 4 + 4)
	st.Methods = make([]object.MethodState, 0, n)
	for i := 0; i < n; i++ {
		st.Methods = append(st.Methods, object.MethodState{
			Selector:  object.Selector(d.u32()),
			Class:     d.i32(),
			NumArgs:   d.i32(),
			NumTemps:  d.i32(),
			Literals:  d.words(),
			Code:      d.u32s(),
			Primitive: object.PrimID(d.u16()),
			StackCode: d.u32s(),
			CodeBase:  d.u32(),
		})
	}
	for i := range st.Bootstrap {
		st.Bootstrap[i] = d.i32()
	}
	return st
}

// --- caches ---

func encCacheStats(e *enc, s cache.Stats) {
	e.u64(s.Hits)
	e.u64(s.Misses)
	e.u64(s.Evictions)
	e.u64(s.Inserts)
	e.u64(s.Flushes)
}

func decCacheStats(d *dec) cache.Stats {
	return cache.Stats{Hits: d.u64(), Misses: d.u64(), Evictions: d.u64(), Inserts: d.u64(), Flushes: d.u64()}
}

func encITLB(e *enc, st itlb.State) {
	e.u64(st.Clock)
	encCacheStats(e, st.CacheStats)
	e.u64(st.Stats.LookupCycles)
	e.u64(st.Stats.Failures)
	e.u32(uint32(len(st.Lines)))
	out := e.grow(itlbRec * len(st.Lines))
	for i, ln := range st.Lines {
		o := out[i*itlbRec : i*itlbRec+itlbRec]
		binary.LittleEndian.PutUint32(o, ln.Index)
		binary.LittleEndian.PutUint64(o[4:], ln.Key)
		binary.LittleEndian.PutUint64(o[12:], ln.Stamp)
		o[20] = b2u(ln.Primitive)
		binary.LittleEndian.PutUint16(o[21:], uint16(ln.PrimID))
		binary.LittleEndian.PutUint32(o[23:], uint32(ln.Method))
	}
}

func decITLB(d *dec) itlb.State {
	st := itlb.State{}
	st.Clock = d.u64()
	st.CacheStats = decCacheStats(d)
	st.Stats.LookupCycles = d.u64()
	st.Stats.Failures = d.u64()
	n := d.sliceLen(itlbRec)
	if raw := d.take(itlbRec * n); raw != nil {
		st.Lines = make([]itlb.LineState, n)
		for i := range st.Lines {
			o := raw[i*itlbRec : i*itlbRec+itlbRec]
			prim, ok := u2b(o[20])
			if !ok {
				d.fail("image: malformed boolean")
				break
			}
			st.Lines[i] = itlb.LineState{
				Index:     binary.LittleEndian.Uint32(o),
				Key:       binary.LittleEndian.Uint64(o[4:]),
				Stamp:     binary.LittleEndian.Uint64(o[12:]),
				Primitive: prim,
				PrimID:    object.PrimID(binary.LittleEndian.Uint16(o[21:])),
				Method:    int32(binary.LittleEndian.Uint32(o[23:])),
			}
		}
	}
	return st
}

// encStructLines encodes a value-free cache (icache, hierarchy levels):
// clock, stats, and the held lines only — sparse, as cache.Export emits
// them — so a 4096-line icache costs bytes only for the lines the machine
// has actually warmed.
func encStructLines(e *enc, clock uint64, stats cache.Stats, lines []cache.LineState[struct{}]) {
	e.u64(clock)
	encCacheStats(e, stats)
	e.u32(uint32(len(lines)))
	out := e.grow(lineRec * len(lines))
	for i, ln := range lines {
		o := out[i*lineRec : i*lineRec+lineRec]
		binary.LittleEndian.PutUint32(o, ln.Index)
		binary.LittleEndian.PutUint64(o[4:], ln.Key)
		binary.LittleEndian.PutUint64(o[12:], ln.Stamp)
	}
}

func decStructLines(d *dec) (uint64, cache.Stats, []cache.LineState[struct{}]) {
	clock := d.u64()
	stats := decCacheStats(d)
	n := d.sliceLen(lineRec)
	raw := d.take(lineRec * n)
	if raw == nil {
		return clock, stats, nil
	}
	lines := make([]cache.LineState[struct{}], n)
	for i := range lines {
		o := raw[i*lineRec : i*lineRec+lineRec]
		lines[i] = cache.LineState[struct{}]{
			Index: binary.LittleEndian.Uint32(o),
			Key:   binary.LittleEndian.Uint64(o[4:]),
			Stamp: binary.LittleEndian.Uint64(o[12:]),
		}
	}
	return clock, stats, lines
}

// --- hierarchy ---

func encHier(e *enc, st *memory.HierarchyState) {
	e.u64(st.Stats.Accesses)
	e.u64(st.Stats.Cycles)
	e.u32(uint32(len(st.Levels)))
	for _, lv := range st.Levels {
		encStructLines(e, lv.Clock, lv.Stats, lv.Lines)
	}
}

func decHier(d *dec) *memory.HierarchyState {
	st := &memory.HierarchyState{}
	st.Stats.Accesses = d.u64()
	st.Stats.Cycles = d.u64()
	n := d.sliceLen(8 + 5*8 + 4)
	for i := 0; i < n; i++ {
		var lv memory.HLevelState
		lv.Clock, lv.Stats, lv.Lines = decStructLines(d)
		st.Levels = append(st.Levels, lv)
	}
	return st
}

// --- free list ---

func encFreeList(e *enc, st *context.FreeListState) {
	e.i32s(st.Free)
	e.u64(st.Allocs)
	e.u64(st.Recycles)
	e.u64(st.Frees)
	e.u64(st.MemoryRefs)
}

func decFreeList(d *dec) *context.FreeListState {
	return &context.FreeListState{
		Free:       d.i32s(),
		Allocs:     d.u64(),
		Recycles:   d.u64(),
		Frees:      d.u64(),
		MemoryRefs: d.u64(),
	}
}

// --- machine ---

func encCoreStats(e *enc, s core.Stats) {
	for _, v := range []uint64{
		s.Instructions, s.Cycles, s.Sends, s.PrimOps, s.ControlOps,
		s.Returns, s.LIFOReturns, s.NonLIFO, s.Branches, s.TakenBranches,
		s.CtxOperandRefs, s.MemRefs, s.MemRefsToCtx, s.CtxAllocs,
		s.ObjAllocs, s.SendCycles, s.LookupCycles,
	} {
		e.u64(v)
	}
}

func decCoreStats(d *dec) core.Stats {
	var s core.Stats
	for _, p := range []*uint64{
		&s.Instructions, &s.Cycles, &s.Sends, &s.PrimOps, &s.ControlOps,
		&s.Returns, &s.LIFOReturns, &s.NonLIFO, &s.Branches, &s.TakenBranches,
		&s.CtxOperandRefs, &s.MemRefs, &s.MemRefsToCtx, &s.CtxAllocs,
		&s.ObjAllocs, &s.SendCycles, &s.LookupCycles,
	} {
		*p = d.u64()
	}
	return s
}

func encMachine(e *enc, st *core.MachineState) {
	e.addr(st.CP)
	e.addr(st.NCP)
	e.i64(int64(st.SN))
	e.bool(st.PS.Privileged)
	encCoreStats(e, st.Stats)
	e.u32(uint32(len(st.SelOps)))
	for _, so := range st.SelOps {
		e.u32(uint32(so.Sel))
		e.u8(uint8(so.Op))
	}
	e.u8(uint8(st.NextDyn))
	e.u32(uint32(len(st.ClassAddrs)))
	for _, ca := range st.ClassAddrs {
		e.i32(ca.Class)
		e.addr(ca.Addr)
	}
	e.words(st.ExtraRoots)
	e.bool(st.Halted)
	e.word(st.Result)
}

func decMachine(d *dec, st *core.MachineState) {
	st.CP = d.addr()
	st.NCP = d.addr()
	st.SN = int(d.i64())
	st.PS.Privileged = d.bool()
	st.Stats = decCoreStats(d)
	n := d.sliceLen(4 + 1)
	st.SelOps = make([]core.SelOpState, 0, n)
	for i := 0; i < n; i++ {
		st.SelOps = append(st.SelOps, core.SelOpState{Sel: object.Selector(d.u32()), Op: isa.Opcode(d.u8())})
	}
	st.NextDyn = isa.Opcode(d.u8())
	n = d.sliceLen(4 + 9)
	for i := 0; i < n; i++ {
		st.ClassAddrs = append(st.ClassAddrs, core.ClassAddrState{Class: d.i32(), Addr: d.addr()})
	}
	st.ExtraRoots = d.words()
	st.Halted = d.bool()
	st.Result = d.word()
}
