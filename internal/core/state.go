package core

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/context"
	"repro/internal/fpa"
	"repro/internal/isa"
	"repro/internal/itlb"
	"repro/internal/memory"
	"repro/internal/object"
	"repro/internal/word"
)

// This file exposes a frozen machine (a core.Snapshot) as plain data for
// the persistent image codec in package image. A snapshot is idle by
// construction — no current/next context, no IP, context cache written
// back and empty, ATLB cold — so what travels is exactly what a clone
// carries: the absolute space, the descriptor table, the static world,
// the warm ITLB/icache/hierarchy replacement state, the context free
// list, the registers, the loader's symbol tables and the statistics.
// Each fact travels once. Geometry lives only in Cfg, and ImportSnapshot
// hands it to each subsystem's importer. The machine's host-side indexes
// — the code index, the class-object index, the context names and their
// counter — are not stored: ImportSnapshot rebuilds them from the space,
// the team and the methods (see indexSegments). Predecoded code
// (Method.Fast) and the per-site inline caches are machine-local and
// never serialised, matching Method.Clone; a loaded machine predecodes on
// first touch, exactly like a cloned one.

// SelOpState is one selector↔opcode binding of the loader's symbol table.
type SelOpState struct {
	Sel object.Selector
	Op  isa.Opcode
}

// ClassAddrState maps a class to its class object's virtual address.
type ClassAddrState struct {
	Class int32
	Addr  fpa.Addr
}

// MachineState is the complete serialisable state of a frozen machine.
type MachineState struct {
	Cfg   Config // OnEvent is dropped: host hooks cannot travel
	Space *memory.SpaceState
	Team  *memory.TeamState
	Image *object.ImageState
	ITLB  itlb.State
	Hier  *memory.HierarchyState
	Free  *context.FreeListState

	ICClock uint64
	ICStats cache.Stats
	ICLines []cache.LineState[struct{}]

	CP, NCP fpa.Addr
	SN      int
	PS      Status
	Stats   Stats

	SelOps     []SelOpState
	NextDyn    isa.Opcode
	ClassAddrs []ClassAddrState

	ExtraRoots []word.Word
	Halted     bool
	Result     word.Word
}

// ExportState flattens the snapshot's frozen machine. Map-backed tables
// are exported in sorted order, so identical snapshots export identical
// state (the golden-image and determinism tests lean on this).
func (s *Snapshot) ExportState() (*MachineState, error) {
	m := s.frozen

	// Methods referenced outside every dictionary — displaced by
	// redefinition but still held by the code index or a warm ITLB line —
	// must land in the method table too: the loader rebuilds the code
	// index from the table's code bases. Collected in sorted/line order so
	// numbering stays deterministic.
	var extras []*object.Method
	for _, bs := range sortedBases(m.methodsByBase) {
		extras = append(extras, m.methodsByBase[bs])
	}
	m.ITLB.EachMethod(func(meth *object.Method) { extras = append(extras, meth) })

	imgState, classID, methodID := m.Image.ExportState(extras)
	spaceState, err := m.Space.ExportState()
	if err != nil {
		return nil, err
	}
	teamState, err := m.Team.ExportState()
	if err != nil {
		return nil, err
	}
	freeState, err := m.Free.ExportState()
	if err != nil {
		return nil, err
	}
	itlbState, err := m.ITLB.ExportState(func(meth *object.Method) (int32, error) {
		id, ok := methodID[meth]
		if !ok {
			return -1, fmt.Errorf("core: ITLB references a method outside the image")
		}
		return id, nil
	})
	if err != nil {
		return nil, err
	}

	cfg := m.Cfg
	cfg.OnEvent = nil
	st := &MachineState{
		Cfg:   cfg,
		Space: spaceState,
		Team:  teamState,
		Image: imgState,
		ITLB:  itlbState,
		Hier:  m.Hier.ExportState(),
		Free:  freeState,

		ICStats: m.IC.Stats,

		CP: m.CP, NCP: m.NCP,
		SN: m.SN, PS: m.PS,
		Stats: m.Stats,

		NextDyn:    m.nextDyn,
		ExtraRoots: slices.Clone(m.extraRoots),
		Halted:     m.halted,
		Result:     m.result,
	}
	st.ICClock, st.ICLines = m.IC.Export()

	sels := make([]object.Selector, 0, len(m.selOp))
	for sel := range m.selOp {
		sels = append(sels, sel)
	}
	slices.Sort(sels)
	for _, sel := range sels {
		st.SelOps = append(st.SelOps, SelOpState{Sel: sel, Op: m.selOp[sel]})
	}
	classIdxs := make([]ClassAddrState, 0, len(m.classAddr))
	for cls, addr := range m.classAddr {
		id, ok := classID[cls]
		if !ok {
			return nil, fmt.Errorf("core: class address table references a class outside the image")
		}
		classIdxs = append(classIdxs, ClassAddrState{Class: id, Addr: addr})
	}
	slices.SortFunc(classIdxs, func(a, b ClassAddrState) int { return int(a.Class) - int(b.Class) })
	st.ClassAddrs = classIdxs
	return st, nil
}

// sortedBases returns a map's AbsAddr keys in ascending order.
func sortedBases[V any](m map[memory.AbsAddr]V) []memory.AbsAddr {
	out := make([]memory.AbsAddr, 0, len(m))
	for base := range m {
		out = append(out, base)
	}
	slices.Sort(out)
	return out
}

// Ceilings on the geometry an imported config may ask for, so that a
// load allocates what its bytes justify. Each sits well above what the
// machine and the experiments use: figures 10 and 11 sweep caches of up
// to 4096 entries, the default icache holds 4096 lines, the default
// hierarchy's main store 65536 blocks, and a context 32 words. At these
// ceilings every cache an import builds totals under 10 MiB.
const (
	maxCacheEntries    = 1 << 16 // the ITLB, the icache, the ATLB and each hierarchy level
	maxHierarchyLevels = 4
	maxCtxWords        = 1 << 10
)

// validateConfig rejects configurations that would panic a constructor
// downstream, or that ask for a cache past its ceiling — an imported
// image is untrusted input, and every importer takes its geometry from
// the config. It runs before any cache is built.
func validateConfig(cfg Config) error {
	if err := cfg.Format.Validate(); err != nil {
		return err
	}
	if cfg.Format.Bits() > 32 {
		return fmt.Errorf("core: %d-bit address format exceeds the 32-bit pointer payload", cfg.Format.Bits())
	}
	if cfg.CtxBlocks < 3 || cfg.CtxBlocks > 64 {
		return fmt.Errorf("core: context cache of %d blocks outside 3..64", cfg.CtxBlocks)
	}
	if cfg.CtxWords < context.SlotArg2+1 || cfg.CtxWords > maxCtxWords {
		return fmt.Errorf("core: %d-word contexts outside %d..%d", cfg.CtxWords, context.SlotArg2+1, maxCtxWords)
	}
	if err := checkCache("ITLB", cache.Config{Entries: cfg.ITLB.Entries, Assoc: cfg.ITLB.Assoc}); err != nil {
		return err
	}
	if err := checkCache("icache", cfg.ICache); err != nil {
		return err
	}
	if err := checkCache("ATLB", cache.Config{Entries: cfg.ATLB.Entries, Assoc: cfg.ATLB.Assoc}); err != nil {
		return err
	}
	if len(cfg.Hierarchy) > maxHierarchyLevels {
		return fmt.Errorf("core: %d hierarchy levels exceed the ceiling of %d", len(cfg.Hierarchy), maxHierarchyLevels)
	}
	for i, lv := range cfg.Hierarchy {
		if err := lv.Validate(); err != nil {
			return fmt.Errorf("core: hierarchy level %d: %w", i, err)
		}
		if err := checkCache(fmt.Sprintf("hierarchy level %d", i), cache.Config{Entries: lv.Entries, Assoc: lv.Assoc}); err != nil {
			return err
		}
	}
	return nil
}

// checkCache refuses a cache geometry cache.New would panic on, or one
// past maxCacheEntries.
func checkCache(name string, c cache.Config) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("core: %s: %w", name, err)
	}
	if c.Entries > maxCacheEntries {
		return fmt.Errorf("core: %s of %d entries exceeds the ceiling of %d", name, c.Entries, maxCacheEntries)
	}
	return nil
}

// ImportSnapshot rebuilds a frozen machine and wraps it as a Snapshot.
// Every cross-reference is validated, and the indexes the state does not
// carry are rebuilt and checked (indexSegments); malformed state returns
// an error, never a panic. Like the per-package importers it calls, it
// takes ownership of the state's backing arrays — a MachineState must not
// be imported twice. The rebuilt snapshot stamps out machines exactly as
// the one it was exported from — same modelled statistics on every
// surface.
func ImportSnapshot(st *MachineState) (*Snapshot, error) {
	cfg := st.Cfg.withDefaults()
	cfg.OnEvent = nil
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	space, err := memory.ImportSpace(st.Space)
	if err != nil {
		return nil, err
	}
	team, err := memory.ImportTeam(st.Team, space, cfg.Format, cfg.ATLB)
	if err != nil {
		return nil, err
	}
	img, classes, methods, err := object.ImportImage(st.Image)
	if err != nil {
		return nil, err
	}
	methodAt := func(id int32) (*object.Method, error) {
		if id < 0 || int(id) >= len(methods) {
			return nil, fmt.Errorf("core: method index %d of %d", id, len(methods))
		}
		return methods[id], nil
	}
	tlb, err := itlb.ImportState(st.ITLB, cfg.ITLB, methodAt)
	if err != nil {
		return nil, err
	}
	ic, err := cache.Import(cfg.ICache, st.ICStats, st.ICClock, st.ICLines, nil)
	if err != nil {
		return nil, fmt.Errorf("core: icache: %w", err)
	}
	hier, err := memory.ImportHierarchy(st.Hier, cfg.Hierarchy)
	if err != nil {
		return nil, err
	}
	free, err := context.ImportFreeList(st.Free, space, cfg.CtxWords, img.Ctx.ID)
	if err != nil {
		return nil, err
	}

	m := &Machine{
		Cfg:   cfg,
		Space: space,
		Team:  team,
		Image: img,
		ITLB:  tlb,
		IC:    ic,
		Ctx:   context.NewCache(space, context.Config{Blocks: cfg.CtxBlocks, BlockWords: cfg.CtxWords}),
		Free:  free,
		Hier:  hier,

		CP:  st.CP,
		NCP: st.NCP,
		SN:  st.SN,
		PS:  st.PS,

		Stats: st.Stats,

		selOp:         make(map[object.Selector]isa.Opcode, len(st.SelOps)),
		opSel:         make(map[isa.Opcode]object.Selector, len(st.SelOps)),
		nextDyn:       st.NextDyn,
		methodsByBase: make(map[memory.AbsAddr]*object.Method),
		classObjs:     make(map[memory.AbsAddr]*object.Class, len(st.ClassAddrs)),
		classAddr:     make(map[*object.Class]fpa.Addr, len(st.ClassAddrs)),
		ctxAddrs:      make(map[memory.AbsAddr]fpa.Addr),

		argBuf: make([]word.Word, 0, cfg.CtxWords),

		extraRoots: st.ExtraRoots,
		halted:     st.Halted,
		result:     st.Result,
	}
	for _, so := range st.SelOps {
		if _, dup := m.selOp[so.Sel]; dup {
			return nil, fmt.Errorf("core: selector %d bound twice", so.Sel)
		}
		if _, dup := m.opSel[so.Op]; dup {
			return nil, fmt.Errorf("core: opcode %d bound twice", so.Op)
		}
		m.selOp[so.Sel] = so.Op
		m.opSel[so.Op] = so.Sel
	}
	for _, ca := range st.ClassAddrs {
		if ca.Class < 0 || int(ca.Class) >= len(classes) {
			return nil, fmt.Errorf("core: class index %d of %d", ca.Class, len(classes))
		}
		m.classAddr[classes[ca.Class]] = ca.Addr
	}
	if err := m.indexSegments(methods); err != nil {
		return nil, err
	}
	return &Snapshot{frozen: m}, nil
}

// indexSegments rebuilds the indexes an image does not store from the
// facts it does, and refuses a state from which the running machine could
// not have built them:
//   - the code index (RIP decoding): InstallMethod gives each method a
//     method segment of its own and points the method's code base just
//     past its literals in it; a code base of 0 marks a method that was
//     never installed in memory;
//   - the class-object index: each class address names a live segment,
//     one segment per class;
//   - the context names: allocContext binds each context segment exactly
//     one name, and contexts are recycled, never unbound, so the names
//     are the contiguous run nextCtxName has handed out, and their count
//     is its counter.
//
// Lookups read the team's table directly, so the ATLB stays cold and the
// translation counters stay as loaded.
func (m *Machine) indexSegments(methods []*object.Method) error {
	segOf := func(a fpa.Addr) (*memory.Segment, bool) {
		d, ok := m.Team.DescriptorFor(a.Key())
		if !ok || d.Seg == nil || d.Seg.Freed {
			return nil, false
		}
		return d.Seg, true
	}
	for i, meth := range methods {
		if meth.CodeBase == 0 {
			continue // never installed in memory (primitives)
		}
		a := m.Cfg.Format.Decode32(meth.CodeBase)
		seg, ok := segOf(a)
		if !ok || seg.Kind != memory.KindMethod || a.Offset() != uint64(len(meth.Literals)) {
			return fmt.Errorf("core: method %d's code base %v is not at its literal offset in a method segment", i, a)
		}
		if _, dup := m.methodsByBase[seg.Base]; dup {
			return fmt.Errorf("core: two methods on the method segment at %#x", uint64(seg.Base))
		}
		m.methodsByBase[seg.Base] = meth
	}
	for cls, a := range m.classAddr {
		seg, ok := segOf(a)
		if !ok {
			return fmt.Errorf("core: class %s's object %v is not a live segment", cls.Name, a)
		}
		if other, dup := m.classObjs[seg.Base]; dup {
			return fmt.Errorf("core: classes %s and %s share the object at %#x", other.Name, cls.Name, uint64(seg.Base))
		}
		m.classObjs[seg.Base] = cls
	}
	var ctxs []*memory.Segment
	m.Space.Live(func(seg *memory.Segment) {
		if seg.Kind == memory.KindContext {
			ctxs = append(ctxs, seg)
		}
	})
	exp := uint8(fpa.MinExpFor(uint64(m.Cfg.CtxWords)))
	limit := m.Cfg.Format.SegmentsAt(uint(exp))
	n := uint64(len(ctxs))
	for _, seg := range ctxs {
		names := m.Team.Names(seg)
		if len(names) != 1 {
			return fmt.Errorf("core: context segment at %#x has %d names, want 1", uint64(seg.Base), len(names))
		}
		// nextCtxName's k-th name is limit−k: with n distinct names in
		// 1..n, the run is complete.
		key := names[0]
		if key.Exp != exp || key.Num >= limit || limit-key.Num > n {
			return fmt.Errorf("core: context name %v is not among the %d names handed out below %#x at exponent %d", key, n, limit, exp)
		}
		a, err := m.Cfg.Format.Make(key, 0)
		if err != nil {
			return err
		}
		m.ctxAddrs[seg.Base] = a
	}
	m.ctxNameCounter = n
	return nil
}
