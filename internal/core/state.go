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
// Predecoded code (Method.Fast) and the per-site inline caches are
// machine-local and never serialised, matching Method.Clone; a loaded
// machine predecodes on first touch, exactly like a cloned one.

// SelOpState is one selector↔opcode binding of the loader's symbol table.
type SelOpState struct {
	Sel object.Selector
	Op  isa.Opcode
}

// BaseMethodState indexes an installed method by the absolute base of its
// code segment (RIP decoding).
type BaseMethodState struct {
	Base   memory.AbsAddr
	Method int32
}

// ClassObjState maps a class object's segment base to its class.
type ClassObjState struct {
	Base  memory.AbsAddr
	Class int32
}

// ClassAddrState maps a class to its class object's virtual address.
type ClassAddrState struct {
	Class int32
	Addr  fpa.Addr
}

// CtxAddrState maps a recycled context segment base to its virtual name.
type CtxAddrState struct {
	Base memory.AbsAddr
	Addr fpa.Addr
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

	SelOps        []SelOpState
	NextDyn       isa.Opcode
	MethodsByBase []BaseMethodState
	ClassObjs     []ClassObjState
	ClassAddrs    []ClassAddrState
	CtxAddrs      []CtxAddrState

	CtxNameCounter uint64
	ExtraRoots     []word.Word
	Halted         bool
	Result         word.Word
}

// ExportState flattens the snapshot's frozen machine. Map-backed tables
// are exported in sorted order, so identical snapshots export identical
// state (the golden-image and determinism tests lean on this).
func (s *Snapshot) ExportState() (*MachineState, error) {
	m := s.frozen

	// Methods referenced outside every dictionary — displaced by
	// redefinition but still held by the code index or a warm ITLB line —
	// must land in the method table too. Collected in sorted/line order so
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

		NextDyn:        m.nextDyn,
		CtxNameCounter: m.ctxNameCounter,
		ExtraRoots:     slices.Clone(m.extraRoots),
		Halted:         m.halted,
		Result:         m.result,
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
	for _, base := range sortedBases(m.methodsByBase) {
		st.MethodsByBase = append(st.MethodsByBase, BaseMethodState{Base: base, Method: methodID[m.methodsByBase[base]]})
	}
	for _, base := range sortedBases(m.classObjs) {
		cls := m.classObjs[base]
		id, ok := classID[cls]
		if !ok {
			return nil, fmt.Errorf("core: class object at %#x references a class outside the image", uint64(base))
		}
		st.ClassObjs = append(st.ClassObjs, ClassObjState{Base: base, Class: id})
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
	for _, base := range sortedBases(m.ctxAddrs) {
		st.CtxAddrs = append(st.CtxAddrs, CtxAddrState{Base: base, Addr: m.ctxAddrs[base]})
	}
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

// validateConfig rejects configurations that would panic a constructor
// downstream — an imported image is untrusted input.
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
	if cfg.CtxWords < context.SlotArg2+1 || cfg.CtxWords > 1<<16 {
		return fmt.Errorf("core: %d-word contexts out of range", cfg.CtxWords)
	}
	if err := cfg.ICache.Validate(); err != nil {
		return fmt.Errorf("core: icache: %w", err)
	}
	return nil
}

// ImportSnapshot rebuilds a frozen machine and wraps it as a Snapshot.
// Every cross-reference is validated; malformed state returns an error,
// never a panic. Like the per-package importers it calls, it takes
// ownership of the state's backing arrays — a MachineState must not be
// imported twice. The rebuilt snapshot stamps out machines exactly as the
// one it was exported from — same modelled statistics on every surface.
func ImportSnapshot(st *MachineState) (*Snapshot, error) {
	cfg := st.Cfg.withDefaults()
	cfg.OnEvent = nil
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	// Geometry appears both in Cfg and in the owning subsystem's state
	// (the subsystems are authoritative); a skew between the two copies
	// means a corrupt or hand-edited image, and would otherwise load a
	// machine whose Cfg lies about its actual structures.
	if got, want := st.ITLB.Config, (cache.Config{Entries: cfg.ITLB.Entries, Assoc: cfg.ITLB.Assoc, HashSets: true}); got != want {
		return nil, fmt.Errorf("core: ITLB geometry %+v disagrees with config %+v", got, want)
	}
	if st.Team.Format != cfg.Format {
		return nil, fmt.Errorf("core: team address format %+v disagrees with config %+v", st.Team.Format, cfg.Format)
	}
	if st.Team.ATLBEntries != cfg.ATLB.Entries || st.Team.ATLBAssoc != cfg.ATLB.Assoc {
		return nil, fmt.Errorf("core: ATLB geometry %d×%d disagrees with config %+v", st.Team.ATLBEntries, st.Team.ATLBAssoc, cfg.ATLB)
	}
	if st.Free.Words != cfg.CtxWords {
		return nil, fmt.Errorf("core: %d-word pooled contexts disagree with %d-word config", st.Free.Words, cfg.CtxWords)
	}
	if len(st.Hier.Levels) != len(cfg.Hierarchy) {
		return nil, fmt.Errorf("core: %d hierarchy levels disagree with config's %d", len(st.Hier.Levels), len(cfg.Hierarchy))
	}
	for i, lv := range st.Hier.Levels {
		if lv.Level != cfg.Hierarchy[i] {
			return nil, fmt.Errorf("core: hierarchy level %d %+v disagrees with config %+v", i, lv.Level, cfg.Hierarchy[i])
		}
	}
	space, err := memory.ImportSpace(st.Space)
	if err != nil {
		return nil, err
	}
	team, err := memory.ImportTeam(st.Team, space)
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
	classAt := func(id int32) (*object.Class, error) {
		if id < 0 || int(id) >= len(classes) {
			return nil, fmt.Errorf("core: class index %d of %d", id, len(classes))
		}
		return classes[id], nil
	}
	tlb, err := itlb.ImportState(st.ITLB, methodAt)
	if err != nil {
		return nil, err
	}
	ic, err := cache.Import(cfg.ICache, st.ICStats, st.ICClock, st.ICLines, nil)
	if err != nil {
		return nil, fmt.Errorf("core: icache: %w", err)
	}
	hier, err := memory.ImportHierarchy(st.Hier)
	if err != nil {
		return nil, err
	}
	free, err := context.ImportFreeList(st.Free, space)
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
		methodsByBase: make(map[memory.AbsAddr]*object.Method, len(st.MethodsByBase)),
		classObjs:     make(map[memory.AbsAddr]*object.Class, len(st.ClassObjs)),
		classAddr:     make(map[*object.Class]fpa.Addr, len(st.ClassAddrs)),
		ctxAddrs:      make(map[memory.AbsAddr]fpa.Addr, len(st.CtxAddrs)),

		argBuf: make([]word.Word, 0, cfg.CtxWords),

		ctxNameCounter: st.CtxNameCounter,
		extraRoots:     st.ExtraRoots,
		halted:         st.Halted,
		result:         st.Result,
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
	for _, bm := range st.MethodsByBase {
		meth, err := methodAt(bm.Method)
		if err != nil {
			return nil, err
		}
		m.methodsByBase[bm.Base] = meth
	}
	for _, co := range st.ClassObjs {
		cls, err := classAt(co.Class)
		if err != nil {
			return nil, err
		}
		m.classObjs[co.Base] = cls
	}
	for _, ca := range st.ClassAddrs {
		cls, err := classAt(ca.Class)
		if err != nil {
			return nil, err
		}
		m.classAddr[cls] = ca.Addr
	}
	for _, ca := range st.CtxAddrs {
		m.ctxAddrs[ca.Base] = ca.Addr
	}
	return &Snapshot{frozen: m}, nil
}
