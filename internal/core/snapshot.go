package core

import (
	"repro/internal/context"
	"repro/internal/fpa"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/object"
	"repro/internal/word"
)

// This file implements image snapshot and clone: a compiled and loaded
// machine is captured once and cheaply stamped out into N independent
// workers, instead of re-running the compiler and loader per machine. The
// clone is deep — absolute space, descriptor tables, image, free list and
// warm ITLB — so two machines never share mutable state and can run on
// different goroutines without synchronisation.

// Snapshot is a frozen machine image. It is immutable after capture:
// NewMachine may be called concurrently from any number of goroutines.
type Snapshot struct {
	frozen *Machine
}

// Snapshot captures the machine's current image. The machine must be idle
// (between sends); snapshotting a machine mid-execution is refused. The
// machine itself is untouched apart from a context-cache writeback and
// remains fully usable.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if m.IP.Valid() || m.Ctx.HasCurrent() || m.Ctx.HasNext() {
		return nil, trapf("snapshot", "machine is mid-send; snapshot requires an idle machine")
	}
	m.Ctx.WritebackAll()
	return &Snapshot{frozen: m.clone()}, nil
}

// NewMachine instantiates an independent machine from the snapshot. Safe
// for concurrent use.
func (s *Snapshot) NewMachine() *Machine { return s.frozen.clone() }

// Stats returns the frozen machine's accounting at capture time. The
// snapshot is immutable, so this is safe for concurrent use.
func (s *Snapshot) Stats() Stats { return s.frozen.Stats }

// clone deep-copies the machine. The receiver must be idle and coherent
// (context cache written back); Snapshot enforces both.
func (m *Machine) clone() *Machine {
	space, segMap := m.Space.Clone()
	img, classMap, methMap := m.Image.Clone()

	// Methods displaced by redefinition are out of every dictionary (so
	// out of methMap) but may still be referenced by methodsByBase or a
	// surviving RIP; clone them on demand so no pointer escapes into the
	// source graph.
	methodOf := func(meth *object.Method) *object.Method {
		if meth == nil {
			return nil
		}
		if nm, ok := methMap[meth]; ok {
			return nm
		}
		nm := meth.Clone(func(c *object.Class) *object.Class {
			if nc, ok := classMap[c]; ok {
				return nc
			}
			return nil
		})
		methMap[meth] = nm
		return nm
	}

	n := &Machine{
		Cfg:   m.Cfg,
		Space: space,
		Team:  m.Team.Clone(space, segMap),
		Image: img,
		ITLB:  m.ITLB.Clone(methodOf),
		IC:    m.IC.Clone(nil),
		Ctx: context.NewCache(space, context.Config{
			Blocks:     m.Ctx.Blocks(),
			BlockWords: m.Ctx.BlockWords(),
		}),
		Free: m.Free.Clone(space, segMap),
		Hier: m.Hier.Clone(),

		CP:  m.CP,
		NCP: m.NCP,
		IP:  CodePtr{Method: methodOf(m.IP.Method), PC: m.IP.PC},
		SN:  m.SN,
		PS:  m.PS,

		Stats: m.Stats,

		selOp:         make(map[object.Selector]isa.Opcode, len(m.selOp)),
		opSel:         make(map[isa.Opcode]object.Selector, len(m.opSel)),
		nextDyn:       m.nextDyn,
		methodsByBase: make(map[memory.AbsAddr]*object.Method, len(m.methodsByBase)),
		classObjs:     make(map[memory.AbsAddr]*object.Class, len(m.classObjs)),
		classAddr:     make(map[*object.Class]fpa.Addr, len(m.classAddr)),
		ctxAddrs:      make(map[memory.AbsAddr]fpa.Addr, len(m.ctxAddrs)),

		// Fast-path state stays machine-local: cloned methods carry no
		// predecoded sites (Method.Clone drops them), so the clone
		// predecodes and re-learns its inline caches against its own
		// ITLB. The context segments' Captured and Pooled flags
		// travelled with the space clone above.
		argBuf: make([]word.Word, 0, m.Cfg.CtxWords),

		ctxNameCounter: m.ctxNameCounter,
		extraRoots:     append([]word.Word(nil), m.extraRoots...),
		halted:         m.halted,
		result:         m.result,
	}
	for sel, op := range m.selOp {
		n.selOp[sel] = op
	}
	for op, sel := range m.opSel {
		n.opSel[op] = sel
	}
	for base, meth := range m.methodsByBase {
		n.methodsByBase[base] = methodOf(meth)
	}
	for base, cls := range m.classObjs {
		n.classObjs[base] = classMap[cls]
	}
	for cls, addr := range m.classAddr {
		n.classAddr[classMap[cls]] = addr
	}
	for base, addr := range m.ctxAddrs {
		n.ctxAddrs[base] = addr
	}
	return n
}
