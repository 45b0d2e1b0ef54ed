package core

import (
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/itlb"
	"repro/internal/object"
	"repro/internal/word"
)

// This file implements the interpreter fast path: methods are predecoded
// once into a per-machine site array, and each site carries two inline
// caches — one in front of the instruction cache, one in front of the
// ITLB. Both are pure simulator accelerations: a site hit replays exactly
// the bookkeeping the associative probe would have performed (see
// cache.HitLine), so modelled cycles, hit ratios and replacement decisions
// are bit-identical to probing the caches on every step.

// Operand plans classify an operand descriptor once, at predecode time.
// The two invalid modes defer the trap: a bad descriptor traps when
// executed, not when loaded.
const (
	pNone     uint8 = iota // absent operand
	pCur                   // word off of the current context
	pNext                  // word off of the next context
	pConst                 // method constant, resolved into lit
	pBadCtx                // context offset outside the machine's context
	pBadConst              // constant index outside the method's table
)

// plan is one predecoded operand: its mode, its context offset or
// constant index, and — for constants — the resolved value (the constant
// generator is free, §3.4, so resolving it at predecode time models
// nothing away).
type plan struct {
	mode uint8
	off  uint16
	lit  word.Word
}

// site is one predecoded instruction together with its inline caches.
type site struct {
	in       isa.Instr
	ctrl     bool // KindControl: bypasses dispatch
	implicit bool // dispatch with no B operand: receiver staged in next ctx
	a, b, c  plan

	// iaddr is the instruction's absolute code address; iline is the
	// inline handle on the instruction cache line that served it last.
	iaddr uint64
	iline *cache.Line[struct{}]

	// Monomorphic inline cache in front of the ITLB: the last (bClass,
	// cClass) dispatched from this site, the packed ITLB key it formed,
	// and the ITLB line that answered. icGen invalidates every site at
	// once when translations are dropped (method redefinition, flush).
	icB, icC word.Class
	icKey    uint64
	icLine   *itlb.Line
	icGen    uint64
	icOK     bool
}

// mcode is the predecoded form of one method, hung off Method.Fast. It is
// machine-local: object.Method.Clone drops it, so inline-cache line
// pointers never escape into another machine's caches.
type mcode struct {
	sites []site
}

// siteArray returns the predecoded sites for a method, predecoding on
// first touch and memoising the binding for the common run of steps inside
// one method.
func (m *Machine) siteArray(meth *object.Method) []site {
	if mc, ok := meth.Fast.(*mcode); ok {
		m.ipMeth, m.ipSites = meth, mc.sites
		return mc.sites
	}
	mc := m.predecode(meth)
	m.ipMeth, m.ipSites = meth, mc.sites
	return mc.sites
}

// predecode decodes every code word of the method once, plans its
// operands, and installs the result on Method.Fast.
func (m *Machine) predecode(meth *object.Method) *mcode {
	sites := make([]site, len(meth.Code))
	for pc, enc := range meth.Code {
		in := isa.Decode(enc)
		s := &sites[pc]
		s.in = in
		s.ctrl = in.Op.Kind() == isa.KindControl
		s.implicit = in.B.IsNone()
		s.iaddr = uint64(meth.CodeBase) + uint64(pc)
		s.a = m.planOperand(meth, in.A)
		s.b = m.planOperand(meth, in.B)
		s.c = m.planOperand(meth, in.C)
	}
	mc := &mcode{sites: sites}
	meth.Fast = mc
	return mc
}

// planOperand classifies one operand descriptor against this machine's
// context geometry and the method's constant table.
func (m *Machine) planOperand(meth *object.Method, o isa.Operand) plan {
	switch {
	case o.IsNone():
		return plan{mode: pNone}
	case o.IsConst():
		idx := o.ConstIndex()
		if idx >= len(meth.Literals) {
			return plan{mode: pBadConst, off: uint16(idx)}
		}
		return plan{mode: pConst, off: uint16(idx), lit: meth.Literals[idx]}
	default:
		off := o.CtxOffset()
		if off >= m.Cfg.CtxWords {
			return plan{mode: pBadCtx, off: uint16(off)}
		}
		if o.CtxNext() {
			return plan{mode: pNext, off: uint16(off)}
		}
		return plan{mode: pCur, off: uint16(off)}
	}
}

// readPlan fetches an operand through its plan: context words through the
// context cache (one CtxOperandRefs each), constants resolved at predecode
// time (the constant generator is free).
func (m *Machine) readPlan(p *plan) (word.Word, error) {
	switch p.mode {
	case pCur:
		m.Stats.CtxOperandRefs++
		return m.Ctx.ReadCur(int(p.off)), nil
	case pNext:
		m.Stats.CtxOperandRefs++
		return m.Ctx.ReadNext(int(p.off)), nil
	case pConst:
		return p.lit, nil
	case pNone:
		return word.Word{}, trapf("decode", "missing operand")
	case pBadConst:
		return word.Word{}, trapf("decode", "constant %d outside table of %d", int(p.off), len(m.IP.Method.Literals))
	default: // pBadCtx
		return word.Word{}, trapf("decode", "context offset %d outside %d-word context", int(p.off), m.Cfg.CtxWords)
	}
}

// writePlan stores a result through its plan; only context operands are
// writable, and an absent one discards the result.
func (m *Machine) writePlan(p *plan, w word.Word) error {
	switch p.mode {
	case pCur:
		m.Stats.CtxOperandRefs++
		m.Ctx.WriteCur(int(p.off), w)
		return nil
	case pNext:
		m.Stats.CtxOperandRefs++
		m.Ctx.WriteNext(int(p.off), w)
		return nil
	case pNone:
		return nil // results may be discarded
	case pConst, pBadConst:
		return trapf("decode", "constant operand is not writable")
	default: // pBadCtx
		return trapf("decode", "context offset %d outside %d-word context", int(p.off), m.Cfg.CtxWords)
	}
}
