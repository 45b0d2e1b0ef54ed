package core

import (
	"repro/internal/fpa"
	"repro/internal/memory"
	"repro/internal/object"
	"repro/internal/word"
)

// InstallMethod places a compiled method into the image and into memory:
// its literals and code become a method segment in absolute space, giving
// every instruction a real virtual address (the instruction cache and the
// RIP encoding both need one). Redefinition invalidates stale ITLB entries
// — the paper's smooth extensibility: no caller changes, only translations.
func (m *Machine) InstallMethod(cls *object.Class, meth *object.Method) error {
	if old, _, ok := cls.LocalLookup(meth.Selector); ok {
		m.ITLB.InvalidateMethod(old)
		// Drop every per-site inline cache with the ITLB entries: a site
		// still naming the displaced method must re-probe and re-learn.
		m.icGen++
	}
	if _, err := m.OpcodeFor(meth.Selector); err != nil {
		return err
	}
	size := uint64(len(meth.Literals) + len(meth.Code))
	if size == 0 {
		size = 1
	}
	addr, seg, err := m.Team.Alloc(size, m.Image.Object.ID, memory.KindMethod, memory.Read|memory.Execute)
	if err != nil {
		return err
	}
	for i, lit := range meth.Literals {
		seg.Data[i] = lit
	}
	for i, enc := range meth.Code {
		seg.Data[len(meth.Literals)+i] = word.FromInstruction(enc)
	}
	codeAddr, ok := addr.WithOffset(uint64(len(meth.Literals)))
	if !ok {
		// A method too large for its exponent; allocate with explicit
		// headroom instead. This cannot happen for Alloc-chosen
		// exponents, but guard anyway.
		return trapf("loader", "method %v code does not fit its segment", meth)
	}
	enc32, err := m.Cfg.Format.Encode32(codeAddr)
	if err != nil {
		return err
	}
	meth.CodeBase = enc32
	m.methodsByBase[seg.Base] = meth
	cls.Install(meth)
	if len(meth.Code) > 0 {
		m.predecode(meth) // needs CodeBase; Step would do it lazily anyway
	}
	return nil
}

// ripWord encodes a CodePtr as a single pointer word into the method's
// code area — "the pointer encodes both the method object and the offset
// within the method" (§4).
func (m *Machine) ripWord(p CodePtr) word.Word {
	base := m.Cfg.Format.Decode32(p.Method.CodeBase)
	a, ok := base.Add(uint64(p.PC))
	if !ok {
		panic("core: RIP offset escapes method segment")
	}
	return m.pointerWord(a)
}

// decodeRIP inverts ripWord.
func (m *Machine) decodeRIP(w word.Word) (CodePtr, error) {
	if w.Tag != word.TagPointer {
		return CodePtr{}, trapf("control", "RIP is not a pointer: %v", w)
	}
	a := m.addrOf(w)
	seg, off, _, fault := m.Team.Translate(a, memory.Execute)
	if fault != nil {
		return CodePtr{}, trapf("control", "RIP %v does not translate: %v", a, fault)
	}
	meth, ok := m.methodsByBase[seg.Base]
	if !ok {
		return CodePtr{}, trapf("control", "RIP %v is not in a method segment", a)
	}
	pc := int(off) - len(meth.Literals)
	if pc < 0 || pc > len(meth.Code) {
		return CodePtr{}, trapf("control", "RIP offset %d outside method %v", pc, meth)
	}
	return CodePtr{Method: meth, PC: pc}, nil
}

// allocContext produces a context segment plus its (stable) virtual
// address. Recycled contexts keep the virtual name bound when they were
// first created. A fresh context needs a fresh name: once nextCtxName
// has handed out every name at the context exponent, and the free list
// holds no named context to recycle, the allocation traps instead.
func (m *Machine) allocContext() (*memory.Segment, fpa.Addr, error) {
	if m.Free.Len() == 0 && m.ctxNameCounter >= m.Cfg.Format.SegmentsAt(fpa.MinExpFor(uint64(m.Cfg.CtxWords))) {
		return nil, fpa.Addr{}, trapf("resources", "context names exhausted (%d handed out)", m.ctxNameCounter)
	}
	m.Stats.CtxAllocs++
	seg := m.Free.Alloc()
	if a, ok := m.ctxAddrs[seg.Base]; ok {
		seg.Captured = false
		return seg, a, nil
	}
	// First use: bind a virtual name covering the whole context.
	exp := uint8(fpa.MinExpFor(uint64(m.Cfg.CtxWords)))
	key := fpa.SegKey{Exp: exp, Num: m.nextCtxName()}
	m.Team.Bind(key, &memory.Descriptor{
		Seg:    seg,
		Length: uint64(m.Cfg.CtxWords),
		Class:  m.Image.Ctx.ID,
		Rights: memory.RW,
	})
	a, err := m.Cfg.Format.Make(key, 0)
	if err != nil {
		panic(err)
	}
	m.ctxAddrs[seg.Base] = a
	return seg, a, nil
}

// nextCtxName hands out fresh integer parts for context names at the
// context exponent, counting down from the top of the space so compiler-
// visible object names (counting up) never collide with them.
func (m *Machine) nextCtxName() uint64 {
	exp := fpa.MinExpFor(uint64(m.Cfg.CtxWords))
	limit := m.Cfg.Format.SegmentsAt(exp)
	m.ctxNameCounter++
	return limit - m.ctxNameCounter
}

// NewInstance allocates an instance of a class: the named fields plus
// indexed words. It returns the pointer word.
func (m *Machine) NewInstance(cls *object.Class, indexed int) (word.Word, error) {
	m.Stats.ObjAllocs++
	size := uint64(cls.FixedSize() + indexed)
	if size == 0 {
		size = 1
	}
	addr, _, err := m.Team.Alloc(size, cls.ID, memory.KindObject, memory.RW)
	if err != nil {
		return word.Word{}, err
	}
	return m.pointerWord(addr), nil
}
