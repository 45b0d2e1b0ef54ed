package core

import (
	"sync/atomic"
	"time"

	"repro/internal/context"
	"repro/internal/fpa"
	"repro/internal/isa"
	"repro/internal/itlb"
	"repro/internal/memory"
	"repro/internal/object"
	"repro/internal/word"
)

// Send performs a root message send: it builds the initial context pair,
// stages the receiver and arguments in the next context exactly as a
// compiled caller would, dispatches, and runs to completion. It returns
// the value the method returned.
//
// A selector the image never interned names no method, so it is
// answered with the doesNotUnderstand trap a failed lookup raises,
// without interning it: a stream of unknown selectors grows neither the
// atom table nor the dynamic opcode space.
//
// Send owns the send's state from start to end. It runs under the bounds
// Arm set since the previous send, or else the default step budget and
// no deadline. Whatever it returns — an answer, a trap mid-run, or a
// refusal before any context exists — it leaves the machine idle: no
// current or next context, an invalid IP, and no budget or deadline
// armed. The next Send needs no reset.
func (m *Machine) Send(receiver word.Word, selector string, args ...word.Word) (word.Word, error) {
	v, err := m.send(receiver, selector, args)
	m.budget, m.deadline = 0, 0
	if err != nil {
		// A trap can strand the send mid-run: dissolve what it built. A
		// root return has already dissolved the context pair itself.
		m.Abort()
	}
	return v, err
}

// send is Send before its reset.
func (m *Machine) send(receiver word.Word, selector string, args []word.Word) (word.Word, error) {
	sel, known := m.Image.Atoms.Lookup(selector)
	var op isa.Opcode
	if known {
		var err error
		if op, err = m.OpcodeFor(sel); err != nil {
			return word.Word{}, err
		}
	}
	if 4+1+len(args) > m.Cfg.CtxWords {
		return word.Word{}, trapf("resources", "%d arguments exceed the context", len(args))
	}

	// Dispatch exactly as an executed instruction would.
	bClass, err := m.classOfWord(receiver)
	if err != nil {
		return word.Word{}, err
	}
	cClass := word.ClassNone
	if len(args) > 0 {
		if cClass, err = m.classOfWord(args[0]); err != nil {
			return word.Word{}, err
		}
	}
	if !known {
		return word.Word{}, notUnderstood(m.classFor(bClass), selector)
	}
	entry, err := m.translate(op, bClass, cClass)
	if err != nil {
		return word.Word{}, err
	}
	if entry.Primitive {
		// A root send of a pure primitive needs no contexts at all: run
		// the function unit on the values directly.
		return m.primApply(entry.PrimID, op, receiver, args)
	}

	// Root context: its uninitialised RIP is the halt sentinel.
	rootSeg, rootAddr, err := m.allocContext()
	if err != nil {
		return word.Word{}, err
	}
	m.Ctx.AllocNext(rootSeg, word.Nil)
	m.Ctx.Call()
	m.CP = rootAddr

	// Staging context, RCP already pointing back at the root (§3.6:
	// "CP is already stored as RCP in the next context").
	stagSeg, stagAddr, err := m.allocContext()
	if err != nil {
		return word.Word{}, err
	}
	m.Ctx.AllocNext(stagSeg, m.pointerWord(rootAddr))
	m.NCP = stagAddr

	// Stage the call: result into root slot 4, receiver, arguments.
	resAddr, ok2 := rootAddr.WithOffset(4)
	if !ok2 {
		return word.Word{}, trapf("internal", "root result slot out of range")
	}
	m.Ctx.WriteNext(context.SlotResult, m.pointerWord(resAddr))
	m.Ctx.WriteNext(context.SlotReceiver, receiver)
	for i, a := range args {
		m.Ctx.WriteNext(context.SlotArg2+i, a)
	}

	m.halted = false
	m.IP = CodePtr{}
	if err := m.enterMethod(entry.Method, 0); err != nil {
		return word.Word{}, err
	}
	if err := m.Run(); err != nil {
		return word.Word{}, err
	}
	return m.result, nil
}

// Arm bounds the next Send: at most steps interpreted steps (0: the
// config's MaxSteps) and, when d > 0, a wall-clock deadline d after now,
// a Monotonic reading the caller already took. That Send consumes both.
// Its step-0 poll stands for the reading now, which precedes the
// deadline, so arming and starting the run cost no clock read of their
// own. Like every Machine method but Interrupt, Arm may only be called by
// the goroutine driving the machine.
func (m *Machine) Arm(now int64, steps uint64, d time.Duration) {
	m.budget, m.deadline = steps, 0
	if d > 0 {
		m.deadline = now + int64(d)
	}
}

// pollMask sets how often Run polls the asynchronous interrupt flag and
// the wall-clock deadline: every pollMask+1 steps, the interrupt from
// step 0 on. The deadline's step-0 poll is the reading Arm took, so the
// clock is first read at step pollMask+1.
const pollMask = 1023

// Run executes instructions until the root send returns, a trap surfaces,
// the armed step budget is spent, or the deadline/interrupt poll fires.
func (m *Machine) Run() error {
	maxSteps := m.budget
	if maxSteps == 0 {
		maxSteps = m.Cfg.MaxSteps
	}
	for steps := uint64(0); !m.halted; steps++ {
		if steps >= maxSteps {
			return trapf("resources", "step limit %d exceeded", maxSteps)
		}
		if steps&pollMask == 0 {
			if atomic.LoadInt32(&m.interrupt) != 0 {
				return trapf("interrupt", "execution interrupted after %d steps", steps)
			}
			if m.deadline != 0 && steps != 0 && Monotonic() > m.deadline {
				return trapf("timeout", "deadline exceeded after %d steps", steps)
			}
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Interrupt requests that a running machine stop at its next poll point.
// It is the only Machine method safe to call from another goroutine; Run
// returns an "interrupt" trap shortly after. Idle machines are unaffected
// until the flag is cleared.
func (m *Machine) Interrupt() { atomic.StoreInt32(&m.interrupt, 1) }

// ClearInterrupt rearms the machine after an interrupt.
func (m *Machine) ClearInterrupt() { atomic.StoreInt32(&m.interrupt, 0) }

// Abort returns the machine to idle: it dissolves the context pair,
// invalidates the IP and disarms the bounds Arm set. The abandoned
// context chain stays allocated but unreachable; the next garbage
// collection reclaims it. Send calls it whenever it returns a trap, so
// only callers that drive Step or Run themselves need it, after a trap.
// On an idle machine it changes nothing a later send depends on.
func (m *Machine) Abort() {
	m.Ctx.Deactivate()
	m.CP, m.NCP = fpa.Addr{}, fpa.Addr{}
	m.IP = CodePtr{}
	m.halted = false
	m.budget, m.deadline = 0, 0
}

// Step interprets one instruction: the five-step sequence of §3.6
// (fetch, operand read, ITLB, op, write), charged at the paper's rate of
// one instruction per two clocks plus any stall penalties. Code executes
// in its predecoded form (fast.go): no isa.Decode, no operand-kind
// derivation, and the per-site inline caches in front of the instruction
// cache and the ITLB — all without touching the modelled accounting.
func (m *Machine) Step() error {
	meth := m.IP.Method
	if meth == nil {
		return trapf("control", "no method to execute")
	}
	sites := m.ipSites
	if meth != m.ipMeth {
		sites = m.siteArray(meth)
	}
	pc := m.IP.PC
	if pc < 0 || pc >= len(sites) {
		return trapf("control", "PC %d fell off method %v", pc, meth)
	}
	s := &sites[pc]

	// Step 1: fetch through the instruction cache — the site's inline
	// line handle first, one associative probe when it has gone stale.
	ihit := false
	if s.iline != nil {
		_, ihit = m.IC.HitLine(s.iline, s.iaddr)
	}
	if !ihit {
		s.iline, ihit = m.IC.TouchLine(s.iaddr)
	}
	if !ihit {
		m.Stats.Cycles += uint64(m.Cfg.Penalties.ICacheMiss)
	}
	m.IP.PC++
	m.Stats.Instructions++
	m.Stats.Cycles += 2 // base issue rate: one instruction per two clocks

	if s.ctrl {
		m.Stats.ControlOps++
		if m.Cfg.OnEvent != nil {
			m.Cfg.OnEvent(Event{IAddr: s.iaddr, Op: s.in.Op})
		}
		// The three control opcodes that dominate compiled code — moves,
		// conditional jumps, nop — execute inline; the rest (movea, as,
		// tag, xfer, ret) take the execControl call.
		switch s.in.Op {
		case isa.Move:
			var v word.Word
			switch s.b.mode {
			case pCur:
				m.Stats.CtxOperandRefs++
				v = m.Ctx.ReadCur(int(s.b.off))
			case pNext:
				m.Stats.CtxOperandRefs++
				v = m.Ctx.ReadNext(int(s.b.off))
			case pConst:
				v = s.b.lit
			default:
				var err error
				if v, err = m.readPlan(&s.b); err != nil {
					return err
				}
			}
			switch s.a.mode {
			case pCur:
				m.Stats.CtxOperandRefs++
				m.Ctx.WriteCur(int(s.a.off), v)
				return nil
			case pNext:
				m.Stats.CtxOperandRefs++
				m.Ctx.WriteNext(int(s.a.off), v)
				return nil
			}
			return m.writePlan(&s.a, v)
		case isa.FJmp, isa.RJmp:
			return m.execJump(s)
		case isa.Nop:
			return nil
		}
		return m.execControl(s)
	}

	// Step 2: operand read; classes for the ITLB key are resolved here
	// for dispatch opcodes. Zero-operand format (§3.5): with no B
	// operand, the receiver has been staged in the next context by
	// earlier instructions. The common plan modes are unrolled here;
	// readPlan keeps the full story (and the trap messages).
	var b word.Word
	var err error
	switch {
	case s.implicit:
		m.Stats.CtxOperandRefs++
		b = m.Ctx.ReadNext(context.SlotReceiver)
	case s.b.mode == pCur:
		m.Stats.CtxOperandRefs++
		b = m.Ctx.ReadCur(int(s.b.off))
	case s.b.mode == pConst:
		b = s.b.lit
	default:
		if b, err = m.readPlan(&s.b); err != nil {
			return err
		}
	}
	var c word.Word
	hasC := s.c.mode != pNone
	switch s.c.mode {
	case pCur:
		m.Stats.CtxOperandRefs++
		c = m.Ctx.ReadCur(int(s.c.off))
	case pConst:
		c = s.c.lit
	case pNone:
	default:
		if c, err = m.readPlan(&s.c); err != nil {
			return err
		}
	}
	var bClass word.Class
	if b.Tag != word.TagPointer {
		bClass = b.PrimitiveClass()
	} else if bClass, err = m.classOfWord(b); err != nil {
		return err
	}
	cClass := word.ClassNone
	if hasC {
		if c.Tag != word.TagPointer {
			cClass = c.PrimitiveClass()
		} else if cClass, err = m.classOfWord(c); err != nil {
			return err
		}
	}
	if m.Cfg.OnEvent != nil {
		m.Cfg.OnEvent(Event{IAddr: s.iaddr, Op: s.in.Op, B: bClass, C: cClass})
	}

	// Step 3: instruction translation — through the site's inline cache
	// when it still names the same classes and its ITLB line survives.
	var entry itlb.Entry
	hit := false
	if s.icOK && s.icGen == m.icGen && s.icB == bClass && s.icC == cClass && !m.Cfg.NoITLB {
		entry, hit = m.ITLB.HitLine(s.icLine, s.icKey)
	}
	if !hit {
		var ln *itlb.Line
		var packed uint64
		entry, ln, packed, err = m.translateLine(s.in.Op, bClass, cClass)
		if err != nil {
			return err
		}
		if ln != nil {
			s.icB, s.icC, s.icKey, s.icLine = bClass, cClass, packed, ln
			s.icGen, s.icOK = m.icGen, true
		}
	}

	// Steps 4–5: primitive op + write, or the method call sequence. The
	// three register-to-register function units are dispatched directly;
	// everything else stages arguments in the machine's scratch buffer
	// (fixed capacity — the hot loop never heap-allocates) and goes
	// through primApply.
	if entry.Primitive {
		m.Stats.PrimOps++
		var res word.Word
		if !s.implicit && s.in.Op != isa.AtPut {
			cv := c
			if !hasC {
				cv = word.Uninit
			}
			switch entry.PrimID {
			case PrimArith:
				// Integer pairs go straight to the integer unit; mixed
				// and float modes take primArith's full path.
				if bi, iok := b.IntOK(); iok {
					if ci, iok2 := cv.IntOK(); iok2 {
						res, err = m.intArith(s.in.Op, bi, ci)
						break
					}
				}
				res, err = m.primArith(s.in.Op, b, cv)
			case PrimCompare:
				res, err = m.primCompare(s.in.Op, b, cv)
			case PrimBits:
				res, err = m.primBits(s.in.Op, b, cv)
			default:
				args := m.argBuf[:0]
				if hasC {
					args = append(args, c)
				}
				res, err = m.primApply(entry.PrimID, s.in.Op, b, args)
			}
			if err != nil {
				return err
			}
			if s.a.mode == pCur {
				m.Stats.CtxOperandRefs++
				m.Ctx.WriteCur(int(s.a.off), res)
				return nil
			}
			return m.writePlan(&s.a, res)
		}
		args := m.argBuf[:0]
		switch {
		case s.implicit:
			// Arguments were staged in the next context.
			for i := 0; i < entry.Method.NumArgs; i++ {
				m.Stats.CtxOperandRefs++
				args = append(args, m.Ctx.ReadNext(context.SlotArg2+i))
			}
		default:
			// at:put: carries value, receiver, index (§3.4): the A
			// operand is the stored value, not a destination.
			aVal, err := m.readPlan(&s.a)
			if err != nil {
				return err
			}
			args = append(args, c, aVal)
		}
		res, err = m.primApply(entry.PrimID, s.in.Op, b, args)
		if err != nil {
			return err
		}
		if s.implicit {
			// Deliver through the staged result pointer, if any.
			m.Stats.CtxOperandRefs++
			if ptr := m.Ctx.ReadNext(context.SlotResult); ptr.Tag == word.TagPointer {
				return m.storeVirtual(m.addrOf(ptr), res)
			}
			return nil
		}
		if s.in.Op == isa.AtPut {
			return nil // no destination operand
		}
		if s.a.mode == pCur {
			m.Stats.CtxOperandRefs++
			m.Ctx.WriteCur(int(s.a.off), res)
			return nil
		}
		return m.writePlan(&s.a, res)
	}
	return m.callMethod(entry.Method, s, b, c)
}

// fullLookup performs the complete method lookup a TLB miss pays for: the
// selector bound to the opcode, searched through the receiver class's
// dictionary chain, priced in cycles.
func (m *Machine) fullLookup(op isa.Opcode, bClass word.Class) (itlb.Entry, int, error) {
	sel, ok := m.opSel[op]
	if !ok {
		return itlb.Entry{}, 0, trapf("dispatch", "opcode %v has no selector", op)
	}
	cls := m.classFor(bClass)
	meth, cost, found := object.Lookup(cls, sel)
	if !found {
		return itlb.Entry{}, cost.Cycles(), notUnderstood(cls, m.Image.Atoms.Name(sel))
	}
	if meth.Primitive != PrimNone {
		return itlb.Entry{Primitive: true, PrimID: meth.Primitive, Method: meth}, cost.Cycles(), nil
	}
	return itlb.Entry{Method: meth}, cost.Cycles(), nil
}

// notUnderstood is the trap a send raises when no class on the
// receiver's chain binds its selector.
func notUnderstood(cls *object.Class, selector string) *Trap {
	return trapf("doesNotUnderstand", "%s does not understand %s", cls.Name, selector)
}

// translateLine resolves (opcode, classes) through the ITLB — or with a
// full lookup every time under the NoITLB ablation — returning also the
// ITLB line and packed key for the call site's inline cache (nil line
// under NoITLB and on failed lookups, which are never cached).
func (m *Machine) translateLine(op isa.Opcode, bClass, cClass word.Class) (itlb.Entry, *itlb.Line, uint64, error) {
	if m.Cfg.NoITLB {
		e, cycles, err := m.fullLookup(op, bClass)
		m.Stats.Cycles += uint64(cycles)
		m.Stats.LookupCycles += uint64(cycles)
		return e, nil, 0, err
	}
	key := itlb.Key{Op: op, B: bClass, C: cClass}
	if e, ln, ok := m.ITLB.LookupLine(key); ok {
		return e, ln, key.Pack(), nil
	}
	e, cycles, err := m.fullLookup(op, bClass)
	ln := m.ITLB.FillMiss(key, e, cycles, err)
	m.Stats.Cycles += uint64(cycles)
	m.Stats.LookupCycles += uint64(cycles)
	if err != nil {
		return itlb.Entry{}, nil, 0, err
	}
	return e, ln, key.Pack(), nil
}

// translate is translateLine for callers with no instruction site to fill
// (the root send).
func (m *Machine) translate(op isa.Opcode, bClass, cClass word.Class) (itlb.Entry, error) {
	e, _, _, err := m.translateLine(op, bClass, cClass)
	return e, err
}

// effAddr computes the virtual address a context operand names — the
// movea semantics used for result pointers.
func (m *Machine) effAddr(o isa.Operand) (fpa.Addr, error) {
	if !o.IsCtx() {
		return fpa.Addr{}, trapf("decode", "effective address of non-context operand")
	}
	base := m.CP
	if o.CtxNext() {
		base = m.NCP
	}
	a, ok := base.WithOffset(uint64(o.CtxOffset()))
	if !ok {
		return fpa.Addr{}, trapf("decode", "context offset escapes context name")
	}
	return a, nil
}

// callMethod performs the method call sequence of §3.6: the total cost is
// 4 cycles plus one per copied operand — 2 were already charged as the
// instruction's base, so 2 + operands are added here. Zero-operand sends
// (implicit) copy nothing: their arguments were staged by earlier
// instructions, and the call costs exactly 4 cycles.
func (m *Machine) callMethod(meth *object.Method, s *site, b, c word.Word) error {
	m.Stats.Sends++
	// One cycle "for performing the operations listed below"; the
	// pipeline-flush cycle is charged by enterMethod.
	extra := uint64(1)

	// Automatic operand copy into the already-allocated next context.
	// A's effective address is the result pointer; B is the receiver.
	// at:put: is the special case whose three operands are value,
	// receiver, index (§3.4), with no result destination.
	if s.implicit {
		// Nothing to copy.
	} else if s.in.Op == isa.AtPut {
		m.Ctx.WriteNext(context.SlotResult, word.Nil)
		m.Ctx.WriteNext(context.SlotReceiver, b)
		m.Ctx.WriteNext(context.SlotArg2, c)
		if s.a.mode != pNone {
			a, err := m.readPlan(&s.a)
			if err != nil {
				return err
			}
			m.Ctx.WriteNext(context.SlotArg2+1, a)
			extra++
		}
		extra += 2
	} else {
		if s.a.mode != pNone {
			resAddr, err := m.effAddr(s.in.A)
			if err != nil {
				return err
			}
			m.Ctx.WriteNext(context.SlotResult, m.pointerWord(resAddr))
			extra++
		} else {
			m.Ctx.WriteNext(context.SlotResult, word.Nil)
		}
		m.Ctx.WriteNext(context.SlotReceiver, b)
		extra++
		if s.c.mode != pNone {
			m.Ctx.WriteNext(context.SlotArg2, c)
			extra++
		}
	}
	m.Stats.Cycles += extra
	m.Stats.SendCycles += extra + 2 + 1 // + base instruction + flush
	return m.enterMethod(meth, 1)       // the pipeline-flush cycle
}

// enterMethod finishes a call: saves the IP in the current context's RIP,
// promotes the next context, allocates a fresh staging context, and jumps
// to the method's first instruction.
func (m *Machine) enterMethod(meth *object.Method, flushCycles uint64) error {
	m.Stats.Cycles += flushCycles
	if m.IP.Valid() {
		m.Ctx.WriteCur(context.SlotRIP, m.ripWord(m.IP))
	}
	m.Ctx.Call()
	m.CP = m.NCP

	seg, addr, err := m.allocContext()
	if err != nil {
		return err
	}
	m.Ctx.AllocNext(seg, m.pointerWord(m.CP))
	m.NCP = addr

	m.IP = CodePtr{Method: meth, PC: 0}
	m.Ctx.Maintain()
	return nil
}

// execJump interprets the two conditional jumps: forward on false,
// reverse on true, with the branch penalty charged only when taken.
func (m *Machine) execJump(s *site) error {
	var cond word.Word
	var err error
	if s.a.mode == pCur {
		m.Stats.CtxOperandRefs++
		cond = m.Ctx.ReadCur(int(s.a.off))
	} else if cond, err = m.readPlan(&s.a); err != nil {
		return err
	}
	var dispw word.Word
	if s.b.mode == pConst {
		dispw = s.b.lit
	} else if dispw, err = m.readPlan(&s.b); err != nil {
		return err
	}
	disp, ok := dispw.IntOK()
	if !ok {
		return trapf("decode", "jump displacement %v is not an integer", dispw)
	}
	m.Stats.Branches++
	taken := !cond.Truthy()
	if s.in.Op == isa.RJmp {
		taken = cond.Truthy()
	}
	if taken {
		m.Stats.TakenBranches++
		m.Stats.Cycles += uint64(m.Cfg.Penalties.Branch)
		if s.in.Op == isa.FJmp {
			m.IP.PC += int(disp)
		} else {
			m.IP.PC -= int(disp)
		}
		if m.IP.PC < 0 || m.IP.PC > len(m.IP.Method.Code) {
			return trapf("control", "jump to %d outside method %v", m.IP.PC, m.IP.Method)
		}
	}
	return nil
}

// execControl interprets the control opcodes that Step does not handle
// inline (moves, jumps and nop never reach here).
func (m *Machine) execControl(s *site) error {
	switch s.in.Op {
	case isa.Nop:
		return nil

	case isa.Movea:
		a, err := m.effAddr(s.in.B)
		if err != nil {
			return err
		}
		return m.writePlan(&s.a, m.pointerWord(a))

	case isa.As:
		if !m.PS.Privileged {
			return trapf("privilege", "as requires privileged status")
		}
		v, err := m.readPlan(&s.b)
		if err != nil {
			return err
		}
		tagw, err := m.readPlan(&s.c)
		if err != nil {
			return err
		}
		tv, ok := tagw.IntOK()
		if !ok || tv < 0 || tv >= word.NumTags {
			return trapf("decode", "bad tag value %v", tagw)
		}
		return m.writePlan(&s.a, word.Word{Tag: word.Tag(tv), Bits: v.Bits})

	case isa.TagOf:
		v, err := m.readPlan(&s.b)
		if err != nil {
			return err
		}
		return m.writePlan(&s.a, word.FromInt(int32(v.Tag)))

	case isa.FJmp, isa.RJmp:
		return m.execJump(s)

	case isa.Xfer:
		return m.execXfer()

	case isa.Ret:
		return m.execReturn(s)
	}
	return trapf("decode", "unimplemented control opcode %v", s.in.Op)
}

// execXfer implements the general control transfer of §3.3: the current
// and next contexts exchange roles, with the IP saved into and restored
// from the RIP slots. Both contexts escape LIFO discipline.
func (m *Machine) execXfer() error {
	m.Ctx.CurrentSegment().Captured = true
	m.Ctx.NextSegment().Captured = true
	m.Ctx.WriteCur(context.SlotRIP, m.ripWord(m.IP))
	m.Ctx.SwapCurrentNext()
	m.CP, m.NCP = m.NCP, m.CP
	rip := m.Ctx.ReadCur(context.SlotRIP)
	if rip.IsUninit() {
		return trapf("control", "xfer into a context with no continuation")
	}
	ip, err := m.decodeRIP(rip)
	if err != nil {
		return err
	}
	m.IP = ip
	return nil
}

// execReturn implements the 2-cycle return of §3.6: deliver the result
// through the caller-supplied result pointer, recycle the context when it
// is LIFO, reactivate the caller and restore its continuation.
func (m *Machine) execReturn(s *site) error {
	m.Stats.Returns++
	var result word.Word = word.Nil
	if s.a.mode != pNone {
		v, err := m.readPlan(&s.a)
		if err != nil {
			return err
		}
		result = v
	}
	resPtr := m.Ctx.ReadCur(context.SlotResult)
	rcp := m.Ctx.ReadCur(context.SlotRCP)
	if rcp.Tag != word.TagPointer {
		return trapf("control", "return with no calling context (RCP=%v)", rcp)
	}
	callerAddr := m.addrOf(rcp)
	callerSeg, _, _, fault := m.Team.Translate(callerAddr, memory.RW)
	if fault != nil {
		return trapf("control", "RCP does not translate: %v", fault)
	}

	curBase := m.Ctx.CurrentBase()
	if m.Ctx.CurrentSegment().Captured {
		m.Stats.NonLIFO++
		m.Ctx.ReturnNonLIFO(callerSeg.Base)
		// The surviving staging context's RCP must now name the new
		// current context.
		m.Ctx.WriteNext(context.SlotRCP, rcp)
	} else {
		m.Stats.LIFOReturns++
		staging, hit := m.Ctx.ReturnLIFO(callerSeg.Base)
		m.Free.Free(staging)
		if !hit {
			m.Stats.Cycles += uint64(m.Cfg.Penalties.CtxFault)
		}
		m.NCP = m.ctxAddrs[curBase]
	}
	m.CP = m.ctxAddrs[callerSeg.Base]

	// Deliver the result through the result pointer.
	if resPtr.Tag == word.TagPointer {
		if err := m.storeVirtual(m.addrOf(resPtr), result); err != nil {
			return err
		}
	}

	// Restore the continuation; an uninitialised RIP is the root
	// sentinel planted by Send, dissolving the context pair.
	rip := m.Ctx.ReadCur(context.SlotRIP)
	if rip.IsUninit() {
		m.halted = true
		m.result = result
		m.IP = CodePtr{}
		rootBase := m.Ctx.CurrentBase()
		rootSeg := m.Ctx.CurrentSegment()
		stagBase := m.Ctx.NextBase()
		stagSeg := m.Ctx.NextSegment()
		m.Ctx.Deactivate()
		m.Ctx.Release(stagBase)
		m.Ctx.Release(rootBase)
		m.Free.Free(stagSeg)
		m.Free.Free(rootSeg)
		m.CP, m.NCP = fpa.Addr{}, fpa.Addr{}
		return nil
	}
	ip, err := m.decodeRIP(rip)
	if err != nil {
		return err
	}
	m.IP = ip
	return nil
}

// storeVirtual writes a word through a virtual address: context objects go
// through the context cache (associating on the absolute address), others
// through the memory hierarchy.
func (m *Machine) storeVirtual(a fpa.Addr, w word.Word) error {
	seg, off, _, fault := m.Team.Translate(a, memory.Write)
	if fault != nil {
		if resolved, ok := memory.Resolve(fault); ok {
			return m.storeVirtual(resolved, w)
		}
		return trapf("addressing", "store to %v: %v", a, fault)
	}
	m.Stats.MemRefs++
	if seg.Kind == memory.KindContext {
		m.Stats.MemRefsToCtx++
		m.Ctx.WriteAbs(seg.Base, int(off), w)
		return nil
	}
	m.Stats.Cycles += uint64(m.Hier.Access(seg.Base + memory.AbsAddr(off)))
	seg.Data[off] = w
	return nil
}

// loadVirtual reads a word through a virtual address, by the same paths.
func (m *Machine) loadVirtual(a fpa.Addr) (word.Word, error) {
	seg, off, _, fault := m.Team.Translate(a, memory.Read)
	if fault != nil {
		if resolved, ok := memory.Resolve(fault); ok {
			return m.loadVirtual(resolved)
		}
		return word.Word{}, trapf("addressing", "load from %v: %v", a, fault)
	}
	m.Stats.MemRefs++
	if seg.Kind == memory.KindContext {
		m.Stats.MemRefsToCtx++
		v, _ := m.Ctx.ReadAbs(seg.Base, int(off))
		return v, nil
	}
	m.Stats.Cycles += uint64(m.Hier.Access(seg.Base + memory.AbsAddr(off)))
	return seg.Data[off], nil
}
