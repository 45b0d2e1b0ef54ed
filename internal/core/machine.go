// Package core implements the Caltech Object Machine itself (§3): six
// processor registers, tagged memory, abstract three-address instructions
// resolved through the ITLB, hardware context allocation backed by the
// context cache, and the five-step interpretation sequence with the
// paper's cycle costs.
//
// The machine is built from the substrate packages: word (tags), fpa
// (floating point addresses), memory (three address spaces + ATLB), itlb
// (instruction translation), context (free list + context cache), object
// (classes and method dictionaries) and isa (encoding).
//
// # The interpreter fast path
//
// Step executes predecoded code: each method's instruction words are
// decoded once into a per-machine site array (see fast.go), and every
// site carries two monomorphic inline caches — one in front of the
// instruction cache, one in front of the ITLB — holding the cache line
// that served the site last. This is the software analogue of the paper's
// own argument: the ITLB turns a costly method lookup into a one-cycle
// translation (§2.1), and the inline caches turn the simulator's hash-
// and-scan model of that translation into one pointer chase.
//
// Modelled cycles and statistics are unaffected, by construction: an
// inline-cache hit replays exactly the bookkeeping of the associative
// probe it short-circuits (recency stamp, clock advance, hit counter; see
// cache.HitLine), and a stale site falls back to the probe, which then
// counts the access. The machine simulated is therefore the same whatever
// the inline caches hold: package workload's TestFastPathStatsParity runs
// every suite program with warm inline caches and with every site array
// dropped every 64 instructions, and its machine.golden.json pins the
// accounting against history.
package core

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/context"
	"repro/internal/fpa"
	"repro/internal/isa"
	"repro/internal/itlb"
	"repro/internal/memory"
	"repro/internal/object"
	"repro/internal/word"
)

// Primitive function-unit identifiers: the values an ITLB entry's method
// field selects when its primitive bit is set.
const (
	PrimNone object.PrimID = iota
	PrimArith
	PrimBits
	PrimCompare
	PrimAt
	PrimAtPut
	PrimNew
	PrimNewN
	PrimSize
	PrimClassOf
	PrimIdentity
	PrimGrow // grow: n — reallocates the receiver with a wider exponent (§2.2)
)

// Penalties are the cycle charges beyond the base issue rate. A Config
// that leaves them zero gets DefaultPenalties.
type Penalties struct {
	ICacheMiss int // instruction cache miss
	CtxFault   int // context cache block fill from memory
	ATLBMiss   int // segment table walk
	Branch     int // taken branch (delayed one clock, §3.6)
}

// DefaultPenalties price every modelled cycle count the experiments in
// internal/experiments report.
var DefaultPenalties = Penalties{ICacheMiss: 4, CtxFault: 32, ATLBMiss: 6, Branch: 1}

// Event is one executed instruction, reported to the optional trace hook:
// the instruction's code address, its opcode, and the dispatch classes.
// This is the COM-side equivalent of the Fith trace records of §5.
type Event struct {
	IAddr uint64
	Op    isa.Opcode
	B, C  word.Class
}

// Config assembles a machine.
type Config struct {
	Format     fpa.Format
	CtxWords   int
	CtxBlocks  int
	ITLB       itlb.Config
	ICache     cache.Config
	ATLB       memory.ATLBConfig
	Hierarchy  []memory.Level
	Penalties  Penalties
	MaxSteps   uint64 // step budget of a Send that Arm did not bound; 0 means the default
	NoITLB     bool   // ablation: perform full method lookup on every dispatch
	Privileged bool   // initial PS privilege (allows the as instruction)

	// OnEvent, when set, receives every executed instruction.
	OnEvent func(Event)
}

// DefaultMaxSteps bounds runaway programs.
const DefaultMaxSteps = 50_000_000

func (c Config) withDefaults() Config {
	if c.Format == (fpa.Format{}) {
		c.Format = fpa.COM32
	}
	if c.CtxWords == 0 {
		c.CtxWords = context.DefaultWords
	}
	if c.CtxBlocks == 0 {
		c.CtxBlocks = context.DefaultBlocks
	}
	if c.ITLB.Entries == 0 {
		c.ITLB = itlb.DefaultConfig
	}
	if c.ICache.Entries == 0 {
		c.ICache = cache.Config{Entries: 4096, Assoc: 2, HashSets: true}
	}
	if c.ATLB.Entries == 0 {
		c.ATLB = memory.ATLBConfig{Entries: 256, Assoc: 2}
	}
	if c.Penalties == (Penalties{}) {
		c.Penalties = DefaultPenalties
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = DefaultMaxSteps
	}
	return c
}

// Stats is the machine's cycle and reference accounting.
type Stats struct {
	Instructions uint64
	Cycles       uint64

	Sends       uint64 // non-primitive method calls
	PrimOps     uint64 // primitive dispatches executed by function units
	ControlOps  uint64
	Returns     uint64
	LIFOReturns uint64
	NonLIFO     uint64

	Branches      uint64
	TakenBranches uint64

	CtxOperandRefs uint64 // operand reads/writes to contexts
	MemRefs        uint64 // at:/at:put: references
	MemRefsToCtx   uint64 // ...of which to context objects

	CtxAllocs uint64 // context allocations, including free-list recycles
	ObjAllocs uint64 // runtime object allocations (new, new:, grow:)

	SendCycles   uint64 // cycles attributable to call sequences
	LookupCycles uint64 // cycles spent in full method lookup (ITLB misses / NoITLB)
}

// Add accumulates another machine's counters into s — the serve pool's
// cross-shard aggregation. Kept beside the struct so a new counter cannot
// be forgotten by a distant hand-written sum.
func (s *Stats) Add(o Stats) {
	s.Instructions += o.Instructions
	s.Cycles += o.Cycles
	s.Sends += o.Sends
	s.PrimOps += o.PrimOps
	s.ControlOps += o.ControlOps
	s.Returns += o.Returns
	s.LIFOReturns += o.LIFOReturns
	s.NonLIFO += o.NonLIFO
	s.Branches += o.Branches
	s.TakenBranches += o.TakenBranches
	s.CtxOperandRefs += o.CtxOperandRefs
	s.MemRefs += o.MemRefs
	s.MemRefsToCtx += o.MemRefsToCtx
	s.CtxAllocs += o.CtxAllocs
	s.ObjAllocs += o.ObjAllocs
	s.SendCycles += o.SendCycles
	s.LookupCycles += o.LookupCycles
}

// Sub removes another snapshot's counters from s, yielding the delta
// between two points in one machine's life — the per-request accounting a
// slow-request capture reports. Kept beside Add for the same reason.
func (s *Stats) Sub(o Stats) {
	s.Instructions -= o.Instructions
	s.Cycles -= o.Cycles
	s.Sends -= o.Sends
	s.PrimOps -= o.PrimOps
	s.ControlOps -= o.ControlOps
	s.Returns -= o.Returns
	s.LIFOReturns -= o.LIFOReturns
	s.NonLIFO -= o.NonLIFO
	s.Branches -= o.Branches
	s.TakenBranches -= o.TakenBranches
	s.CtxOperandRefs -= o.CtxOperandRefs
	s.MemRefs -= o.MemRefs
	s.MemRefsToCtx -= o.MemRefsToCtx
	s.CtxAllocs -= o.CtxAllocs
	s.ObjAllocs -= o.ObjAllocs
	s.SendCycles -= o.SendCycles
	s.LookupCycles -= o.LookupCycles
}

// RefsToContextShare returns the fraction of all memory references that hit
// contexts — the paper's 91% claim (§2.3).
func (s Stats) RefsToContextShare() float64 {
	total := s.CtxOperandRefs + s.MemRefs
	if total == 0 {
		return 0
	}
	return float64(s.CtxOperandRefs+s.MemRefsToCtx) / float64(total)
}

// ContextAllocShare returns the fraction of runtime allocations that were
// contexts — the paper's 85% claim (§2.3).
func (s Stats) ContextAllocShare() float64 {
	total := s.CtxAllocs + s.ObjAllocs
	if total == 0 {
		return 0
	}
	return float64(s.CtxAllocs) / float64(total)
}

// LIFOShare returns the fraction of returns that recycled their context
// immediately — the paper's 85% claim (§2.3).
func (s Stats) LIFOShare() float64 {
	if s.Returns == 0 {
		return 0
	}
	return float64(s.LIFOReturns) / float64(s.Returns)
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// Trap is a machine-level error: the COM's trap mechanism surfaced to Go.
type Trap struct {
	Kind string
	Msg  string
}

// Error implements error.
func (t *Trap) Error() string { return fmt.Sprintf("com: %s trap: %s", t.Kind, t.Msg) }

func trapf(kind, format string, args ...any) *Trap {
	return &Trap{Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// Machine is one COM processor plus its memory system.
type Machine struct {
	Cfg   Config
	Space *memory.Space
	Team  *memory.Team
	Image *object.Image
	ITLB  *itlb.ITLB
	IC    *cache.Cache[struct{}]
	Ctx   *context.Cache
	Free  *context.FreeList
	Hier  *memory.Hierarchy

	// Processor registers (§3.2). CP and NCP are the virtual addresses of
	// the current and next contexts; their absolute pretranslations live
	// in the context cache's current/next vectors. FP is inside Free. SN
	// is the team space number; PS the status word.
	CP  fpa.Addr
	NCP fpa.Addr
	IP  CodePtr
	SN  int
	PS  Status

	Stats Stats

	// Selector ↔ opcode assignment (the loader's symbol table).
	selOp   map[object.Selector]isa.Opcode
	opSel   map[isa.Opcode]object.Selector
	nextDyn isa.Opcode

	// Installed methods by the absolute base of their code segment, for
	// RIP decoding, plus class objects.
	methodsByBase map[memory.AbsAddr]*object.Method
	classObjs     map[memory.AbsAddr]*object.Class
	classAddr     map[*object.Class]fpa.Addr

	ctxNameCounter uint64
	extraRoots     []word.Word

	// budget and deadline are the bounds Arm set for the next Send: its
	// step budget (0: Cfg.MaxSteps) and its wall-clock deadline as a
	// Monotonic reading (0: none). Abort clears both.
	budget   uint64
	deadline int64
	// interrupt is an asynchronous stop request, set from other goroutines
	// via Interrupt and polled by Run at the deadline cadence.
	interrupt int32

	// Interpreter fast-path state: the method whose predecoded sites are
	// bound (with the sites themselves), the inline-cache generation that
	// invalidates every site at once, and the scratch buffer primitive
	// dispatch stages arguments in (fixed capacity, so the hot loop never
	// heap-allocates).
	ipMeth  *object.Method
	ipSites []site
	icGen   uint64
	argBuf  []word.Word

	halted bool
	result word.Word
}

// procEpoch anchors the process monotonic clock.
var procEpoch = time.Now()

// Monotonic returns the current reading of the process monotonic clock in
// nanoseconds since process start — one vDSO clock read, no wall time.
// It is the one clock of the serving path: the deadline Machine.Arm
// sets, the flight recorder's timestamps (whose epoch is a reading of
// it), the pool's queue-wait and service spans and obwire's decode and
// encode spans all count in it, so a reading taken where one stage ends
// is reused as the next stage's start.
func Monotonic() int64 { return int64(time.Since(procEpoch)) }

// Status is the PS register.
type Status struct {
	Privileged bool
}

// CodePtr is the IP register: a method plus an instruction offset. The RIP
// word in a context encodes the same pair as a single pointer into the
// method's code segment.
type CodePtr struct {
	Method *object.Method
	PC     int
}

// Valid reports whether the pointer names code.
func (p CodePtr) Valid() bool { return p.Method != nil }

// New builds a machine with a fresh image and bootstrapped primitives.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	space := memory.NewSpace()
	img := object.NewImage()
	m := &Machine{
		Cfg:           cfg,
		Space:         space,
		Team:          memory.NewTeam(1, cfg.Format, space, cfg.ATLB),
		Image:         img,
		ITLB:          itlb.New(cfg.ITLB),
		IC:            cache.New[struct{}](cfg.ICache),
		Ctx:           context.NewCache(space, context.Config{Blocks: cfg.CtxBlocks, BlockWords: cfg.CtxWords}),
		Hier:          memory.NewHierarchy(cfg.Hierarchy...),
		SN:            1,
		PS:            Status{Privileged: cfg.Privileged},
		selOp:         make(map[object.Selector]isa.Opcode),
		opSel:         make(map[isa.Opcode]object.Selector),
		nextDyn:       isa.FirstDynamic,
		methodsByBase: make(map[memory.AbsAddr]*object.Method),
		classObjs:     make(map[memory.AbsAddr]*object.Class),
		classAddr:     make(map[*object.Class]fpa.Addr),
		argBuf:        make([]word.Word, 0, cfg.CtxWords),
	}
	m.Free = context.NewFreeList(space, cfg.CtxWords, img.Ctx.ID)
	m.bindFixedSelectors()
	m.installPrimitives()
	m.makeClassObjects()
	return m
}

// bindFixedSelectors interns the message names of the well-known opcodes
// and records the two-way opcode↔selector binding.
func (m *Machine) bindFixedSelectors() {
	isa.FixedOpcodes(func(op isa.Opcode) {
		name := op.SelectorName()
		if name == "" {
			return
		}
		sel := m.Image.Atoms.Intern(name)
		m.selOp[sel] = op
		m.opSel[op] = sel
	})
}

// OpcodeFor returns the opcode bound to a selector, assigning a dynamic
// opcode on first use. The 8-bit opcode space bounds the number of distinct
// dynamic selectors per image.
func (m *Machine) OpcodeFor(sel object.Selector) (isa.Opcode, error) {
	if op, ok := m.selOp[sel]; ok {
		return op, nil
	}
	if m.nextDyn == 0 { // wrapped past 255
		return 0, trapf("resources", "dynamic opcode space exhausted (max %d selectors)", isa.NumDynamic)
	}
	op := m.nextDyn
	m.nextDyn++
	m.selOp[sel] = op
	m.opSel[op] = sel
	return op, nil
}

// installPrimitives populates the bootstrap classes' message dictionaries
// with primitive methods, realising the paper's smooth extensibility: the
// same lookup that finds user code finds function units.
func (m *Machine) installPrimitives() {
	install := func(cls *object.Class, sel string, prim object.PrimID, nargs int) {
		id := m.Image.Atoms.Intern(sel)
		cls.Install(&object.Method{Selector: id, NumArgs: nargs, Primitive: prim})
		// Ensure selector has an opcode so compiled code can reach it.
		if _, err := m.OpcodeFor(id); err != nil {
			panic(err)
		}
	}
	ints := m.Image.SmallInt
	for _, s := range []string{"+", "-", "*", "/", "\\\\"} {
		install(ints, s, PrimArith, 1)
	}
	install(ints, "negated", PrimArith, 0)
	for _, s := range []string{"carry:", "mult1:", "mult2:"} {
		install(ints, s, PrimArith, 1)
	}
	for _, s := range []string{"shift:", "ashift:", "rotate:", "mask:", "bitAnd:", "bitOr:", "bitXor:"} {
		install(ints, s, PrimBits, 1)
	}
	install(ints, "bitNot", PrimBits, 0)
	for _, s := range []string{"<", "<=", "="} {
		install(ints, s, PrimCompare, 1)
	}
	install(ints, "isZero", PrimCompare, 0)

	floats := m.Image.Float
	for _, s := range []string{"+", "-", "*", "/"} {
		install(floats, s, PrimArith, 1)
	}
	install(floats, "negated", PrimArith, 0)
	for _, s := range []string{"<", "<=", "="} {
		install(floats, s, PrimCompare, 1)
	}
	install(floats, "isZero", PrimCompare, 0)

	install(m.Image.Atom, "=", PrimIdentity, 1)

	obj := m.Image.Object
	install(obj, "==", PrimIdentity, 1)
	install(obj, "at:", PrimAt, 1)
	install(obj, "at:put:", PrimAtPut, 2)
	install(obj, "size", PrimSize, 0)
	install(obj, "class", PrimClassOf, 0)
	install(obj, "grow:", PrimGrow, 1)

	cls := m.Image.Cls
	install(cls, "new", PrimNew, 0)
	install(cls, "new:", PrimNewN, 1)
}

// makeClassObjects gives every class a one-word object in memory so that
// compiled code can hold pointers to classes (e.g. for new).
func (m *Machine) makeClassObjects() {
	m.Image.EachClass(func(c *object.Class) { m.classObject(c) })
}

// classObject returns the virtual address of the class's object, creating
// it on first use.
func (m *Machine) classObject(c *object.Class) fpa.Addr {
	if a, ok := m.classAddr[c]; ok {
		return a
	}
	addr, seg, err := m.Team.Alloc(1, m.Image.Cls.ID, memory.KindTable, memory.Read)
	if err != nil {
		panic(err)
	}
	m.classObjs[seg.Base] = c
	m.classAddr[c] = addr
	return addr
}

// ClassPointer returns a pointer word referencing the class's object.
func (m *Machine) ClassPointer(c *object.Class) word.Word {
	addr := m.classObject(c)
	enc, err := m.Cfg.Format.Encode32(addr)
	if err != nil {
		panic(err)
	}
	return word.FromPointer(enc)
}

// DefineClass registers a user class and creates its class object.
func (m *Machine) DefineClass(c *object.Class) (*object.Class, error) {
	defined, err := m.Image.Define(c)
	if err != nil {
		return nil, err
	}
	m.classObject(defined)
	return defined, nil
}

// pointerWord encodes a virtual address as a pointer word.
func (m *Machine) pointerWord(a fpa.Addr) word.Word {
	enc, err := m.Cfg.Format.Encode32(a)
	if err != nil {
		panic(err)
	}
	return word.FromPointer(enc)
}

// addrOf decodes a pointer word's virtual address.
func (m *Machine) addrOf(w word.Word) fpa.Addr {
	return m.Cfg.Format.Decode32(w.Pointer())
}

// classOfWord resolves the sixteen-bit class tag of a word: the tag
// zero-extended for primitives, the segment descriptor's class for
// pointers (cached by the ATLB; in hardware the class tag travels with the
// word in the context cache).
func (m *Machine) classOfWord(w word.Word) (word.Class, error) {
	if w.Tag != word.TagPointer {
		return w.PrimitiveClass(), nil
	}
	a := m.addrOf(w)
	seg, _, hit, fault := m.Team.Translate(a, 0)
	if fault != nil {
		if resolved, ok := memory.Resolve(fault); ok {
			seg, _, hit, fault = m.Team.Translate(resolved, 0)
		}
		if fault != nil {
			return 0, trapf("addressing", "class of dangling pointer %v: %v", a, fault)
		}
	}
	if !hit {
		m.Stats.Cycles += uint64(m.Cfg.Penalties.ATLBMiss)
	}
	return seg.Class, nil
}

// classFor maps a class tag to its class, falling back to Object for
// tags without behaviour (uninitialised, instruction).
func (m *Machine) classFor(id word.Class) *object.Class {
	if c, ok := m.Image.ClassByID(id); ok {
		return c
	}
	return m.Image.Object
}
