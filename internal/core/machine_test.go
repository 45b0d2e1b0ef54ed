package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/object"
	"repro/internal/word"
)

// install assembles source and installs it as a method on cls. The
// machine's selector table resolves dynamic mnemonics.
func install(t *testing.T, m *Machine, cls *object.Class, selector string, nargs, ntemps int, src string) *object.Method {
	t.Helper()
	asm := isa.NewAssembler()
	asm.Resolve = func(name string) (isa.Opcode, bool) {
		sel := m.Image.Atoms.Intern(name)
		op, err := m.OpcodeFor(sel)
		if err != nil {
			return 0, false
		}
		return op, true
	}
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble %s: %v", selector, err)
	}
	meth := &object.Method{
		Selector: m.Image.Atoms.Intern(selector),
		NumArgs:  nargs,
		NumTemps: ntemps,
		Literals: p.Literals,
		Code:     p.Code,
	}
	if err := m.InstallMethod(cls, meth); err != nil {
		t.Fatalf("install %s: %v", selector, err)
	}
	return meth
}

func sendInt(t *testing.T, m *Machine, recv int32, sel string, args ...word.Word) word.Word {
	t.Helper()
	res, err := m.Send(word.FromInt(recv), sel, args...)
	if err != nil {
		t.Fatalf("send %s: %v", sel, err)
	}
	return res
}

func TestRootPrimitiveSend(t *testing.T) {
	m := New(Config{})
	if got := sendInt(t, m, 3, "+", word.FromInt(4)); got != word.FromInt(7) {
		t.Fatalf("3 + 4 = %v", got)
	}
	if got := sendInt(t, m, 10, "<", word.FromInt(3)); got != word.False {
		t.Fatalf("10 < 3 = %v", got)
	}
}

func TestMixedModeArithmetic(t *testing.T) {
	m := New(Config{})
	res, err := m.Send(word.FromInt(3), "+", word.FromFloat(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsFloat() || res.Float() != 3.5 {
		t.Fatalf("3 + 0.5 = %v", res)
	}
	res, err = m.Send(word.FromFloat(2), "*", word.FromInt(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Float() != 16 {
		t.Fatalf("2.0 * 8 = %v", res)
	}
}

func TestDefinedMethodSend(t *testing.T) {
	m := New(Config{})
	// double: answer receiver + receiver. Receiver is context slot 3.
	install(t, m, m.Image.SmallInt, "double", 0, 1, `
		add c4, c3, c3
		ret c4
	`)
	if got := sendInt(t, m, 21, "double"); got != word.FromInt(42) {
		t.Fatalf("21 double = %v", got)
	}
	if m.Stats.Instructions != 2 || m.Stats.Returns != 1 {
		t.Fatalf("stats did not see the method run: %+v", m.Stats)
	}
	// The machine is reusable: a second send must work and leave no
	// contexts pinned.
	if got := sendInt(t, m, 5, "double"); got != word.FromInt(10) {
		t.Fatalf("second send = %v", got)
	}
	if m.Ctx.HasCurrent() || m.Ctx.HasNext() {
		t.Fatal("halted machine left contexts pinned")
	}
}

func TestRecursiveFactorial(t *testing.T) {
	m := New(Config{})
	install(t, m, m.Image.SmallInt, "fact", 0, 4, `
		isZero c5, c3
		fjmp   c5, recurse
		ret    =1
	recurse:
		sub    c6, c3, =1
		fact   c4, c6
		mul    c4, c3, c4
		ret    c4
	`)
	if got := sendInt(t, m, 6, "fact"); got != word.FromInt(720) {
		t.Fatalf("6 fact = %v", got)
	}
	if m.Stats.Sends != 6 {
		t.Fatalf("factorial of 6 made %d instruction-issued sends, want 6", m.Stats.Sends)
	}
	if got := m.Stats.LIFOShare(); got != 1.0 {
		t.Fatalf("pure recursion LIFO share = %v", got)
	}
}

func TestDeepRecursionExercisesContextCache(t *testing.T) {
	m := New(Config{CtxBlocks: 8})
	install(t, m, m.Image.SmallInt, "down", 0, 3, `
		isZero c5, c3
		fjmp   c5, recurse
		ret    =0
	recurse:
		sub    c6, c3, =1
		down   c4, c6
		ret    c4
	`)
	if got := sendInt(t, m, 100, "down"); got != word.FromInt(0) {
		t.Fatalf("100 down = %v", got)
	}
	cs := m.Ctx.Stats
	if cs.Copybacks == 0 || cs.Faults == 0 {
		t.Fatalf("depth-100 recursion in an 8-block cache: %+v", cs)
	}
}

func TestIterativeLoop(t *testing.T) {
	m := New(Config{})
	// sumTo: sum of 1..receiver, iteratively. c4 = acc, c5 = i, c6 = cond.
	install(t, m, m.Image.SmallInt, "sumTo", 0, 4, `
		move c4, =0
		move c5, =1
	loop:
		add  c4, c4, c5
		add  c5, c5, =1
		le   c6, c5, c3
		rjmp c6, loop
		ret  c4
	`)
	if got := sendInt(t, m, 100, "sumTo"); got != word.FromInt(5050) {
		t.Fatalf("100 sumTo = %v", got)
	}
	if m.Stats.TakenBranches < 99 {
		t.Fatalf("loop took %d branches", m.Stats.TakenBranches)
	}
}

func TestUserClassFieldsViaPrimitives(t *testing.T) {
	m := New(Config{})
	point, err := m.DefineClass(object.NewClass("Point", m.Image.Object, "x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	// Create a point, set fields via at:put:, read via at:.
	ptr, err := m.Send(m.ClassPointer(point), "new")
	if err != nil {
		t.Fatal(err)
	}
	if !ptr.IsPointer() {
		t.Fatalf("new returned %v", ptr)
	}
	if _, err := m.Send(ptr, "at:put:", word.FromInt(0), word.FromInt(11)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Send(ptr, "at:put:", word.FromInt(1), word.FromInt(22)); err != nil {
		t.Fatal(err)
	}
	got, err := m.Send(ptr, "at:", word.FromInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if got != word.FromInt(22) {
		t.Fatalf("point y = %v", got)
	}
	// Out-of-bounds index traps.
	if _, err := m.Send(ptr, "at:", word.FromInt(9)); err == nil {
		t.Fatal("index past the object did not trap")
	}
}

func TestAddDispatchesOnUserClass(t *testing.T) {
	m := New(Config{})
	point, err := m.DefineClass(object.NewClass("Point", m.Image.Object, "x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	// Point>>+ p: answer self.x + p.x as an integer (keeps the test
	// free of literal patching). c5, c6 temps.
	install(t, m, point, "+", 1, 3, `
		at  c5, c3, =0
		at  c6, c4, =0
		add c7, c5, c6
		ret c7
	`)
	a, _ := m.Send(m.ClassPointer(point), "new")
	b, _ := m.Send(m.ClassPointer(point), "new")
	m.Send(a, "at:put:", word.FromInt(0), word.FromInt(30))
	m.Send(b, "at:put:", word.FromInt(0), word.FromInt(12))
	got, err := m.Send(a, "+", b)
	if err != nil {
		t.Fatal(err)
	}
	if got != word.FromInt(42) {
		t.Fatalf("point + point = %v", got)
	}
	// The same opcode with integers is still the primitive.
	if got := sendInt(t, m, 1, "+", word.FromInt(2)); got != word.FromInt(3) {
		t.Fatalf("1 + 2 = %v after Point>>+ defined", got)
	}
}

func TestDoesNotUnderstand(t *testing.T) {
	m := New(Config{})
	_, err := m.Send(word.FromInt(5), "frobnicate")
	if err == nil {
		t.Fatal("missing method did not trap")
	}
	if !strings.Contains(err.Error(), "doesNotUnderstand") {
		t.Fatalf("error = %v", err)
	}
	if !strings.Contains(err.Error(), "SmallInt") || !strings.Contains(err.Error(), "frobnicate") {
		t.Fatalf("unhelpful trap message: %v", err)
	}
}

// TestUnknownSelectorsDoNotGrowMachine: a root send of a selector the
// image never interned answers the same doesNotUnderstand trap as one
// the image knows but no class binds, and interns nothing — 400 bogus
// selectors, more than the 192 dynamic opcodes, leave the atom table as
// it was and the opcode space free for the next real selector.
func TestUnknownSelectorsDoNotGrowMachine(t *testing.T) {
	m := New(Config{})
	m.Image.Atoms.Intern("knownButUnbound")
	_, err := m.Send(word.FromInt(5), "knownButUnbound")
	if want := "com: doesNotUnderstand trap: SmallInt does not understand knownButUnbound"; err == nil || err.Error() != want {
		t.Fatalf("interned selector: err = %v, want %q", err, want)
	}
	atoms := m.Image.Atoms.Len()
	for i := 0; i < 400; i++ {
		recv, class := word.FromInt(int32(i)), "SmallInt"
		if i%2 == 1 {
			recv, class = word.FromFloat(1.5), "Float"
		}
		sel := fmt.Sprintf("bogus%d:", i)
		_, err := m.Send(recv, sel, word.FromInt(1))
		var trap *Trap
		if !errors.As(err, &trap) || trap.Kind != "doesNotUnderstand" || trap.Msg != class+" does not understand "+sel {
			t.Fatalf("send %d: err = %v, want %s does not understand %s", i, err, class, sel)
		}
	}
	if got := m.Image.Atoms.Len(); got != atoms {
		t.Fatalf("atom table grew from %d to %d entries", atoms, got)
	}
	if _, err := m.OpcodeFor(m.Image.Atoms.Intern("realSelector")); err != nil {
		t.Fatalf("dynamic opcode for a real selector: %v", err)
	}
	if got := sendInt(t, m, 1, "+", word.FromInt(2)); got != word.FromInt(3) {
		t.Fatalf("1 + 2 = %v", got)
	}
}

func TestDivisionByZeroTraps(t *testing.T) {
	m := New(Config{})
	if _, err := m.Send(word.FromInt(5), "/", word.FromInt(0)); err == nil {
		t.Fatal("5/0 did not trap")
	}
	if _, err := m.Send(word.FromInt(5), "\\\\", word.FromInt(0)); err == nil {
		t.Fatal("5\\\\0 did not trap")
	}
}

func TestITLBCachesTranslations(t *testing.T) {
	m := New(Config{})
	install(t, m, m.Image.SmallInt, "double", 0, 1, "add c4, c3, c3\nret c4")
	sendInt(t, m, 1, "double")
	missesAfterFirst := m.ITLB.CacheStats().Misses
	for i := 0; i < 50; i++ {
		sendInt(t, m, int32(i), "double")
	}
	st := m.ITLB.CacheStats()
	if st.Misses != missesAfterFirst {
		t.Fatalf("repeat sends missed the ITLB: %d → %d", missesAfterFirst, st.Misses)
	}
	if st.Hits == 0 {
		t.Fatal("no ITLB hits recorded")
	}
}

func TestNoITLBAblationCostsLookups(t *testing.T) {
	run := func(noITLB bool) uint64 {
		m := New(Config{NoITLB: noITLB})
		install(t, m, m.Image.SmallInt, "double", 0, 1, "add c4, c3, c3\nret c4")
		for i := 0; i < 50; i++ {
			sendInt(t, m, int32(i), "double")
		}
		return m.Stats.LookupCycles
	}
	with := run(false)
	without := run(true)
	if without <= with*10 {
		t.Fatalf("NoITLB lookup cycles %d not ≫ ITLB %d", without, with)
	}
}

func TestMethodRedefinitionInvalidates(t *testing.T) {
	m := New(Config{})
	install(t, m, m.Image.SmallInt, "answer", 0, 1, "move c4, =1\nret c4")
	if got := sendInt(t, m, 0, "answer"); got != word.FromInt(1) {
		t.Fatalf("first answer = %v", got)
	}
	install(t, m, m.Image.SmallInt, "answer", 0, 1, "move c4, =2\nret c4")
	if got := sendInt(t, m, 0, "answer"); got != word.FromInt(2) {
		t.Fatalf("redefined answer = %v (stale ITLB entry?)", got)
	}
}

// warmCycles runs the send once cold (filling the ITLB and instruction
// cache) and once warm, returning the steady-state cycle count of the
// second run — the regime §3.6's costs describe.
func warmCycles(t *testing.T, m *Machine, recv int32, sel string) uint64 {
	t.Helper()
	sendInt(t, m, recv, sel)
	before := m.Stats.Cycles
	sendInt(t, m, recv, sel)
	return m.Stats.Cycles - before
}

func TestCallCostZeroOperandIsFourCycles(t *testing.T) {
	// §3.6: "a method call with no operands only delays execution four
	// clock cycles"; each copied operand adds one. The warm round trip
	// here is: move (2) + zero-op call (4) + callee ret (2) + caller
	// ret (2) = 10 cycles.
	m := New(Config{})
	install(t, m, m.Image.SmallInt, "id", 0, 1, "ret c3")
	install(t, m, m.Image.SmallInt, "callid", 0, 2, `
		move n3, c3
		id
		ret  c3
	`)
	if got := warmCycles(t, m, 5, "callid"); got != 10 {
		t.Fatalf("zero-operand round trip = %d cycles, want 10 (2+4+2+2)", got)
	}

	// With explicit operands the call copies the result pointer and the
	// receiver: 4+2 = 6 call cycles, so the round trip is 6+2+2 = 10
	// without the staging move.
	m2 := New(Config{})
	install(t, m2, m2.Image.SmallInt, "id", 0, 1, "ret c3")
	install(t, m2, m2.Image.SmallInt, "callid", 0, 2, `
		id   c4, c3
		ret  c3
	`)
	if got := warmCycles(t, m2, 5, "callid"); got != 10 {
		t.Fatalf("two-operand round trip = %d cycles, want 10 (6+2+2)", got)
	}
	if got := float64(m2.Stats.SendCycles) / float64(m2.Stats.Sends); got != 6 {
		t.Fatalf("two-operand call = %v cycles, want 6 (4 + 2 copies)", got)
	}

	// A three-operand call (result, receiver, argument) costs 7.
	m3 := New(Config{})
	install(t, m3, m3.Image.SmallInt, "plus", 1, 1, "ret c4")
	install(t, m3, m3.Image.SmallInt, "callplus", 0, 2, `
		plus c5, c3, =9
		ret  c5
	`)
	if got := warmCycles(t, m3, 5, "callplus"); got != 11 {
		t.Fatalf("three-operand round trip = %d cycles, want 11 (7+2+2)", got)
	}
}

func TestReturnCostIsTwoCycles(t *testing.T) {
	// §3.6: "method returns cost only two clock cycles" — a return is
	// just the base issue slot. Adding one extra call+return pair to a
	// warm chain must add exactly 4+2 = 6 cycles, of which the return
	// contributes its base 2.
	costOf := func(depth int32) uint64 {
		m := New(Config{})
		install(t, m, m.Image.SmallInt, "down", 0, 3, `
			isZero c5, c3
			fjmp   c5, recurse
			ret    =0
		recurse:
			sub    c6, c3, =1
			down   c4, c6
			ret    c4
		`)
		return warmCycles(t, m, depth, "down")
	}
	d3, d4 := costOf(3), costOf(4)
	// Each extra level adds one full recursion step: isZero (2) + taken
	// fjmp (2+1) + sub (2) + two-operand call (6) + the callee's return
	// (2) = 15 cycles — the 2-cycle return is the last term.
	if d4 <= d3 {
		t.Fatalf("deeper recursion not costlier: %d vs %d", d3, d4)
	}
	if d4-d3 != 15 {
		t.Fatalf("per-level cost = %d cycles, want 15 (incl. 2-cycle return)", d4-d3)
	}
}

func TestMoveaAndPointerStore(t *testing.T) {
	m := New(Config{})
	// writeBack: movea a pointer to temp c5, store 99 through it with
	// at:put:, answer c5's target value. Exercises effective addresses
	// into contexts and the context-object store path.
	install(t, m, m.Image.SmallInt, "ptrdance", 0, 4, `
		movea c4, c5
		atput =99, c4, =0
		ret   c5
	`)
	// atput value,obj,idx: obj = pointer to context word 5... the
	// pointer names the context segment, index 0 of the *pointer's*
	// address, i.e. context word 5 itself.
	if got := sendInt(t, m, 0, "ptrdance"); got != word.FromInt(99) {
		t.Fatalf("ptrdance = %v", got)
	}
	if m.Stats.MemRefsToCtx == 0 {
		t.Fatal("store through context pointer not counted as context ref")
	}
}

func TestTagInstructions(t *testing.T) {
	m := New(Config{Privileged: true})
	install(t, m, m.Image.SmallInt, "tagdance", 0, 3, `
		tag c4, c3
		as  c5, c3, =3
		tag c6, c5
		add c4, c4, c6
		ret c4
	`)
	// tag of smallint = 1; as to atom (tag 3) then tag = 3; 1+3 = 4.
	if got := sendInt(t, m, 123, "tagdance"); got != word.FromInt(4) {
		t.Fatalf("tagdance = %v", got)
	}
}

func TestAsRequiresPrivilege(t *testing.T) {
	m := New(Config{Privileged: false})
	install(t, m, m.Image.SmallInt, "forge", 0, 2, "as c4, c3, =5\nret c4")
	_, err := m.Send(word.FromInt(0xbeef), "forge")
	if err == nil || !strings.Contains(err.Error(), "privilege") {
		t.Fatalf("unprivileged as: %v", err)
	}
}

func TestBitPrimitives(t *testing.T) {
	m := New(Config{})
	cases := []struct {
		sel  string
		recv int32
		arg  int32
		want int32
	}{
		{"bitAnd:", 0b1100, 0b1010, 0b1000},
		{"bitOr:", 0b1100, 0b1010, 0b1110},
		{"bitXor:", 0b1100, 0b1010, 0b0110},
		{"shift:", 1, 4, 16},
		{"shift:", 16, -4, 1},
		{"ashift:", -16, -2, -4},
		{"rotate:", -1 << 31, 1, 1},
		{"mask:", 0xff, 4, 0xf},
	}
	for _, tc := range cases {
		got, err := m.Send(word.FromInt(tc.recv), tc.sel, word.FromInt(tc.arg))
		if err != nil {
			t.Fatalf("%d %s %d: %v", tc.recv, tc.sel, tc.arg, err)
		}
		if got != word.FromInt(tc.want) {
			t.Errorf("%d %s %d = %v, want %d", tc.recv, tc.sel, tc.arg, got, tc.want)
		}
	}
	got, err := m.Send(word.FromInt(0), "bitNot")
	if err != nil || got != word.FromInt(-1) {
		t.Errorf("0 bitNot = %v, %v", got, err)
	}
}

func TestMultiplePrecisionPrimitives(t *testing.T) {
	m := New(Config{})
	// carry: of 0xFFFFFFFF + 1 = 1
	got, err := m.Send(word.FromInt(-1), "carry:", word.FromInt(1))
	if err != nil || got != word.FromInt(1) {
		t.Fatalf("carry = %v, %v", got, err)
	}
	// mult1/mult2: 0x10000 * 0x10000 = 2^32: lo 0, hi 1.
	lo, _ := m.Send(word.FromInt(1<<16), "mult1:", word.FromInt(1<<16))
	hi, _ := m.Send(word.FromInt(1<<16), "mult2:", word.FromInt(1<<16))
	if lo != word.FromInt(0) || hi != word.FromInt(1) {
		t.Fatalf("mult = lo %v hi %v", lo, hi)
	}
}

func TestIdentityPrimitive(t *testing.T) {
	m := New(Config{})
	arr, err := m.Send(m.ClassPointer(m.Image.Array), "new:", word.FromInt(3))
	if err != nil {
		t.Fatal(err)
	}
	same, _ := m.Send(arr, "==", arr)
	if same != word.True {
		t.Fatal("object not identical to itself")
	}
	arr2, _ := m.Send(m.ClassPointer(m.Image.Array), "new:", word.FromInt(3))
	diff, _ := m.Send(arr, "==", arr2)
	if diff != word.False {
		t.Fatal("distinct objects identical")
	}
	intsame, _ := m.Send(word.FromInt(4), "==", word.FromInt(4))
	if intsame != word.True {
		t.Fatal("equal ints not identical")
	}
}

func TestArrayGrowThroughPrimitive(t *testing.T) {
	m := New(Config{})
	arr, _ := m.Send(m.ClassPointer(m.Image.Array), "new:", word.FromInt(4))
	m.Send(arr, "at:put:", word.FromInt(0), word.FromInt(7))
	grown, err := m.Send(arr, "grow:", word.FromInt(100))
	if err != nil {
		t.Fatal(err)
	}
	// New name sees the old content.
	got, err := m.Send(grown, "at:", word.FromInt(0))
	if err != nil || got != word.FromInt(7) {
		t.Fatalf("grown[0] = %v, %v", got, err)
	}
	// Old name still works, and indexes beyond its exponent bound are
	// forwarded (§2.2 aliasing trap).
	if _, err := m.Send(arr, "at:put:", word.FromInt(50), word.FromInt(9)); err != nil {
		t.Fatalf("store beyond old bound: %v", err)
	}
	got, err = m.Send(grown, "at:", word.FromInt(50))
	if err != nil || got != word.FromInt(9) {
		t.Fatalf("grown[50] = %v, %v", got, err)
	}
	sz, _ := m.Send(grown, "size")
	if sz != word.FromInt(100) {
		t.Fatalf("size = %v", sz)
	}
}

func TestClassOfPrimitive(t *testing.T) {
	m := New(Config{})
	cp, err := m.Send(word.FromInt(3), "class")
	if err != nil {
		t.Fatal(err)
	}
	if cp != m.ClassPointer(m.Image.SmallInt) {
		t.Fatalf("3 class = %v", cp)
	}
}

func TestXferCoroutine(t *testing.T) {
	m := New(Config{})
	// pingpong: stage a partner continuation in the next context and
	// bounce control through xfer. The partner adds 1 and xfers back.
	install(t, m, m.Image.SmallInt, "bounce", 0, 4, `
		move  c4, c3
		xfer
		add   c4, c4, =1
		ret   c4
	`)
	// Entering the method: current has receiver; next is staging. The
	// xfer target (staging context) needs a RIP: run partner method via
	// a plain send first is complex, so instead test xfer's error path
	// here and full coroutines at a higher level.
	_, err := m.Send(word.FromInt(1), "bounce")
	if err == nil || !strings.Contains(err.Error(), "no continuation") {
		t.Fatalf("xfer into fresh context: %v", err)
	}
}

func TestStatsShares(t *testing.T) {
	m := New(Config{})
	install(t, m, m.Image.SmallInt, "fact", 0, 4, `
		isZero c5, c3
		fjmp   c5, recurse
		ret    =1
	recurse:
		sub    c6, c3, =1
		fact   c4, c6
		mul    c4, c3, c4
		ret    c4
	`)
	sendInt(t, m, 10, "fact")
	if got := m.Stats.ContextAllocShare(); got != 1.0 {
		t.Fatalf("context share of allocations = %v, want 1 for pure recursion", got)
	}
	if got := m.Stats.RefsToContextShare(); got < 0.9 {
		t.Fatalf("context ref share = %v", got)
	}
	if m.Stats.CPI() < 2 {
		t.Fatalf("CPI = %v, below the issue bound", m.Stats.CPI())
	}
}

func TestStepLimitTraps(t *testing.T) {
	m := New(Config{MaxSteps: 100})
	install(t, m, m.Image.SmallInt, "spin", 0, 2, `
	loop:
		move c4, =1
		rjmp c4, loop
	`)
	_, err := m.Send(word.FromInt(0), "spin")
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("spin: %v", err)
	}
}

func TestOnEventTrace(t *testing.T) {
	m := New(Config{})
	var events []Event
	m.Cfg.OnEvent = func(e Event) { events = append(events, e) }
	install(t, m, m.Image.SmallInt, "double", 0, 1, "add c4, c3, c3\nret c4")
	sendInt(t, m, 4, "double")
	if len(events) != 2 {
		t.Fatalf("trace has %d events", len(events))
	}
	if events[0].Op != isa.Add || events[0].B != word.ClassSmallInt {
		t.Fatalf("event 0 = %+v", events[0])
	}
	if events[0].IAddr == events[1].IAddr {
		t.Fatal("distinct instructions share an address")
	}
}

func TestOpcodeSpaceExhaustion(t *testing.T) {
	m := New(Config{})
	var lastErr error
	for i := 0; i < 300; i++ {
		sel := m.Image.Atoms.Intern(strings.Repeat("x", 1) + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		if _, err := m.OpcodeFor(sel); err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == nil {
		t.Fatal("opcode space never exhausted")
	}
	if !strings.Contains(lastErr.Error(), "exhausted") {
		t.Fatalf("error = %v", lastErr)
	}
}

func TestSelectorOpcodeRoundTrip(t *testing.T) {
	m := New(Config{})
	sel := m.Image.Atoms.Intern("myMessage:")
	op, err := m.OpcodeFor(sel)
	if err != nil {
		t.Fatal(err)
	}
	op2, _ := m.OpcodeFor(sel)
	if op2 != op {
		t.Fatal("OpcodeFor not stable")
	}
}
