// Package isa defines the COM instruction set of §3.3–3.4: 32-bit
// three-address instructions whose opcodes are *abstract* — the operation
// actually performed depends on the classes of the operands (§2.1).
//
// Encoding. Each instruction is op<8> A<8> B<8> C<8>. (The paper's figure 4
// shows a 12-bit opcode, which does not fit three 8-bit operand descriptors
// in a 32-bit word; we use an 8-bit opcode, a deviation from the paper.)
// A is the destination/result descriptor, B the first source —
// the receiver for dispatch purposes — and C the second source.
//
// Operand descriptors (§3.4) use two addressing modes:
//
//	context mode:  0 n oooooo  — word o of the current (n=0) or next (n=1) context
//	constant mode: 1 iiiiiii   — entry i of the method's constant table
//
// Descriptor 0xFF (constant 127) is reserved to mean "no operand".
package isa

import "fmt"

// EncodingVersion identifies the binary instruction encoding — the 32-bit
// op/A/B/C layout, the operand descriptor modes, and the fixed opcode
// assignments below. Persistent machine images carry it in their header:
// code serialised under one encoding must never be decoded under another,
// so any change to this file that alters what an encoded word means must
// bump the version, and the image loader rejects mismatches.
const EncodingVersion = 1

// Opcode is an abstract instruction token. Opcodes below FirstDynamic are
// the machine's well-known messages with primitive implementations for the
// appropriate primitive classes; opcodes from FirstDynamic up are assigned
// dynamically to user selectors by the loader.
type Opcode uint8

// The well-known opcodes of §3.3.
const (
	Nop Opcode = iota

	// Arithmetic (defined for small integer and, except Mod, float;
	// mixed int/float modes are primitive).
	Add
	Sub
	Mul
	Div
	Mod
	Neg

	// Multiple precision arithmetic support (small integer).
	Carry
	Mult1
	Mult2

	// Logical and bit field instructions (small integer).
	Shift
	AShift
	Rotate
	Mask
	And
	Or
	Not
	Xor

	// Comparisons: <, <=, =, =0 and == (same object). Same is defined
	// for all types.
	Lt
	Le
	Eq
	EqZ
	Same

	// Move instructions. Move is defined for all types; Movea stores the
	// effective address of its source; At/AtPut access data outside the
	// contexts (the only memory instructions, §3.4).
	Move
	Movea
	At
	AtPut

	// Tag access. As is conditionally privileged (it can forge pointers).
	As
	TagOf

	// Control: forward jump on false, reverse jump on true, transfer to
	// the next context, and return (the paper's return bit realised as an
	// opcode).
	FJmp
	RJmp
	Xfer
	Ret

	// New instantiates a class; in the paper's world this is simply a
	// message to a class object, and here too it dispatches on the
	// receiver's class — it is listed here so the bootstrap can install
	// its primitive method on class Class.
	New

	numFixed

	// FirstDynamic is the first opcode available for user selectors.
	FirstDynamic Opcode = 64
)

// NumDynamic is how many dynamic opcodes the 8-bit opcode field leaves.
const NumDynamic = 256 - int(FirstDynamic)

// Kind classifies how the interpretation sequence treats an opcode.
type Kind uint8

const (
	// KindControl opcodes do not dispatch on operand classes: they have a
	// single ITLB entry keyed with no classes. Moves, jumps, xfer, ret.
	KindControl Kind = iota
	// KindDispatch opcodes form their ITLB key from the operand classes
	// and may resolve to either a primitive or a defined method.
	KindDispatch
)

type opInfo struct {
	name     string
	selector string // message name the opcode answers to ("" = none)
	kind     Kind
	operands int // canonical operand count for the assembler
}

var fixedInfo = [numFixed]opInfo{
	Nop:    {"nop", "", KindControl, 0},
	Add:    {"add", "+", KindDispatch, 3},
	Sub:    {"sub", "-", KindDispatch, 3},
	Mul:    {"mul", "*", KindDispatch, 3},
	Div:    {"div", "/", KindDispatch, 3},
	Mod:    {"mod", "\\\\", KindDispatch, 3},
	Neg:    {"neg", "negated", KindDispatch, 2},
	Carry:  {"carry", "carry:", KindDispatch, 3},
	Mult1:  {"mult1", "mult1:", KindDispatch, 3},
	Mult2:  {"mult2", "mult2:", KindDispatch, 3},
	Shift:  {"shift", "shift:", KindDispatch, 3},
	AShift: {"ashift", "ashift:", KindDispatch, 3},
	Rotate: {"rotate", "rotate:", KindDispatch, 3},
	Mask:   {"mask", "mask:", KindDispatch, 3},
	And:    {"and", "bitAnd:", KindDispatch, 3},
	Or:     {"or", "bitOr:", KindDispatch, 3},
	Not:    {"not", "bitNot", KindDispatch, 2},
	Xor:    {"xor", "bitXor:", KindDispatch, 3},
	Lt:     {"lt", "<", KindDispatch, 3},
	Le:     {"le", "<=", KindDispatch, 3},
	Eq:     {"eq", "=", KindDispatch, 3},
	EqZ:    {"eqz", "isZero", KindDispatch, 2},
	Same:   {"same", "==", KindDispatch, 3},
	Move:   {"move", "", KindControl, 2},
	Movea:  {"movea", "", KindControl, 2},
	At:     {"at", "at:", KindDispatch, 3},
	AtPut:  {"atput", "at:put:", KindDispatch, 3},
	As:     {"as", "", KindControl, 3},
	TagOf:  {"tag", "", KindControl, 2},
	FJmp:   {"fjmp", "", KindControl, 2},
	RJmp:   {"rjmp", "", KindControl, 2},
	Xfer:   {"xfer", "", KindControl, 0},
	Ret:    {"ret", "", KindControl, 1},
	New:    {"new", "new", KindDispatch, 2},
}

// Name returns the assembler mnemonic of the opcode. Dynamic opcodes render
// as dynNN; the loader's symbol table gives them friendlier names.
func (op Opcode) Name() string {
	if op < numFixed {
		return fixedInfo[op].name
	}
	return fmt.Sprintf("dyn%d", uint8(op))
}

// Kind returns the opcode's interpretation kind. All dynamic opcodes
// dispatch.
func (op Opcode) Kind() Kind {
	if op < numFixed {
		return fixedInfo[op].kind
	}
	return KindDispatch
}

// SelectorName returns the message name the opcode answers to, or "" for
// pure control opcodes.
func (op Opcode) SelectorName() string {
	if op < numFixed {
		return fixedInfo[op].selector
	}
	return ""
}

// IsFixed reports whether the opcode is one of the machine's well-known
// tokens rather than a dynamically assigned selector.
func (op Opcode) IsFixed() bool { return op < numFixed }

// FixedByName resolves an assembler mnemonic to its opcode.
func FixedByName(name string) (Opcode, bool) {
	for op := Opcode(0); op < numFixed; op++ {
		if fixedInfo[op].name == name {
			return op, true
		}
	}
	return 0, false
}

// FixedOpcodes calls fn for every well-known opcode.
func FixedOpcodes(fn func(Opcode)) {
	for op := Opcode(0); op < numFixed; op++ {
		fn(op)
	}
}

// Operand is an 8-bit operand descriptor.
type Operand uint8

// None marks an absent operand.
const None Operand = 0xFF

// CtxWordBits is the width of the context-offset field: offsets 0..63.
// The default context is 32 words, so the field spans the largest context
// the cache geometry allows.
const CtxWordBits = 6

// Ctx returns a context-mode operand: word off of the next context when
// next is true, of the current context otherwise.
func Ctx(next bool, off int) Operand {
	if off < 0 || off >= 1<<CtxWordBits {
		panic(fmt.Sprintf("isa: context offset %d out of range", off))
	}
	o := Operand(off)
	if next {
		o |= 1 << CtxWordBits
	}
	return o
}

// Cur returns a current-context operand for word off.
func Cur(off int) Operand { return Ctx(false, off) }

// Next returns a next-context operand for word off.
func Next(off int) Operand { return Ctx(true, off) }

// Const returns a constant-mode operand indexing the method's constant
// table. Index 127 is reserved (it encodes None).
func Const(idx int) Operand {
	if idx < 0 || idx > 126 {
		panic(fmt.Sprintf("isa: constant index %d out of range", idx))
	}
	return Operand(0x80 | idx)
}

// IsNone reports an absent operand.
func (o Operand) IsNone() bool { return o == None }

// IsConst reports constant mode.
func (o Operand) IsConst() bool { return o != None && o&0x80 != 0 }

// IsCtx reports context mode.
func (o Operand) IsCtx() bool { return o&0x80 == 0 }

// ConstIndex returns the constant-table index of a constant-mode operand.
func (o Operand) ConstIndex() int { return int(o & 0x7F) }

// CtxNext reports whether a context-mode operand addresses the next
// context (true) or the current one (false).
func (o Operand) CtxNext() bool { return o&(1<<CtxWordBits) != 0 }

// CtxOffset returns the context word offset of a context-mode operand.
func (o Operand) CtxOffset() int { return int(o & (1<<CtxWordBits - 1)) }

// String renders the operand in assembler syntax.
func (o Operand) String() string {
	switch {
	case o.IsNone():
		return "-"
	case o.IsConst():
		return fmt.Sprintf("#%d", o.ConstIndex())
	case o.CtxNext():
		return fmt.Sprintf("n%d", o.CtxOffset())
	default:
		return fmt.Sprintf("c%d", o.CtxOffset())
	}
}

// Instr is a decoded instruction.
type Instr struct {
	Op Opcode
	A  Operand // destination / result pointer
	B  Operand // first source; the receiver for dispatch
	C  Operand // second source
}

// NewInstr builds an instruction, filling absent trailing operands with
// None.
func NewInstr(op Opcode, operands ...Operand) Instr {
	in := Instr{Op: op, A: None, B: None, C: None}
	if len(operands) > 0 {
		in.A = operands[0]
	}
	if len(operands) > 1 {
		in.B = operands[1]
	}
	if len(operands) > 2 {
		in.C = operands[2]
	}
	if len(operands) > 3 {
		panic("isa: more than three operands")
	}
	return in
}

// Encode packs the instruction into 32 bits.
func (in Instr) Encode() uint32 {
	return uint32(in.Op)<<24 | uint32(in.A)<<16 | uint32(in.B)<<8 | uint32(in.C)
}

// Decode unpacks a 32-bit instruction.
func Decode(enc uint32) Instr {
	return Instr{
		Op: Opcode(enc >> 24),
		A:  Operand(enc >> 16),
		B:  Operand(enc >> 8),
		C:  Operand(enc),
	}
}

// NumOperands counts the present operands.
func (in Instr) NumOperands() int {
	n := 0
	for _, o := range [3]Operand{in.A, in.B, in.C} {
		if !o.IsNone() {
			n++
		}
	}
	return n
}

// String renders the instruction in assembler syntax.
func (in Instr) String() string {
	s := in.Op.Name()
	for _, o := range [3]Operand{in.A, in.B, in.C} {
		if o.IsNone() {
			break
		}
		s += " " + o.String()
	}
	return s
}
