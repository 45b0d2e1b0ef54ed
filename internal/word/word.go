// Package word implements the tagged machine words of the Caltech Object
// Machine (COM).
//
// Every word of COM memory carries a four-bit tag identifying one of the
// primitive types of §3.2 of the paper: uninitialised, small integer,
// floating point number, atom, instruction, and object pointer. When a word
// is cached close to the processor a sixteen-bit class tag travels with it;
// for primitives the class tag is the four-bit tag zero-extended, while for
// object pointers it names the class of the referenced object and keys the
// method lookup that turns an abstract instruction into a method.
package word

import (
	"fmt"
	"math"
)

// Tag is the four-bit primitive type tag attached to every memory word.
type Tag uint8

// The primitive tags of §3.2. The numeric values matter: a primitive's
// sixteen-bit class is its tag zero-extended, so these constants double as
// the low class numbers.
const (
	TagUninit      Tag = 0 // uninitialised storage; reading it is a (catchable) error
	TagSmallInt    Tag = 1 // 32-bit two's-complement integer
	TagFloat       Tag = 2 // IEEE-754 binary32 value
	TagAtom        Tag = 3 // interned symbol (selector, #true, #nil, ...)
	TagInstruction Tag = 4 // encoded COM instruction
	TagPointer     Tag = 5 // floating point virtual address of an object

	NumTags = 6
)

// String returns the conventional lower-case name of the tag.
func (t Tag) String() string {
	switch t {
	case TagUninit:
		return "uninit"
	case TagSmallInt:
		return "smallint"
	case TagFloat:
		return "float"
	case TagAtom:
		return "atom"
	case TagInstruction:
		return "instruction"
	case TagPointer:
		return "pointer"
	}
	return fmt.Sprintf("tag(%d)", uint8(t))
}

// Class is the sixteen-bit class tag cached alongside a word in the context
// cache. Classes below FirstUserClass are the primitive tags zero-extended;
// classes at or above it are assigned to user (and system) defined classes by
// the object image.
type Class uint16

// Primitive classes: the tag zero-extended per §3.2.
const (
	ClassUninit      Class = Class(TagUninit)
	ClassSmallInt    Class = Class(TagSmallInt)
	ClassFloat       Class = Class(TagFloat)
	ClassAtom        Class = Class(TagAtom)
	ClassInstruction Class = Class(TagInstruction)

	// ClassNone marks an absent operand when forming ITLB keys.
	ClassNone Class = 0

	// FirstUserClass is the first class number available to defined
	// classes. The image hands these out sequentially.
	FirstUserClass Class = 16
)

// IsPrimitive reports whether c names one of the hardware primitive types
// rather than a defined class.
func (c Class) IsPrimitive() bool { return c < FirstUserClass }

// Word is one word of COM memory: a four-bit tag plus 32 payload bits.
// The zero value is an uninitialised word, matching the paper's
// clear-on-allocate context semantics.
type Word struct {
	Tag  Tag
	Bits uint32
}

// Uninit is the cleared, uninitialised word.
var Uninit = Word{}

// FromInt returns a small-integer word.
func FromInt(v int32) Word { return Word{Tag: TagSmallInt, Bits: uint32(v)} }

// FromFloat returns a floating-point word holding the binary32 encoding of v.
func FromFloat(v float32) Word { return Word{Tag: TagFloat, Bits: math.Float32bits(v)} }

// FromAtom returns an atom word for the interned symbol id.
func FromAtom(id uint32) Word { return Word{Tag: TagAtom, Bits: id} }

// FromInstruction returns an instruction word with the given encoding.
func FromInstruction(enc uint32) Word { return Word{Tag: TagInstruction, Bits: enc} }

// FromPointer returns an object-pointer word whose payload is an encoded
// floating point virtual address.
func FromPointer(vaddr uint32) Word { return Word{Tag: TagPointer, Bits: vaddr} }

// FromBool returns the machine's truth atoms: atom id 1 for true and id 2
// for false (ids 0..15 are reserved well-known atoms, see package object).
func FromBool(b bool) Word {
	if b {
		return FromAtom(AtomTrue)
	}
	return FromAtom(AtomFalse)
}

// Well-known atom ids shared between the word and object packages. They are
// defined here, at the bottom of the dependency order, so that the machine
// can produce true/false/nil without consulting the image.
const (
	AtomNil   uint32 = 0
	AtomTrue  uint32 = 1
	AtomFalse uint32 = 2

	// FirstUserAtom is the first id handed to interned user symbols.
	FirstUserAtom uint32 = 16
)

// Nil is the distinguished nil atom word.
var Nil = FromAtom(AtomNil)

// True and False are the distinguished truth atom words.
var (
	True  = FromBool(true)
	False = FromBool(false)
)

// IsUninit reports whether the word is uninitialised storage.
func (w Word) IsUninit() bool { return w.Tag == TagUninit }

// IsInt reports whether the word is a small integer.
func (w Word) IsInt() bool { return w.Tag == TagSmallInt }

// IsFloat reports whether the word is a floating point number.
func (w Word) IsFloat() bool { return w.Tag == TagFloat }

// IsAtom reports whether the word is an atom.
func (w Word) IsAtom() bool { return w.Tag == TagAtom }

// IsPointer reports whether the word is an object pointer.
func (w Word) IsPointer() bool { return w.Tag == TagPointer }

// IsNil reports whether the word is the nil atom.
func (w Word) IsNil() bool { return w.Tag == TagAtom && w.Bits == AtomNil }

// Truthy reports how the machine's conditional jumps interpret the word:
// the false atom, nil, and integer zero are false; everything else is true.
func (w Word) Truthy() bool {
	switch w.Tag {
	case TagAtom:
		return w.Bits != AtomFalse && w.Bits != AtomNil
	case TagSmallInt:
		return w.Bits != 0
	default:
		return true
	}
}

// Int returns the small-integer payload. It panics if the word is not a
// small integer; use IsInt first or IntOK for a checked variant.
func (w Word) Int() int32 {
	if w.Tag != TagSmallInt {
		panic(fmt.Sprintf("word: Int on %v", w.Tag))
	}
	return int32(w.Bits)
}

// IntOK returns the small-integer payload and whether the word held one.
func (w Word) IntOK() (int32, bool) {
	if w.Tag != TagSmallInt {
		return 0, false
	}
	return int32(w.Bits), true
}

// Float returns the floating-point payload. It panics if the word is not a
// float; use IsFloat first or FloatOK for a checked variant.
func (w Word) Float() float32 {
	if w.Tag != TagFloat {
		panic(fmt.Sprintf("word: Float on %v", w.Tag))
	}
	return math.Float32frombits(w.Bits)
}

// FloatOK returns the floating-point payload and whether the word held one.
func (w Word) FloatOK() (float32, bool) {
	if w.Tag != TagFloat {
		return 0, false
	}
	return math.Float32frombits(w.Bits), true
}

// Atom returns the atom id payload. It panics if the word is not an atom.
func (w Word) Atom() uint32 {
	if w.Tag != TagAtom {
		panic(fmt.Sprintf("word: Atom on %v", w.Tag))
	}
	return w.Bits
}

// Pointer returns the encoded virtual address payload. It panics if the
// word is not an object pointer.
func (w Word) Pointer() uint32 {
	if w.Tag != TagPointer {
		panic(fmt.Sprintf("word: Pointer on %v", w.Tag))
	}
	return w.Bits
}

// NumberAsFloat widens a small integer or float word to float32 for the
// mixed-mode primitives of §3.3. The second result reports whether the word
// was numeric at all.
func (w Word) NumberAsFloat() (float32, bool) {
	switch w.Tag {
	case TagSmallInt:
		return float32(int32(w.Bits)), true
	case TagFloat:
		return math.Float32frombits(w.Bits), true
	}
	return 0, false
}

// PrimitiveClass returns the sixteen-bit class tag of a word considered in
// isolation: the tag zero-extended. Object pointers need the segment table
// to learn their class; callers that may hold pointers must go through the
// machine's class resolution instead.
func (w Word) PrimitiveClass() Class { return Class(w.Tag) }

// Same implements the == (same object) comparison of §3.3, defined for all
// types: identical tag and payload. For pointers this is identity of the
// virtual address, for primitives identity of the value.
func (w Word) Same(o Word) bool { return w.Tag == o.Tag && w.Bits == o.Bits }

// String renders the word for diagnostics: the value for primitives, the
// hex address for pointers.
func (w Word) String() string {
	switch w.Tag {
	case TagUninit:
		return "∅"
	case TagSmallInt:
		return fmt.Sprintf("%d", int32(w.Bits))
	case TagFloat:
		return fmt.Sprintf("%g", math.Float32frombits(w.Bits))
	case TagAtom:
		switch w.Bits {
		case AtomNil:
			return "nil"
		case AtomTrue:
			return "true"
		case AtomFalse:
			return "false"
		}
		return fmt.Sprintf("atom#%d", w.Bits)
	case TagInstruction:
		return fmt.Sprintf("instr<%08x>", w.Bits)
	case TagPointer:
		return fmt.Sprintf("ptr<%08x>", w.Bits)
	}
	return fmt.Sprintf("word<%d,%08x>", w.Tag, w.Bits)
}
