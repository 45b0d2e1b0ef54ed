// Package object implements the COM's object model: interned atoms
// (selectors and symbols), classes with superclass chains, and per-class
// message dictionaries.
//
// The message dictionary is deliberately modelled as an open-addressing
// hash table with probe counting, because its cost is the point of the
// paper: "The method to be executed is found by associating the message
// name in a hash table for the data type — or class — of a selected
// operand. This association mechanism is quite costly…" (§1.1). The ITLB of
// §2.1 exists to cache exactly these lookups, so the miss path must have a
// measurable price.
package object

import (
	"fmt"
	"slices"

	"repro/internal/word"
)

// Selector identifies an interned message name.
type Selector uint32

// Atoms is the intern table for symbols. Ids 0..15 are reserved for the
// well-known atoms shared with package word (nil, true, false).
type Atoms struct {
	names []string
	ids   map[string]Selector
}

// NewAtoms returns an intern table pre-seeded with the well-known atoms.
func NewAtoms() *Atoms {
	a := &Atoms{ids: make(map[string]Selector)}
	a.names = make([]string, word.FirstUserAtom)
	set := func(id uint32, name string) {
		a.names[id] = name
		a.ids[name] = Selector(id)
	}
	set(word.AtomNil, "nil")
	set(word.AtomTrue, "true")
	set(word.AtomFalse, "false")
	for i := uint32(3); i < word.FirstUserAtom; i++ {
		a.names[i] = fmt.Sprintf("reserved%d", i)
	}
	return a
}

// Intern returns the id for name, creating one if needed.
func (a *Atoms) Intern(name string) Selector {
	if id, ok := a.ids[name]; ok {
		return id
	}
	id := Selector(len(a.names))
	a.names = append(a.names, name)
	a.ids[name] = id
	return id
}

// Lookup returns the id for name if it is already interned.
func (a *Atoms) Lookup(name string) (Selector, bool) {
	id, ok := a.ids[name]
	return id, ok
}

// Name returns the symbol text for an id, or a placeholder for unknown ids.
func (a *Atoms) Name(id Selector) string {
	if int(id) < len(a.names) {
		return a.names[id]
	}
	return fmt.Sprintf("atom#%d", id)
}

// Len returns the number of interned atoms including the reserved block.
func (a *Atoms) Len() int { return len(a.names) }

// PrimID identifies a hardware function unit backing a primitive method.
// Zero means "not primitive".
type PrimID uint16

// Method is a compiled method: the unit the ITLB's method field points at.
type Method struct {
	Selector Selector
	Class    *Class // class the method is installed on
	NumArgs  int    // message arguments, excluding the receiver
	NumTemps int    // temporaries beyond args
	Literals []word.Word
	Code     []uint32 // encoded COM instructions (package isa)
	// Primitive, when nonzero, marks the method as backed by a function
	// unit. The ITLB entry then carries the primitive bit and Code is
	// ignored.
	Primitive PrimID
	// StackCode is the Fith (stack machine) compilation of the same
	// source, used by the §5 comparison. Encoded per package fith.
	StackCode []uint32
	// CodeBase is assigned by the loader: the virtual address of the
	// first code word once the method object is installed in memory, 0
	// before. The image loader rebuilds the machine's code index from it.
	CodeBase uint32
	// Fast caches the interpreter's predecoded form of Code, including
	// its per-site inline caches. It is owned by package core (which is
	// the only writer) and holds machine-local state, so it is never
	// exported: every machine predecodes its own copy and no inline-cache
	// line pointer ever crosses a snapshot boundary.
	Fast any
}

// String identifies the method as Class>>selector for diagnostics.
func (m *Method) String() string {
	cls := "?"
	if m.Class != nil {
		cls = m.Class.Name
	}
	return fmt.Sprintf("%s>>#%d", cls, m.Selector)
}

// Class is a COM class: a name, a superclass link, named instance fields,
// and a message dictionary.
type Class struct {
	ID     word.Class
	Name   string
	Super  *Class
	Fields []string // named fixed fields; indexed part follows them

	// Indexed marks classes whose instances carry indexable slots after
	// the named fields (Array, String, contexts).
	Indexed bool

	dict *dict
}

// NewClass creates a class. The image, not this constructor, assigns IDs.
func NewClass(name string, super *Class, fields ...string) *Class {
	return &Class{Name: name, Super: super, Fields: fields, dict: newDict(8)}
}

// FixedSize returns the number of named instance fields including inherited
// ones.
func (c *Class) FixedSize() int {
	n := 0
	for k := c; k != nil; k = k.Super {
		n += len(k.Fields)
	}
	return n
}

// FieldIndex resolves a field name to its slot index, searching superclass
// fields first (they occupy the low slots).
func (c *Class) FieldIndex(name string) (int, bool) {
	base := 0
	if c.Super != nil {
		if i, ok := c.Super.FieldIndex(name); ok {
			return i, ok
		}
		base = c.Super.FixedSize()
	}
	for i, f := range c.Fields {
		if f == name {
			return base + i, true
		}
	}
	return 0, false
}

// Install adds a method to the class's dictionary under its selector.
func (c *Class) Install(m *Method) {
	m.Class = c
	c.dict.put(m.Selector, m)
}

// LocalLookup searches only this class's dictionary. It returns the method,
// the number of hash probes spent, and whether it was found.
func (c *Class) LocalLookup(sel Selector) (*Method, int, bool) {
	return c.dict.get(sel)
}

// MethodCount returns the number of methods installed directly on c.
func (c *Class) MethodCount() int { return c.dict.n }

// InheritsFrom reports whether c is k or a subclass of k.
func (c *Class) InheritsFrom(k *Class) bool {
	for x := c; x != nil; x = x.Super {
		if x == k {
			return true
		}
	}
	return false
}

// Methods calls fn for every method installed directly on c.
func (c *Class) Methods(fn func(*Method)) {
	for _, s := range c.dict.slots {
		if s.used {
			fn(s.m)
		}
	}
}

// LookupCost is the price of one full method lookup, the work a TLB miss
// performs (§2.1: "an instruction descriptor must be pulled in from the
// appropriate message dictionary, via the standard technique of method
// lookup").
type LookupCost struct {
	Probes     int // hash probes across all dictionaries searched
	ChainSteps int // superclass links followed
}

// Cycles converts the lookup work to clocks: the paper's software baseline
// charges a handful of cycles per probe (hash, compare, reprobe) and per
// chain step (load superclass, load dictionary pointer).
func (lc LookupCost) Cycles() int { return 4*lc.Probes + 2*lc.ChainSteps }

// Lookup performs full method lookup: search the receiver class's
// dictionary, then its superclass chain. It returns the method, the cost
// incurred, and whether a method was found.
func Lookup(c *Class, sel Selector) (*Method, LookupCost, bool) {
	var cost LookupCost
	for k := c; k != nil; k = k.Super {
		m, probes, ok := k.LocalLookup(sel)
		cost.Probes += probes
		if ok {
			return m, cost, true
		}
		cost.ChainSteps++
	}
	return nil, cost, false
}

// dict is an open-addressing hash table from selector to method with
// linear probing, sized at a power of two, counting probes per lookup.
type dict struct {
	slots []slot
	n     int
}

type slot struct {
	sel  Selector
	m    *Method
	used bool
}

func newDict(size int) *dict {
	if size < 4 {
		size = 4
	}
	return &dict{slots: make([]slot, size)}
}

func (d *dict) hash(sel Selector) int {
	h := uint64(sel) * 0x9e3779b97f4a7c15
	return int(h >> 32 & uint64(len(d.slots)-1))
}

func (d *dict) put(sel Selector, m *Method) {
	if 2*(d.n+1) > len(d.slots) {
		d.grow()
	}
	i := d.hash(sel)
	for {
		s := &d.slots[i]
		if !s.used {
			*s = slot{sel: sel, m: m, used: true}
			d.n++
			return
		}
		if s.sel == sel {
			s.m = m
			return
		}
		i = (i + 1) & (len(d.slots) - 1)
	}
}

func (d *dict) get(sel Selector) (*Method, int, bool) {
	i := d.hash(sel)
	probes := 0
	for {
		probes++
		s := &d.slots[i]
		if !s.used {
			return nil, probes, false
		}
		if s.sel == sel {
			return s.m, probes, true
		}
		i = (i + 1) & (len(d.slots) - 1)
		if probes >= len(d.slots) {
			return nil, probes, false
		}
	}
}

func (d *dict) grow() {
	old := d.slots
	d.slots = make([]slot, 2*len(old))
	d.n = 0
	for _, s := range old {
		if s.used {
			d.put(s.sel, s.m)
		}
	}
}

// Image is the registry of classes and atoms: the static world a machine
// loads. It assigns class IDs, including mapping the primitive tags to
// behaviour classes so that methods can be defined on small integers,
// floats and atoms.
type Image struct {
	Atoms   *Atoms
	classes map[word.Class]*Class
	byName  map[string]*Class
	nextID  word.Class

	// The bootstrap classes.
	Object, SmallInt, Float, Atom, Ctx, Cls, Array, Str *Class
}

// NewImage builds the bootstrap image: Object at the root; behaviour
// classes for the primitive tags; Context, Class, Array and String.
func NewImage() *Image {
	img := &Image{
		Atoms:   NewAtoms(),
		classes: make(map[word.Class]*Class),
		byName:  make(map[string]*Class),
		nextID:  word.FirstUserClass,
	}
	img.Object = img.define(NewClass("Object", nil))
	img.SmallInt = img.defineAt(word.ClassSmallInt, NewClass("SmallInt", img.Object))
	img.Float = img.defineAt(word.ClassFloat, NewClass("Float", img.Object))
	img.Atom = img.defineAt(word.ClassAtom, NewClass("Atom", img.Object))
	img.Ctx = img.define(NewClass("Context", img.Object))
	img.Ctx.Indexed = true
	img.Cls = img.define(NewClass("Class", img.Object))
	img.Array = img.define(NewClass("Array", img.Object))
	img.Array.Indexed = true
	img.Str = img.define(NewClass("String", img.Object))
	img.Str.Indexed = true
	return img
}

func (img *Image) define(c *Class) *Class {
	c.ID = img.nextID
	img.nextID++
	img.classes[c.ID] = c
	img.byName[c.Name] = c
	return c
}

func (img *Image) defineAt(id word.Class, c *Class) *Class {
	c.ID = id
	img.classes[id] = c
	img.byName[c.Name] = c
	return c
}

// Define registers a new user class under the next free class ID.
// It returns an error if the name is taken.
func (img *Image) Define(c *Class) (*Class, error) {
	if _, dup := img.byName[c.Name]; dup {
		return nil, fmt.Errorf("object: class %q already defined", c.Name)
	}
	return img.define(c), nil
}

// ClassByID resolves a sixteen-bit class tag to its class.
func (img *Image) ClassByID(id word.Class) (*Class, bool) {
	c, ok := img.classes[id]
	return c, ok
}

// ClassByName resolves a class name.
func (img *Image) ClassByName(name string) (*Class, bool) {
	c, ok := img.byName[name]
	return c, ok
}

// EachClass calls fn for every defined class in ascending class-id order.
// The order is deterministic on purpose: machine construction walks the
// classes (to make class objects), so a randomised walk would give every
// machine a different absolute-space layout and make cross-machine
// statistics incomparable run to run.
func (img *Image) EachClass(fn func(*Class)) {
	ids := make([]word.Class, 0, len(img.classes))
	for id := range img.classes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fn(img.classes[id])
	}
}

// NumClasses returns the number of defined classes.
func (img *Image) NumClasses() int { return len(img.classes) }

// SelectorName is shorthand for the atom table's Name.
func (img *Image) SelectorName(sel Selector) string { return img.Atoms.Name(sel) }
