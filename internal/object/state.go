package object

import (
	"fmt"
	"slices"

	"repro/internal/word"
)

// This file exposes the static world — atoms, classes, dictionaries and
// methods — as plain data for the persistent image codec. Classes and
// methods are referred to by their position in the exported tables, and
// dictionary slot layout is preserved exactly: the open-addressing probe
// counts are part of the modelled machine (the ITLB miss path charges
// them), so a loaded image must reproduce them bit for bit.

// SlotState is one dictionary slot. Method indexes the exported method
// table; unused slots carry zeroes.
type SlotState struct {
	Used   bool
	Sel    Selector
	Method int32
}

// ClassState is one exported class. Super indexes the exported class
// table, -1 for the root.
type ClassState struct {
	ID      word.Class
	Name    string
	Super   int32
	Fields  []string
	Indexed bool
	Slots   []SlotState
}

// MethodState is one exported method. Class indexes the exported class
// table, -1 when the method is installed on no class.
type MethodState struct {
	Selector  Selector
	Class     int32
	NumArgs   int32
	NumTemps  int32
	Literals  []word.Word
	Code      []uint32
	Primitive PrimID
	StackCode []uint32
	CodeBase  uint32
}

// ImageState is the serialisable state of an image. Bootstrap holds the
// class-table indexes of the eight well-known classes, in the fixed order
// Object, SmallInt, Float, Atom, Ctx, Cls, Array, Str.
type ImageState struct {
	AtomNames []string
	NextID    word.Class
	Classes   []ClassState
	Methods   []MethodState
	Bootstrap [8]int32
}

// ExportState flattens the image. Classes are exported in ascending
// class-id order and methods in first-reference order (dictionary slots
// first, then extras); identical images therefore export identical state.
// extras lists methods outside every dictionary — displaced by
// redefinition but still referenced by the machine (code index, warm ITLB
// lines) — that must survive the round trip. The returned maps give the
// caller the class/method numbering so it can export its own references.
func (img *Image) ExportState(extras []*Method) (*ImageState, map[*Class]int32, map[*Method]int32) {
	st := &ImageState{
		AtomNames: slices.Clone(img.Atoms.names),
		NextID:    img.nextID,
	}
	classID := make(map[*Class]int32, len(img.classes))
	img.EachClass(func(c *Class) {
		classID[c] = int32(len(classID))
		st.Classes = append(st.Classes, ClassState{})
	})
	methodID := make(map[*Method]int32)
	methodOf := func(m *Method) int32 {
		id, ok := methodID[m]
		if !ok {
			id = int32(len(st.Methods))
			methodID[m] = id
			cls := int32(-1)
			if m.Class != nil {
				if cid, ok := classID[m.Class]; ok {
					cls = cid
				}
			}
			st.Methods = append(st.Methods, MethodState{
				Selector:  m.Selector,
				Class:     cls,
				NumArgs:   int32(m.NumArgs),
				NumTemps:  int32(m.NumTemps),
				Literals:  slices.Clone(m.Literals),
				Code:      slices.Clone(m.Code),
				Primitive: m.Primitive,
				StackCode: slices.Clone(m.StackCode),
				CodeBase:  m.CodeBase,
			})
		}
		return id
	}
	img.EachClass(func(c *Class) {
		cs := &st.Classes[classID[c]]
		cs.ID = c.ID
		cs.Name = c.Name
		cs.Super = -1
		if c.Super != nil {
			cs.Super = classID[c.Super]
		}
		cs.Fields = slices.Clone(c.Fields)
		cs.Indexed = c.Indexed
		cs.Slots = make([]SlotState, len(c.dict.slots))
		for i, s := range c.dict.slots {
			if s.used {
				cs.Slots[i] = SlotState{Used: true, Sel: s.sel, Method: methodOf(s.m)}
			}
		}
	})
	for _, m := range extras {
		if m != nil {
			methodOf(m)
		}
	}
	st.Bootstrap = [8]int32{
		classID[img.Object], classID[img.SmallInt], classID[img.Float], classID[img.Atom],
		classID[img.Ctx], classID[img.Cls], classID[img.Array], classID[img.Str],
	}
	return st, classID, methodID
}

// ImportImage rebuilds an image from exported state, returning the class
// and method tables in export order so the caller can resolve its own
// indexes. Every index is validated; malformed state errors out. The
// atom table, which Intern appends to, is copied; field lists and method
// literals and code, which nothing writes after compilation, are shared
// with the state, so one state can be imported any number of times,
// concurrently.
func ImportImage(st *ImageState) (*Image, []*Class, []*Method, error) {
	if n := uint32(len(st.AtomNames)); n < word.FirstUserAtom {
		return nil, nil, nil, fmt.Errorf("object: atom table of %d names lacks the reserved block", n)
	}
	atoms := &Atoms{
		names: slices.Clone(st.AtomNames),
		ids:   make(map[string]Selector, len(st.AtomNames)),
	}
	// The ids map holds the three well-known atoms plus every interned
	// user symbol; the remaining reserved names are placeholders that were
	// never interned and must stay unreachable by name.
	atoms.ids["nil"] = Selector(word.AtomNil)
	atoms.ids["true"] = Selector(word.AtomTrue)
	atoms.ids["false"] = Selector(word.AtomFalse)
	for i := word.FirstUserAtom; i < uint32(len(atoms.names)); i++ {
		name := atoms.names[i]
		if _, dup := atoms.ids[name]; dup {
			return nil, nil, nil, fmt.Errorf("object: atom %q interned twice", name)
		}
		atoms.ids[name] = Selector(i)
	}

	classes := make([]*Class, len(st.Classes))
	for i := range classes {
		classes[i] = &Class{}
	}
	methods := make([]*Method, len(st.Methods))
	classAt := func(idx int32) (*Class, error) {
		if idx == -1 {
			return nil, nil
		}
		if idx < 0 || int(idx) >= len(classes) {
			return nil, fmt.Errorf("object: class index %d of %d", idx, len(classes))
		}
		return classes[idx], nil
	}
	for i, ms := range st.Methods {
		cls, err := classAt(ms.Class)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("object: method %d: %w", i, err)
		}
		if ms.NumArgs < 0 || ms.NumTemps < 0 {
			return nil, nil, nil, fmt.Errorf("object: method %d has negative frame counts", i)
		}
		methods[i] = &Method{
			Selector:  ms.Selector,
			Class:     cls,
			NumArgs:   int(ms.NumArgs),
			NumTemps:  int(ms.NumTemps),
			Literals:  ms.Literals,
			Code:      ms.Code,
			Primitive: ms.Primitive,
			StackCode: ms.StackCode,
			CodeBase:  ms.CodeBase,
		}
	}
	img := &Image{
		Atoms:   atoms,
		classes: make(map[word.Class]*Class, len(classes)),
		byName:  make(map[string]*Class, len(classes)),
		nextID:  st.NextID,
	}
	for i, cs := range st.Classes {
		c := classes[i]
		super, err := classAt(cs.Super)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("object: class %q: %w", cs.Name, err)
		}
		if super == c {
			return nil, nil, nil, fmt.Errorf("object: class %q is its own superclass", cs.Name)
		}
		c.ID = cs.ID
		c.Name = cs.Name
		c.Super = super
		c.Fields = cs.Fields
		c.Indexed = cs.Indexed
		if n := len(cs.Slots); n != 0 && (n < 4 || n&(n-1) != 0) {
			return nil, nil, nil, fmt.Errorf("object: class %q dictionary of %d slots", cs.Name, n)
		}
		d := &dict{slots: make([]slot, len(cs.Slots))}
		for j, ss := range cs.Slots {
			if !ss.Used {
				continue
			}
			if ss.Method < 0 || int(ss.Method) >= len(methods) {
				return nil, nil, nil, fmt.Errorf("object: class %q slot %d names method %d of %d", cs.Name, j, ss.Method, len(methods))
			}
			d.slots[j] = slot{sel: ss.Sel, m: methods[ss.Method], used: true}
			d.n++
		}
		c.dict = d
		if _, dup := img.classes[c.ID]; dup {
			return nil, nil, nil, fmt.Errorf("object: class id %d defined twice", c.ID)
		}
		if _, dup := img.byName[c.Name]; dup {
			return nil, nil, nil, fmt.Errorf("object: class %q defined twice", c.Name)
		}
		img.classes[c.ID] = c
		img.byName[c.Name] = c
	}
	// Method lookup walks superclass chains with no step bound inside a
	// single interpreter step, so a cycle — which the direct self-super
	// check above cannot see — would hang a worker beyond the reach of
	// deadlines. Every chain must reach the root within the class count.
	for i, c := range classes {
		k := c
		for steps := 0; k != nil; steps++ {
			if steps > len(classes) {
				return nil, nil, nil, fmt.Errorf("object: class %q sits on a superclass cycle", classes[i].Name)
			}
			k = k.Super
		}
	}
	boot := make([]*Class, 8)
	for i, idx := range st.Bootstrap {
		c, err := classAt(idx)
		if err != nil || c == nil {
			return nil, nil, nil, fmt.Errorf("object: bootstrap class %d missing", i)
		}
		boot[i] = c
	}
	img.Object, img.SmallInt, img.Float, img.Atom = boot[0], boot[1], boot[2], boot[3]
	img.Ctx, img.Cls, img.Array, img.Str = boot[4], boot[5], boot[6], boot[7]

	// An empty dictionary still needs its backing array so Install works;
	// newDict would have given it 4 slots minimum. Classes exported with a
	// zero-length slot array cannot occur (newDict floors at 4), so reject
	// them above via the power-of-two check only when non-zero, and grow
	// here for safety.
	for _, c := range classes {
		if len(c.dict.slots) == 0 {
			c.dict = newDict(8)
		}
	}
	return img, classes, methods, nil
}
