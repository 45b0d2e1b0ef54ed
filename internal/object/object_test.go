package object

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/word"
)

func TestAtomsWellKnown(t *testing.T) {
	a := NewAtoms()
	if got, _ := a.Lookup("nil"); uint32(got) != word.AtomNil {
		t.Errorf("nil atom id = %d", got)
	}
	if got, _ := a.Lookup("true"); uint32(got) != word.AtomTrue {
		t.Errorf("true atom id = %d", got)
	}
	if got, _ := a.Lookup("false"); uint32(got) != word.AtomFalse {
		t.Errorf("false atom id = %d", got)
	}
}

func TestAtomsInternIdempotent(t *testing.T) {
	a := NewAtoms()
	id1 := a.Intern("foo:bar:")
	id2 := a.Intern("foo:bar:")
	if id1 != id2 {
		t.Fatalf("re-intern changed id: %d vs %d", id1, id2)
	}
	if uint32(id1) < word.FirstUserAtom {
		t.Fatalf("user atom id %d in reserved block", id1)
	}
	if a.Name(id1) != "foo:bar:" {
		t.Fatalf("Name = %q", a.Name(id1))
	}
	if _, ok := a.Lookup("unseen"); ok {
		t.Fatal("Lookup invented an atom")
	}
}

func TestAtomsDistinctProperty(t *testing.T) {
	a := NewAtoms()
	prop := func(names []string) bool {
		ids := map[Selector]string{}
		for _, n := range names {
			if n == "" {
				continue
			}
			id := a.Intern(n)
			if prev, seen := ids[id]; seen && prev != n {
				return false
			}
			ids[id] = n
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFieldIndexWithInheritance(t *testing.T) {
	base := NewClass("Base", nil, "a", "b")
	derived := NewClass("Derived", base, "c")
	if n := derived.FixedSize(); n != 3 {
		t.Fatalf("FixedSize = %d", n)
	}
	cases := map[string]int{"a": 0, "b": 1, "c": 2}
	for name, want := range cases {
		got, ok := derived.FieldIndex(name)
		if !ok || got != want {
			t.Errorf("FieldIndex(%q) = %d,%v want %d", name, got, ok, want)
		}
	}
	if _, ok := derived.FieldIndex("zzz"); ok {
		t.Error("found nonexistent field")
	}
	if _, ok := base.FieldIndex("c"); ok {
		t.Error("superclass sees subclass field")
	}
}

func TestInstallAndLocalLookup(t *testing.T) {
	c := NewClass("C", nil)
	m := &Method{Selector: 100, NumArgs: 1}
	c.Install(m)
	if m.Class != c {
		t.Fatal("Install did not set back-reference")
	}
	got, probes, ok := c.LocalLookup(100)
	if !ok || got != m {
		t.Fatalf("LocalLookup = %v,%v", got, ok)
	}
	if probes < 1 {
		t.Fatalf("probes = %d, want >= 1", probes)
	}
	if _, _, ok := c.LocalLookup(101); ok {
		t.Fatal("found uninstalled selector")
	}
}

func TestInstallReplaces(t *testing.T) {
	c := NewClass("C", nil)
	m1 := &Method{Selector: 7}
	m2 := &Method{Selector: 7}
	c.Install(m1)
	c.Install(m2)
	if c.MethodCount() != 1 {
		t.Fatalf("MethodCount = %d", c.MethodCount())
	}
	got, _, _ := c.LocalLookup(7)
	if got != m2 {
		t.Fatal("replacement not visible")
	}
}

func TestLookupWalksSuperChain(t *testing.T) {
	a := NewClass("A", nil)
	b := NewClass("B", a)
	c := NewClass("C", b)
	m := &Method{Selector: 50}
	a.Install(m)
	got, cost, ok := Lookup(c, 50)
	if !ok || got != m {
		t.Fatalf("Lookup through chain failed: %v %v", got, ok)
	}
	if cost.ChainSteps != 2 {
		t.Fatalf("chain steps = %d, want 2", cost.ChainSteps)
	}
	if cost.Probes < 3 {
		t.Fatalf("probes = %d, want >= 3 (one per dictionary)", cost.Probes)
	}
	if cost.Cycles() <= 0 {
		t.Fatal("lookup cost has no cycles")
	}
}

func TestLookupOverrideShadowsSuper(t *testing.T) {
	a := NewClass("A", nil)
	b := NewClass("B", a)
	ma := &Method{Selector: 9}
	mb := &Method{Selector: 9}
	a.Install(ma)
	b.Install(mb)
	got, _, ok := Lookup(b, 9)
	if !ok || got != mb {
		t.Fatal("override not found first")
	}
	got, _, _ = Lookup(a, 9)
	if got != ma {
		t.Fatal("superclass lost its method")
	}
}

func TestLookupMissCost(t *testing.T) {
	a := NewClass("A", nil)
	b := NewClass("B", a)
	_, cost, ok := Lookup(b, 999)
	if ok {
		t.Fatal("found phantom method")
	}
	if cost.ChainSteps != 2 {
		t.Fatalf("miss walked %d chain steps, want 2", cost.ChainSteps)
	}
}

func TestDictManyMethods(t *testing.T) {
	c := NewClass("Big", nil)
	const n = 200
	for i := 0; i < n; i++ {
		c.Install(&Method{Selector: Selector(1000 + i)})
	}
	if c.MethodCount() != n {
		t.Fatalf("MethodCount = %d", c.MethodCount())
	}
	for i := 0; i < n; i++ {
		m, probes, ok := c.LocalLookup(Selector(1000 + i))
		if !ok || m.Selector != Selector(1000+i) {
			t.Fatalf("lost selector %d", 1000+i)
		}
		if probes > 32 {
			t.Fatalf("probe count %d pathological", probes)
		}
	}
	seen := 0
	c.Methods(func(*Method) { seen++ })
	if seen != n {
		t.Fatalf("Methods visited %d", seen)
	}
}

func TestDictProperty(t *testing.T) {
	prop := func(sels []uint16) bool {
		c := NewClass("P", nil)
		want := map[Selector]bool{}
		for _, s := range sels {
			sel := Selector(s)
			c.Install(&Method{Selector: sel})
			want[sel] = true
		}
		if c.MethodCount() != len(want) {
			return false
		}
		for sel := range want {
			if _, _, ok := c.LocalLookup(sel); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInheritsFrom(t *testing.T) {
	a := NewClass("A", nil)
	b := NewClass("B", a)
	c := NewClass("C", nil)
	if !b.InheritsFrom(a) || !b.InheritsFrom(b) {
		t.Error("InheritsFrom misses chain or self")
	}
	if b.InheritsFrom(c) || a.InheritsFrom(b) {
		t.Error("InheritsFrom invents relations")
	}
}

func TestImageBootstrap(t *testing.T) {
	img := NewImage()
	if img.SmallInt.ID != word.ClassSmallInt {
		t.Errorf("SmallInt class id = %d", img.SmallInt.ID)
	}
	if img.Float.ID != word.ClassFloat {
		t.Errorf("Float class id = %d", img.Float.ID)
	}
	if img.Object.ID < word.FirstUserClass {
		t.Errorf("Object id %d in primitive range", img.Object.ID)
	}
	if !img.SmallInt.InheritsFrom(img.Object) {
		t.Error("SmallInt does not inherit Object")
	}
	for _, name := range []string{"Object", "SmallInt", "Float", "Atom", "Context", "Class", "Array", "String"} {
		c, ok := img.ClassByName(name)
		if !ok {
			t.Errorf("bootstrap class %q missing", name)
			continue
		}
		got, ok := img.ClassByID(c.ID)
		if !ok || got != c {
			t.Errorf("ClassByID(%d) = %v,%v", c.ID, got, ok)
		}
	}
	if !img.Array.Indexed || !img.Str.Indexed || !img.Ctx.Indexed {
		t.Error("indexed bootstrap classes not marked Indexed")
	}
}

func TestImageDefine(t *testing.T) {
	img := NewImage()
	before := img.NumClasses()
	c, err := img.Define(NewClass("Point", img.Object, "x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	if c.ID < word.FirstUserClass {
		t.Errorf("user class id %d in primitive range", c.ID)
	}
	if img.NumClasses() != before+1 {
		t.Errorf("NumClasses = %d", img.NumClasses())
	}
	if _, err := img.Define(NewClass("Point", img.Object)); err == nil {
		t.Error("duplicate class name accepted")
	}
	// IDs are unique.
	seen := map[word.Class]string{}
	img.EachClass(func(k *Class) {
		if prev, dup := seen[k.ID]; dup {
			t.Errorf("class id %d shared by %s and %s", k.ID, prev, k.Name)
		}
		seen[k.ID] = k.Name
	})
}

func TestMethodString(t *testing.T) {
	c := NewClass("Point", nil)
	m := &Method{Selector: 42}
	c.Install(m)
	if got := m.String(); got != "Point>>#42" {
		t.Fatalf("String = %q", got)
	}
	orphan := &Method{Selector: 1}
	if got := orphan.String(); got != "?>>#1" {
		t.Fatalf("orphan String = %q", got)
	}
}

func TestSelectorNameDelegates(t *testing.T) {
	img := NewImage()
	sel := img.Atoms.Intern("printOn:")
	if img.SelectorName(sel) != "printOn:" {
		t.Fatal("SelectorName mismatch")
	}
}

func TestManyClassesUniqueIDs(t *testing.T) {
	img := NewImage()
	for i := 0; i < 100; i++ {
		if _, err := img.Define(NewClass(fmt.Sprintf("C%d", i), img.Object)); err != nil {
			t.Fatal(err)
		}
	}
	ids := map[word.Class]bool{}
	img.EachClass(func(c *Class) { ids[c.ID] = true })
	if len(ids) != img.NumClasses() {
		t.Fatalf("id collisions: %d ids for %d classes", len(ids), img.NumClasses())
	}
}
