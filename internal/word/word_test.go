package word

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZeroValueIsUninit(t *testing.T) {
	var w Word
	if !w.IsUninit() {
		t.Fatalf("zero Word = %v, want uninitialised", w)
	}
	if w != Uninit {
		t.Fatalf("zero Word != Uninit")
	}
}

func TestIntRoundTrip(t *testing.T) {
	for _, v := range []int32{0, 1, -1, 42, math.MaxInt32, math.MinInt32} {
		w := FromInt(v)
		if !w.IsInt() {
			t.Fatalf("FromInt(%d).IsInt() = false", v)
		}
		if got := w.Int(); got != v {
			t.Errorf("FromInt(%d).Int() = %d", v, got)
		}
		if got, ok := w.IntOK(); !ok || got != v {
			t.Errorf("IntOK(%d) = %d,%v", v, got, ok)
		}
	}
}

func TestIntRoundTripProperty(t *testing.T) {
	f := func(v int32) bool {
		w := FromInt(v)
		return w.IsInt() && w.Int() == v && w.PrimitiveClass() == ClassSmallInt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloatRoundTripProperty(t *testing.T) {
	f := func(v float32) bool {
		w := FromFloat(v)
		got := w.Float()
		if math.IsNaN(float64(v)) {
			return math.IsNaN(float64(got))
		}
		return w.IsFloat() && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTagStrings(t *testing.T) {
	names := map[Tag]string{
		TagUninit:      "uninit",
		TagSmallInt:    "smallint",
		TagFloat:       "float",
		TagAtom:        "atom",
		TagInstruction: "instruction",
		TagPointer:     "pointer",
	}
	for tag, want := range names {
		if got := tag.String(); got != want {
			t.Errorf("Tag(%d).String() = %q, want %q", tag, got, want)
		}
	}
	if got := Tag(9).String(); got != "tag(9)" {
		t.Errorf("unknown tag string = %q", got)
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"Int on float", func() { FromFloat(1).Int() }},
		{"Float on int", func() { FromInt(1).Float() }},
		{"Atom on int", func() { FromInt(1).Atom() }},
		{"Pointer on atom", func() { FromAtom(3).Pointer() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.f()
		})
	}
}

func TestCheckedAccessors(t *testing.T) {
	if _, ok := FromFloat(1).IntOK(); ok {
		t.Error("IntOK on float succeeded")
	}
	if _, ok := FromInt(1).FloatOK(); ok {
		t.Error("FloatOK on int succeeded")
	}
}

func TestTruthiness(t *testing.T) {
	cases := []struct {
		w    Word
		want bool
	}{
		{True, true},
		{False, false},
		{Nil, false},
		{FromInt(0), false},
		{FromInt(1), true},
		{FromInt(-1), true},
		{FromFloat(0), true}, // only integers and the false/nil atoms are falsy
		{FromPointer(0x123), true},
		{FromAtom(FirstUserAtom), true},
	}
	for _, tc := range cases {
		if got := tc.w.Truthy(); got != tc.want {
			t.Errorf("Truthy(%v) = %v, want %v", tc.w, got, tc.want)
		}
	}
}

func TestBoolWords(t *testing.T) {
	if !True.IsAtom() || True.Atom() != AtomTrue {
		t.Error("True is not the true atom")
	}
	if !False.IsAtom() || False.Atom() != AtomFalse {
		t.Error("False is not the false atom")
	}
	if !Nil.IsNil() {
		t.Error("Nil.IsNil() = false")
	}
	if True.IsNil() || False.IsNil() {
		t.Error("true/false must not be nil")
	}
}

func TestSameIsIdentity(t *testing.T) {
	if !FromInt(7).Same(FromInt(7)) {
		t.Error("identical ints are not Same")
	}
	if FromInt(7).Same(FromFloat(7)) {
		t.Error("int 7 Same float 7.0: identity must not coerce")
	}
	if !FromPointer(0xabc).Same(FromPointer(0xabc)) {
		t.Error("identical pointers are not Same")
	}
	if FromPointer(0xabc).Same(FromPointer(0xabd)) {
		t.Error("different pointers are Same")
	}
}

func TestSameProperty(t *testing.T) {
	f := func(tag uint8, bits uint32) bool {
		w := Word{Tag: Tag(tag % NumTags), Bits: bits}
		return w.Same(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNumberAsFloat(t *testing.T) {
	if v, ok := FromInt(3).NumberAsFloat(); !ok || v != 3 {
		t.Errorf("int→float = %v,%v", v, ok)
	}
	if v, ok := FromFloat(2.5).NumberAsFloat(); !ok || v != 2.5 {
		t.Errorf("float→float = %v,%v", v, ok)
	}
	if _, ok := FromAtom(5).NumberAsFloat(); ok {
		t.Error("atom widened to float")
	}
	if _, ok := FromPointer(5).NumberAsFloat(); ok {
		t.Error("pointer widened to float")
	}
}

func TestPrimitiveClassMatchesTag(t *testing.T) {
	for tag := Tag(0); tag < NumTags; tag++ {
		w := Word{Tag: tag}
		if got := w.PrimitiveClass(); got != Class(tag) {
			t.Errorf("PrimitiveClass of %v = %d, want %d", tag, got, tag)
		}
		if !Class(tag).IsPrimitive() {
			t.Errorf("Class(%d).IsPrimitive() = false", tag)
		}
	}
	if FirstUserClass.IsPrimitive() {
		t.Error("FirstUserClass must not be primitive")
	}
}

func TestStringForms(t *testing.T) {
	cases := []struct {
		w    Word
		want string
	}{
		{Uninit, "∅"},
		{FromInt(-5), "-5"},
		{Nil, "nil"},
		{True, "true"},
		{False, "false"},
	}
	for _, tc := range cases {
		if got := tc.w.String(); got != tc.want {
			t.Errorf("String(%#v) = %q, want %q", tc.w, got, tc.want)
		}
	}
}
