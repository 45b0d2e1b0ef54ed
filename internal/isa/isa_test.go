package isa

import (
	"testing"
	"testing/quick"
)

func TestOperandModes(t *testing.T) {
	c5 := Cur(5)
	if !c5.IsCtx() || c5.CtxNext() || c5.CtxOffset() != 5 {
		t.Fatalf("Cur(5) = %08b", c5)
	}
	n9 := Next(9)
	if !n9.IsCtx() || !n9.CtxNext() || n9.CtxOffset() != 9 {
		t.Fatalf("Next(9) = %08b", n9)
	}
	k3 := Const(3)
	if !k3.IsConst() || k3.ConstIndex() != 3 {
		t.Fatalf("Const(3) = %08b", k3)
	}
	if !None.IsNone() || None.IsCtx() {
		t.Fatal("None misclassified")
	}
	if Cur(0).IsNone() || Const(0).IsNone() {
		t.Fatal("real operands classified as None")
	}
}

func TestOperandRangePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Cur(64) },
		func() { Next(-1) },
		func() { Const(127) }, // reserved for None
		func() { Const(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range operand did not panic")
				}
			}()
			f()
		}()
	}
}

func TestOperandStrings(t *testing.T) {
	cases := map[Operand]string{
		Cur(4):   "c4",
		Next(31): "n31",
		Const(9): "#9",
		None:     "-",
	}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("String(%08b) = %q, want %q", o, got, want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := NewInstr(Add, Cur(4), Cur(5), Const(2))
	out := Decode(in.Encode())
	if out != in {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
	if out.NumOperands() != 3 {
		t.Fatalf("NumOperands = %d", out.NumOperands())
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	prop := func(op, a, b, c uint8) bool {
		in := Instr{Op: Opcode(op), A: Operand(a), B: Operand(b), C: Operand(c)}
		return Decode(in.Encode()) == in
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewInstrFillsNone(t *testing.T) {
	in := NewInstr(Ret, Cur(2))
	if in.A != Cur(2) || !in.B.IsNone() || !in.C.IsNone() {
		t.Fatalf("NewInstr = %+v", in)
	}
	if in.NumOperands() != 1 {
		t.Fatalf("NumOperands = %d", in.NumOperands())
	}
	none := NewInstr(Nop)
	if none.NumOperands() != 0 {
		t.Fatalf("nop operands = %d", none.NumOperands())
	}
}

func TestNewInstrTooManyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("four operands accepted")
		}
	}()
	NewInstr(Add, Cur(0), Cur(1), Cur(2), Cur(3))
}

func TestOpcodeMetadata(t *testing.T) {
	if Add.Kind() != KindDispatch || Move.Kind() != KindControl {
		t.Error("kind misclassification")
	}
	if Opcode(200).Kind() != KindDispatch {
		t.Error("dynamic opcodes must dispatch")
	}
	if Add.SelectorName() != "+" {
		t.Errorf("Add selector = %q", Add.SelectorName())
	}
	if AtPut.SelectorName() != "at:put:" {
		t.Errorf("AtPut selector = %q", AtPut.SelectorName())
	}
	if Move.SelectorName() != "" {
		t.Errorf("Move selector = %q", Move.SelectorName())
	}
	if !Add.IsFixed() || Opcode(64).IsFixed() {
		t.Error("IsFixed wrong")
	}
	if Opcode(99).Name() != "dyn99" {
		t.Errorf("dynamic name = %q", Opcode(99).Name())
	}
}

func TestFixedByNameAndSelector(t *testing.T) {
	op, ok := FixedByName("atput")
	if !ok || op != AtPut {
		t.Fatalf("FixedByName(atput) = %v,%v", op, ok)
	}
	if _, ok := FixedByName("bogus"); ok {
		t.Fatal("resolved bogus mnemonic")
	}
}

func TestFixedOpcodesEnumeratesAll(t *testing.T) {
	n := 0
	seen := map[string]bool{}
	FixedOpcodes(func(op Opcode) {
		n++
		if seen[op.Name()] {
			t.Errorf("duplicate mnemonic %q", op.Name())
		}
		seen[op.Name()] = true
	})
	if n != int(numFixed) {
		t.Fatalf("enumerated %d, want %d", n, numFixed)
	}
	if numFixed > FirstDynamic {
		t.Fatalf("fixed opcodes (%d) overflow into dynamic space (%d)", numFixed, FirstDynamic)
	}
}

func TestInstrString(t *testing.T) {
	in := NewInstr(Add, Cur(4), Cur(5), Const(1))
	if got := in.String(); got != "add c4 c5 #1" {
		t.Fatalf("String = %q", got)
	}
	if got := NewInstr(Xfer).String(); got != "xfer" {
		t.Fatalf("String = %q", got)
	}
}
