package obarch

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	sys := NewSystem(Options{})
	if err := sys.Load(`extend SmallInt [ method double [ ^self + self ] ]`); err != nil {
		t.Fatal(err)
	}
	got, err := sys.SendInt(21, "double")
	if err != nil || got != 42 {
		t.Fatalf("double = %d, %v", got, err)
	}
	if sys.Stats().Instructions == 0 {
		t.Fatal("no instructions recorded")
	}
}

// TestSendAfterTrap sends to a System whose last send trapped mid-run:
// the machine is ready again without any reset by the caller.
func TestSendAfterTrap(t *testing.T) {
	sys := NewSystem(Options{})
	if err := sys.Load(`extend SmallInt [
		method boom [ ^self zork ]
		method double [ ^self + self ]
	]`); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SendInt(1, "boom"); err == nil || !strings.Contains(err.Error(), "doesNotUnderstand") {
		t.Fatalf("1 boom = %v, want a doesNotUnderstand trap", err)
	}
	if got, err := sys.SendInt(21, "double"); err != nil || got != 42 {
		t.Fatalf("21 double after a trap = %d, %v", got, err)
	}
}

func TestValuesAndInstances(t *testing.T) {
	sys := NewSystem(Options{})
	arr, err := sys.NewInstanceOf("Array", 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Send(arr, "at:put:", Int(0), Float(1.5)); err != nil {
		t.Fatal(err)
	}
	got, err := sys.Send(arr, "at:", Int(0))
	if err != nil || got != Float(1.5) {
		t.Fatalf("round trip = %v, %v", got, err)
	}
	if _, err := sys.NewInstanceOf("Nonesuch", 0); err == nil {
		t.Fatal("unknown class instantiated")
	}
	if !True.Truthy() || False.Truthy() || Nil.Truthy() {
		t.Fatal("truth constants wrong")
	}
}

func TestCollectThroughFacade(t *testing.T) {
	sys := NewSystem(Options{})
	for i := 0; i < 5; i++ {
		if _, err := sys.NewInstanceOf("Array", 4); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.Collect()
	if st.SweptObjects != 5 {
		t.Fatalf("swept %d, want 5", st.SweptObjects)
	}
	keep, _ := sys.NewInstanceOf("Array", 4)
	sys.AddRoot(keep)
	if st := sys.Collect(); st.SweptObjects != 0 {
		t.Fatalf("swept rooted object")
	}
}

func TestFithFacadeAgrees(t *testing.T) {
	src := `extend SmallInt [ method triple [ ^self + self + self ] ]`
	sys := NewSystem(Options{})
	if err := sys.Load(src); err != nil {
		t.Fatal(err)
	}
	fs := NewFithSystem()
	if err := fs.Load(src); err != nil {
		t.Fatal(err)
	}
	a, err := sys.SendInt(14, "triple")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fs.SendInt(14, "triple")
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a != 42 {
		t.Fatalf("COM %d vs Fith %d", a, b)
	}
}

func TestOptionsAblation(t *testing.T) {
	src := `extend SmallInt [ method double [ ^self + self ] ]`
	run := func(opt Options) uint64 {
		sys := NewSystem(opt)
		if err := sys.Load(src); err != nil {
			t.Fatal(err)
		}
		for i := int32(0); i < 30; i++ {
			if _, err := sys.SendInt(i, "double"); err != nil {
				t.Fatal(err)
			}
		}
		return sys.Stats().LookupCycles
	}
	if with, without := run(Options{}), run(Options{NoITLB: true}); without <= with {
		t.Fatalf("NoITLB lookup cycles %d not above ITLB %d", without, with)
	}
	sys := NewSystem(Options{ITLBEntries: 16, ITLBAssoc: 1, CtxBlocks: 8, MaxSteps: 1000})
	if err := sys.Load(src); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SendInt(3, "double"); err != nil {
		t.Fatal(err)
	}
	if sys.ITLBHitRatio() < 0 {
		t.Fatal("hit ratio unavailable")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := Experiments()
	if len(ids) < 9 {
		t.Fatalf("only %d experiments", len(ids))
	}
	var buf bytes.Buffer
	if err := RunExperiment("t5", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MULTICS") {
		t.Fatalf("t5 report:\n%s", buf.String())
	}
	if err := RunExperiment("bogus", &buf); err == nil {
		t.Fatal("bogus experiment ran")
	}
}

func TestLoadErrorsSurface(t *testing.T) {
	sys := NewSystem(Options{})
	if err := sys.Load("class ["); err == nil {
		t.Fatal("bad source loaded")
	}
	if _, err := sys.SendInt(1, "missingMethod"); err == nil {
		t.Fatal("missing method answered")
	}
}

func TestServePoolThroughFacade(t *testing.T) {
	sys := NewSystem(Options{})
	if err := sys.Load(`extend SmallInt [ method double [ ^self + self ] ]`); err != nil {
		t.Fatal(err)
	}
	// The package-doc serving quickstart, verbatim.
	pool, err := sys.ServePool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	res := pool.Do(Request{Receiver: Int(21), Selector: "double"})
	v, err := res.Int()
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("pool 21 double = %d", v)
	}
	// The System itself stays usable alongside the pool: the snapshot
	// decoupled them.
	if got, err := sys.SendInt(10, "double"); err != nil || got != 20 {
		t.Fatalf("system after pool: %d, %v", got, err)
	}
	if met := pool.Metrics(); met.Requests != 1 || met.Errors != 0 {
		t.Fatalf("pool metrics: %+v", met)
	}
}
