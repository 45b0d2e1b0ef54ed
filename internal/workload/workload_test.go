package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fith"
)

func TestSuiteChecksumsAgreeAcrossMachines(t *testing.T) {
	for _, p := range Suite() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			m, err := NewCOM(p, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunCOM(m, p)
			if err != nil {
				t.Fatal(err)
			}
			if got != p.Check {
				t.Errorf("COM checksum = %d, want %d", got, p.Check)
			}
			vm, err := NewFith(p, fith.Config{})
			if err != nil {
				t.Fatal(err)
			}
			fgot, err := RunFith(vm, p)
			if err != nil {
				t.Fatal(err)
			}
			if fgot != p.Check {
				t.Errorf("Fith checksum = %d, want %d", fgot, p.Check)
			}
		})
	}
}

func TestTracesAreLargeEnough(t *testing.T) {
	// §5: the paper's longest trace was about 20,000 instructions; every
	// program's measurement trace must reach that scale.
	for _, p := range Suite() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			warm, measure, err := CollectTraces(p)
			if err != nil {
				t.Fatal(err)
			}
			if measure.Len() < 20000 {
				t.Errorf("measurement trace has %d instructions, want >= 20000", measure.Len())
			}
			if warm.Len() == 0 {
				t.Error("warmup trace empty")
			}
			if measure.DistinctKeys() < 10 {
				t.Errorf("only %d distinct translation keys", measure.DistinctKeys())
			}
		})
	}
}

func TestWarmupSmallerThanMeasured(t *testing.T) {
	for _, p := range Suite() {
		if p.Warm >= p.Size {
			t.Errorf("%s: warmup size %d >= measured size %d", p.Name, p.Warm, p.Size)
		}
	}
}

func TestSuiteNamesUnique(t *testing.T) {
	names := map[string]bool{}
	for _, p := range Suite() {
		if names[p.Name] {
			t.Errorf("duplicate program name %q", p.Name)
		}
		names[p.Name] = true
	}
}

func TestWarmCOM(t *testing.T) {
	p := Arith()
	m, err := NewCOM(p, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := WarmCOM(m, p); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Instructions == 0 {
		t.Fatal("warmup executed nothing")
	}
}

func TestSendHeavyWorkloadsDominatedByContextRefs(t *testing.T) {
	// §2.3: over 91% of memory references are to contexts. Send-heavy
	// programs on the COM should reproduce the shape.
	p := Recurse()
	m, err := NewCOM(p, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCOM(m, p); err != nil {
		t.Fatal(err)
	}
	if share := m.Stats.RefsToContextShare(); share < 0.85 {
		t.Errorf("context reference share = %.3f, want > 0.85", share)
	}
	if share := m.Stats.ContextAllocShare(); share < 0.85 {
		t.Errorf("context allocation share = %.3f, want > 0.85", share)
	}
}

func TestDispatchTraceIsMegamorphic(t *testing.T) {
	_, measure, err := CollectTraces(Dispatch())
	if err != nil {
		t.Fatal(err)
	}
	classes := map[uint16]bool{}
	for _, r := range measure.Records {
		if r.Send {
			classes[uint16(r.Class)] = true
		}
	}
	if len(classes) < 8 {
		t.Errorf("dispatch workload exercised %d receiver classes, want >= 8", len(classes))
	}
	sends := measure.SendOnly()
	if sends.Len() == 0 || sends.Len() >= measure.Len() {
		t.Errorf("send filter: %d of %d", sends.Len(), measure.Len())
	}
}
