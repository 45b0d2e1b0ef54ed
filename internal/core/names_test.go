package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fpa"
	"repro/internal/gc"
	"repro/internal/smalltalk"
	"repro/internal/word"
)

// TestRunawaySendTrapsOnContextNames runs a send that recurses for ever
// on a format with few context names: a 20-bit mantissa leaves 2^15
// names at the context exponent. Spending them is a resources trap, not
// a Go panic, and once a collection has reclaimed the abandoned chain
// the next send answers. (This test lives outside package core because
// package smalltalk imports it.)
func TestRunawaySendTrapsOnContextNames(t *testing.T) {
	m := core.New(core.Config{Format: fpa.Format{ExpBits: 5, ManBits: 20}})
	c, err := smalltalk.Compile(`extend SmallInt [
		method loop [ ^self loop ]
		method double [ ^self + self ]
	]`)
	if err != nil {
		t.Fatal(err)
	}
	if err := smalltalk.LoadCOM(m, c); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		_, err := m.Send(word.FromInt(1), "loop")
		if trap, ok := err.(*core.Trap); !ok || trap.Kind != "resources" {
			t.Fatalf("round %d: runaway send returned %v, want a resources trap", round, err)
		}
		gc.Collect(m)
		if v, err := m.Send(word.FromInt(21), "double"); err != nil || v != word.FromInt(42) {
			t.Fatalf("round %d: 21 double after the trap = %v, %v", round, v, err)
		}
	}
}
