package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/word"
)

// factMachine builds a machine with the recursive factorial method
// installed — enough dispatch traffic to warm the ITLB and exercise
// contexts, classes and method segments through a clone.
func factMachine(t *testing.T) *Machine {
	t.Helper()
	m := New(Config{})
	install(t, m, m.Image.SmallInt, "fact", 0, 4, `
		isZero c5, c3
		fjmp   c5, recurse
		ret    =1
	recurse:
		sub    c6, c3, =1
		fact   c4, c6
		mul    c4, c3, c4
		ret    c4
	`)
	return m
}

func TestSnapshotCloneRunsIndependently(t *testing.T) {
	m := factMachine(t)
	if got := sendInt(t, m, 6, "fact"); got != word.FromInt(720) {
		t.Fatalf("original 6 fact = %v", got)
	}

	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	snapInstrs := m.Stats.Instructions
	c1 := snap.NewMachine()
	c2 := snap.NewMachine()

	// All three machines answer correctly and accumulate stats
	// independently.
	if got := sendInt(t, c1, 5, "fact"); got != word.FromInt(120) {
		t.Fatalf("clone1 5 fact = %v", got)
	}
	if got := sendInt(t, c2, 7, "fact"); got != word.FromInt(5040) {
		t.Fatalf("clone2 7 fact = %v", got)
	}
	if got := sendInt(t, m, 6, "fact"); got != word.FromInt(720) {
		t.Fatalf("original after clones 6 fact = %v", got)
	}
	if c1.Stats.Instructions == c2.Stats.Instructions {
		t.Fatalf("clones shared stats: %d == %d", c1.Stats.Instructions, c2.Stats.Instructions)
	}

	// The snapshot is frozen: machines stamped out later start from the
	// capture point, not from the mutated original.
	c3 := snap.NewMachine()
	if c3.Stats.Instructions != snapInstrs {
		t.Fatalf("late clone starts at %d instructions, want the capture point %d",
			c3.Stats.Instructions, snapInstrs)
	}
	if got := sendInt(t, c3, 3, "fact"); got != word.FromInt(6) {
		t.Fatalf("clone3 3 fact = %v", got)
	}
}

func TestSnapshotSharesNoMutableState(t *testing.T) {
	m := factMachine(t)
	sendInt(t, m, 6, "fact")
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	c := snap.NewMachine()
	if c.Space == m.Space || c.Team == m.Team || c.Image == m.Image ||
		c.ITLB == m.ITLB || c.Ctx == m.Ctx || c.Free == m.Free || c.Hier == m.Hier {
		t.Fatalf("clone shares a subsystem with the original")
	}
	if c.Image.SmallInt == m.Image.SmallInt {
		t.Fatalf("clone shares class objects with the original")
	}
	cm, _, ok := c.Image.SmallInt.LocalLookup(c.Image.Atoms.Intern("fact"))
	om, _, okO := m.Image.SmallInt.LocalLookup(m.Image.Atoms.Intern("fact"))
	if !ok || !okO || cm == om {
		t.Fatalf("clone shares method objects with the original (%v, %v)", ok, okO)
	}
	// Interning on the clone must not leak into the original.
	before := m.Image.Atoms.Len()
	c.Image.Atoms.Intern("cloneOnlySelector")
	if m.Image.Atoms.Len() != before {
		t.Fatalf("intern on clone mutated original atom table")
	}
}

func TestSnapshotPreservesWarmITLB(t *testing.T) {
	m := factMachine(t)
	sendInt(t, m, 8, "fact") // warm the translations
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	c := snap.NewMachine()
	missesBefore := c.ITLB.CacheStats().Misses
	sendInt(t, c, 8, "fact")
	if misses := c.ITLB.CacheStats().Misses - missesBefore; misses != 0 {
		t.Fatalf("warm-started clone took %d ITLB misses", misses)
	}
}

func TestSnapshotRefusesMidSend(t *testing.T) {
	m := factMachine(t)
	sel := m.Image.Atoms.Intern("fact")
	meth, _, ok := m.Image.SmallInt.LocalLookup(sel)
	if !ok {
		t.Fatalf("fact not installed")
	}
	m.IP = CodePtr{Method: meth, PC: 0}
	if _, err := m.Snapshot(); err == nil {
		t.Fatalf("snapshot of a mid-send machine succeeded")
	}
	m.IP = CodePtr{}
	if _, err := m.Snapshot(); err != nil {
		t.Fatalf("snapshot of idle machine: %v", err)
	}
}

func TestConcurrentClonesRace(t *testing.T) {
	m := factMachine(t)
	sendInt(t, m, 6, "fact")
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := snap.NewMachine()
			for i := 0; i < 10; i++ {
				res, err := c.Send(word.FromInt(6), "fact")
				if err != nil {
					t.Errorf("clone send: %v", err)
					return
				}
				if res != word.FromInt(720) {
					t.Errorf("clone 6 fact = %v", res)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestDeadlineTrapsAndAbortRecovers(t *testing.T) {
	m := New(Config{})
	install(t, m, m.Image.SmallInt, "spin", 0, 1, `
	loop:
		nop
		rjmp =1, loop
	`)
	install(t, m, m.Image.SmallInt, "double", 0, 1, `
		add c4, c3, c3
		ret c4
	`)
	m.Arm(Monotonic(), 0, 20*time.Millisecond)
	_, err := m.Send(word.FromInt(1), "spin")
	if err == nil {
		t.Fatalf("spin returned without a deadline trap")
	}
	trap, ok := err.(*Trap)
	if !ok || trap.Kind != "timeout" {
		t.Fatalf("expected timeout trap, got %v", err)
	}
	// Send left the machine idle, so Abort has nothing left to do, and
	// the machine serves again.
	m.Abort()
	if got := sendInt(t, m, 21, "double"); got != word.FromInt(42) {
		t.Fatalf("post-abort 21 double = %v", got)
	}
}

// TestSendLeavesMachineIdle pins Send's contract: whatever a send ends
// in, the machine is left idle — no current or next context, an invalid
// IP, no budget or deadline armed — and the next send runs with the
// default budget and no deadline. The bounds Arm sets last one send,
// and a deadline armed from a reading whose bound is already over traps
// at the first poll that reads the clock.
func TestSendLeavesMachineIdle(t *testing.T) {
	m := New(Config{})
	install(t, m, m.Image.SmallInt, "spin", 0, 1, `
	loop:
		nop
		rjmp =1, loop
	`)
	install(t, m, m.Image.SmallInt, "boom", 0, 1, `
		zork c4, c3
		ret  c4
	`)
	install(t, m, m.Image.SmallInt, "double", 0, 1, `
		add c4, c3, c3
		ret c4
	`)
	// sumTo: sum of 1..receiver, about four steps a term. 1000 of them
	// outrun every budget below and poll the clock several times.
	install(t, m, m.Image.SmallInt, "sumTo", 0, 4, `
		move c4, =0
		move c5, =1
	loop:
		add  c4, c4, c5
		add  c5, c5, =1
		le   c6, c5, c3
		rjmp c6, loop
		ret  c4
	`)
	cases := []struct {
		name     string
		recv     int32
		sel      string
		args     []word.Word
		steps    uint64
		d        time.Duration
		stale    bool // arm from a reading a second old
		wantTrap string
		want     int32
	}{
		{name: "mid-run trap", recv: 1, sel: "boom", wantTrap: "doesNotUnderstand"},
		{name: "step limit", recv: 1, sel: "spin", steps: 100, wantTrap: "resources"},
		{name: "deadline", recv: 1, sel: "spin", d: 5 * time.Millisecond, wantTrap: "timeout"},
		{name: "stale deadline", recv: 1, sel: "spin", d: time.Millisecond, stale: true, wantTrap: "timeout"},
		{name: "root primitive", recv: 3, sel: "+", args: []word.Word{word.FromInt(4)}, steps: 1, d: time.Millisecond, stale: true, want: 7},
		{name: "unknown selector", recv: 1, sel: "nonesuch", steps: 1, d: time.Millisecond, stale: true, wantTrap: "doesNotUnderstand"},
		{name: "success", recv: 21, sel: "double", steps: 10, d: time.Hour, want: 42},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			now := Monotonic()
			if tc.stale {
				now -= int64(time.Second)
			}
			m.Arm(now, tc.steps, tc.d)
			v, err := m.Send(word.FromInt(tc.recv), tc.sel, tc.args...)
			if tc.wantTrap != "" {
				if trap, ok := err.(*Trap); !ok || trap.Kind != tc.wantTrap {
					t.Fatalf("got %v, %v; want a %s trap", v, err, tc.wantTrap)
				}
			} else if err != nil || v != word.FromInt(tc.want) {
				t.Fatalf("got %v, %v; want %d", v, err, tc.want)
			}
			if m.Ctx.HasCurrent() || m.Ctx.HasNext() || m.IP.Valid() {
				t.Fatalf("not idle: current %v next %v IP %+v", m.Ctx.HasCurrent(), m.Ctx.HasNext(), m.IP)
			}
			if m.budget != 0 || m.deadline != 0 {
				t.Fatalf("bounds still armed: budget %d deadline %d", m.budget, m.deadline)
			}
			if got := sendInt(t, m, 1000, "sumTo"); got != word.FromInt(500500) {
				t.Fatalf("next send: 1000 sumTo = %v", got)
			}
		})
	}
}

func TestInterruptStopsRun(t *testing.T) {
	m := New(Config{})
	install(t, m, m.Image.SmallInt, "spin", 0, 1, `
	loop:
		nop
		rjmp =1, loop
	`)
	done := make(chan error, 1)
	go func() {
		_, err := m.Send(word.FromInt(1), "spin")
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	m.Interrupt()
	select {
	case err := <-done:
		trap, ok := err.(*Trap)
		if !ok || trap.Kind != "interrupt" {
			t.Fatalf("expected interrupt trap, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("interrupt did not stop the machine")
	}
	m.ClearInterrupt()
	m.Abort()
}
