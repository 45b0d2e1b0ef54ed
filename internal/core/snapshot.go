package core

import "fmt"

// This file implements the machine snapshot: a compiled and loaded
// machine's state is exported once, as the same MachineState the image
// codec encodes, and any number of independent machines are stamped out
// of it through the importer an image load uses, instead of re-running
// the compiler and loader per machine. The importers copy every array a
// machine writes (slab words, atom names, host roots), so the state stays
// immutable and two machines stamped from it share no mutable state: they
// can run on different goroutines without synchronisation.

// Snapshot is a captured machine state. It is immutable after capture:
// NewMachine may be called concurrently from any number of goroutines.
type Snapshot struct {
	state *MachineState
}

// Snapshot captures the machine's current state. The machine must be idle
// (between sends); snapshotting a machine mid-execution is refused, as is
// a configuration an image load would refuse (see validateConfig), so
// every captured state stamps. The machine itself is untouched apart from
// a context-cache writeback and remains fully usable.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if m.IP.Valid() || m.Ctx.HasCurrent() || m.Ctx.HasNext() {
		return nil, trapf("snapshot", "machine is mid-send; snapshot requires an idle machine")
	}
	if err := validateConfig(m.Cfg); err != nil {
		return nil, err
	}
	m.Ctx.WritebackAll()
	st, err := m.exportState()
	if err != nil {
		return nil, err
	}
	return &Snapshot{state: st}, nil
}

// NewMachine stamps an independent machine out of the snapshot, through
// the importer ImportSnapshot validated the state with. Safe for
// concurrent use.
func (s *Snapshot) NewMachine() *Machine {
	m, err := importMachine(s.state)
	if err != nil {
		// Snapshot and ImportSnapshot accept only states that import.
		panic(fmt.Sprintf("core: captured state does not import: %v", err))
	}
	return m
}

// Stats returns the machine's accounting at capture time.
func (s *Snapshot) Stats() Stats { return s.state.Stats }

// State returns the captured state for the image codec to encode. It is
// the snapshot's own state, not a copy: callers must not modify it.
func (s *Snapshot) State() *MachineState { return s.state }
