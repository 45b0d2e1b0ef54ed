package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fith"
	"repro/internal/smalltalk"
	"repro/internal/trace"
	"repro/internal/word"
)

// NewCOM compiles and loads a program on a fresh COM.
func NewCOM(p Program, cfg core.Config) (*core.Machine, error) {
	c, err := smalltalk.Compile(p.Src)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", p.Name, err)
	}
	m := core.New(cfg)
	if err := smalltalk.LoadCOM(m, c); err != nil {
		return nil, fmt.Errorf("workload %s: %w", p.Name, err)
	}
	return m, nil
}

// LoadSuite compiles and loads every suite program onto one machine — the
// multi-tenant image the serving subsystem snapshots and stamps. It
// returns the programs loaded.
func LoadSuite(m *core.Machine) ([]Program, error) {
	progs := Suite()
	for _, p := range progs {
		c, err := smalltalk.Compile(p.Src)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", p.Name, err)
		}
		if err := smalltalk.LoadCOM(m, c); err != nil {
			return nil, fmt.Errorf("workload %s: %w", p.Name, err)
		}
	}
	return progs, nil
}

// RunCOM executes the program's measured entry on the machine and returns
// the checksum.
func RunCOM(m *core.Machine, p Program) (int32, error) {
	res, err := m.Send(word.FromInt(p.Size), p.Entry)
	if err != nil {
		return 0, fmt.Errorf("workload %s: %w", p.Name, err)
	}
	v, ok := res.IntOK()
	if !ok {
		return 0, fmt.Errorf("workload %s: non-integer checksum %v", p.Name, res)
	}
	return v, nil
}

// WarmCOM executes the warmup entry.
func WarmCOM(m *core.Machine, p Program) error {
	_, err := m.Send(word.FromInt(p.Warm), p.Entry)
	return err
}

// NewFith compiles and loads a program on a fresh Fith machine.
func NewFith(p Program, cfg fith.Config) (*fith.VM, error) {
	c, err := smalltalk.Compile(p.Src)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", p.Name, err)
	}
	vm := fith.NewVM(cfg)
	if err := smalltalk.LoadFith(vm, c); err != nil {
		return nil, fmt.Errorf("workload %s: %w", p.Name, err)
	}
	return vm, nil
}

// RunFith executes the measured entry on the Fith machine.
func RunFith(vm *fith.VM, p Program) (int32, error) {
	res, err := vm.Send(fith.IntVal(p.Size), p.Entry)
	if err != nil {
		return 0, fmt.Errorf("workload %s: %w", p.Name, err)
	}
	v, ok := res.W.IntOK()
	if !ok {
		return 0, fmt.Errorf("workload %s: non-integer checksum %v", p.Name, res)
	}
	return v, nil
}

// CollectTraces runs the program on the Fith machine twice — warmup size
// then measured size — returning the two instruction traces, exactly the
// §5 methodology ("a warmup trace was run before the measurement trace").
func CollectTraces(p Program) (warm, measure *trace.Trace, err error) {
	vm, err := NewFith(p, fith.Config{})
	if err != nil {
		return nil, nil, err
	}
	wc := trace.NewCollector(p.Name + "-warm")
	vm.Trace = wc.Hook()
	if _, err := vm.Send(fith.IntVal(p.Warm), p.Entry); err != nil {
		return nil, nil, fmt.Errorf("workload %s warmup: %w", p.Name, err)
	}
	mc := trace.NewCollector(p.Name)
	vm.Trace = mc.Hook()
	got, err := RunFith(vm, p)
	if err != nil {
		return nil, nil, err
	}
	if got != p.Check {
		return nil, nil, fmt.Errorf("workload %s: checksum %d, want %d", p.Name, got, p.Check)
	}
	return &wc.T, &mc.T, nil
}
