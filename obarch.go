// Package obarch is the public face of this reproduction of Dally &
// Kajiya's "An Object Oriented Architecture" (ISCA 1985): the Caltech
// Object Machine (COM) with abstract instructions, an instruction
// translation lookaside buffer, floating point addresses, three-level
// addressing and hardware context support — plus the Fith stack machine
// and trace-driven cache simulations that produced the paper's figures.
//
// A System bundles a COM, the Smalltalk-subset compiler and the loader:
//
//	sys := obarch.NewSystem(obarch.Options{})
//	sys.Load(`extend SmallInt [ method double [ ^self + self ] ]`)
//	v, _ := sys.SendInt(21, "double") // 42
//
// For serving, a loaded System is captured once with Snapshot and cheaply
// stamped into a sharded pool of independent machines, each on its own
// goroutine behind its own work queue — compile and load once, serve
// concurrently:
//
//	sys := obarch.NewSystem(obarch.Options{})
//	sys.Load(src)
//	pool, _ := sys.ServePool(8) // 8 workers stamped from one image
//	defer pool.Close()
//	res := pool.Do(obarch.Request{Receiver: obarch.Int(21), Selector: "double"})
//	v, _ := res.Int() // 42
//
// Requests carry optional step budgets, wall-clock timeouts, and affinity
// keys (equal keys always reach the same worker machine, keeping its ITLB
// working set hot); keyless requests join the shortest queue by
// power-of-two-choices. The request lifecycle is zero-allocation:
// results travel in pooled, recycled Futures rather than per-call
// channels, and pool.Metrics() aggregates latency and machine accounting
// across workers from per-shard lock-free counters. A caller with many
// requests pipelines them through pool.Go and waits each Future in turn.
// cmd/obarchd wraps the
// pool as an HTTP/JSON server (POST /send, POST /batch) and an obwire
// binary listener, and cmd/loadgen replays the workload suite against it
// as concurrent traffic over either wire, on -pipeline N lanes per client
// or batched (-batch K, HTTP only), keyless or with a skewed keyspace
// (-skew).
//
// The experiment harness regenerating every figure and table of the paper
// is exposed through Experiments and RunExperiment; the cmd/ directory
// wraps it all as executables.
package obarch

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fith"
	"repro/internal/gc"
	"repro/internal/image"
	"repro/internal/serve"
	"repro/internal/smalltalk"
	"repro/internal/word"
)

// Options configures a System. The zero value is the paper's machine:
// 512-entry 2-way ITLB, 32×32 context cache, 4096-entry instruction cache.
type Options struct {
	// CtxBlocks overrides the context cache size (default 32).
	CtxBlocks int
	// ITLBEntries and ITLBAssoc override the ITLB geometry.
	ITLBEntries int
	ITLBAssoc   int
	// NoITLB disables instruction translation caching (the ablation of
	// experiment T6).
	NoITLB bool
	// MaxSteps bounds a single Send.
	MaxSteps uint64
}

// Value is a machine value surfaced to the host.
type Value = word.Word

// Convenience constructors for host-side values.
var (
	Nil   = word.Nil
	True  = word.True
	False = word.False
)

// Int returns an integer value.
func Int(v int32) Value { return word.FromInt(v) }

// Float returns a floating point value.
func Float(v float32) Value { return word.FromFloat(v) }

// System is a COM plus its compiler toolchain.
type System struct {
	M *core.Machine
}

// NewSystem builds a machine per the options.
func NewSystem(opt Options) *System {
	cfg := core.Config{
		CtxBlocks: opt.CtxBlocks,
		NoITLB:    opt.NoITLB,
		MaxSteps:  opt.MaxSteps,
	}
	if opt.ITLBEntries != 0 {
		cfg.ITLB.Entries = opt.ITLBEntries
		cfg.ITLB.Assoc = opt.ITLBAssoc
	}
	return &System{M: core.New(cfg)}
}

// Load compiles source text and installs it on the machine.
func (s *System) Load(src string) error {
	c, err := smalltalk.Compile(src)
	if err != nil {
		return err
	}
	return smalltalk.LoadCOM(s.M, c)
}

// Send performs a message send and runs to completion. A send that
// fails is followed by a garbage collection, as a serving pool's failed
// request is: a trap abandons the send's contexts, and a runaway send may
// have spent every context name on them. Values the host holds across a
// failed send must be pinned with AddRoot.
func (s *System) Send(receiver Value, selector string, args ...Value) (Value, error) {
	res, err := s.M.Send(receiver, selector, args...)
	if err != nil {
		gc.Collect(s.M)
	}
	return res, err
}

// SendInt sends to an integer receiver and expects an integer answer.
func (s *System) SendInt(receiver int32, selector string, args ...Value) (int32, error) {
	res, err := s.Send(word.FromInt(receiver), selector, args...)
	if err != nil {
		return 0, err
	}
	v, ok := res.IntOK()
	if !ok {
		return 0, fmt.Errorf("obarch: non-integer answer %v", res)
	}
	return v, nil
}

// NewInstanceOf instantiates a class by name with optional indexed words.
func (s *System) NewInstanceOf(className string, indexed int) (Value, error) {
	cls, ok := s.M.Image.ClassByName(className)
	if !ok {
		return Value{}, fmt.Errorf("obarch: unknown class %q", className)
	}
	sel := "new"
	args := []Value{}
	if indexed > 0 {
		sel = "new:"
		args = append(args, Int(int32(indexed)))
	}
	return s.Send(s.M.ClassPointer(cls), sel, args...)
}

// Collect runs a garbage collection and reports what it did.
func (s *System) Collect() gc.Stats { return gc.Collect(s.M) }

// AddRoot pins a host-held value against collection.
func (s *System) AddRoot(v Value) { s.M.AddRoot(v) }

// ClearRoots releases every host-held pin.
func (s *System) ClearRoots() { s.M.ClearRoots() }

// Stats returns the machine's cycle and reference accounting.
func (s *System) Stats() core.Stats { return s.M.Stats }

// Snapshot is a captured machine state: capture a compiled and loaded
// System once, then stamp out any number of independent machines.
type Snapshot = core.Snapshot

// Request is one message send submitted to a serving pool.
type Request = serve.Request

// Result is the outcome of a pool request.
type Result = serve.Result

// Future is the recycled result cell returned by Pool.Go; Wait collects
// the result exactly once.
type Future = serve.Future

// Pool is a sharded concurrent serving pool; see package repro/internal/serve.
type Pool = serve.Pool

// ServeConfig sizes a serving pool built with ServePoolWith.
type ServeConfig = serve.Config

// Snapshot captures the system's current image. The machine must be idle
// (between sends); the System remains fully usable afterwards.
func (s *System) Snapshot() (*Snapshot, error) { return s.M.Snapshot() }

// ServePool snapshots the system and starts a pool of n worker machines
// stamped from the image, each serving requests on its own goroutine.
func (s *System) ServePool(n int) (*Pool, error) {
	return s.ServePoolWith(ServeConfig{Workers: n})
}

// ServePoolWith is ServePool with full control over queue depth, default
// step budgets, timeouts and the collection cadence.
func (s *System) ServePoolWith(cfg ServeConfig) (*Pool, error) {
	snap, err := s.M.Snapshot()
	if err != nil {
		return nil, err
	}
	return serve.NewPool(snap, cfg), nil
}

// ITLBHitRatio reports the machine's instruction-translation hit ratio.
func (s *System) ITLBHitRatio() float64 { return s.M.ITLB.HitRatio() }

// WriteImage serialises a snapshot to w in the versioned binary image
// format of package repro/internal/image: slabs, segment headers, descriptor
// tables, class/selector tables and warm cache state, each section
// CRC-protected and gated on a format and ISA-encoding version.
func WriteImage(w io.Writer, snap *Snapshot) error { return image.Write(w, snap) }

// ReadImage loads a snapshot previously written with WriteImage. r must
// hold exactly one image: bytes after it are refused. The loaded
// snapshot stamps out machines bit-identical to the originals — same
// statistics, same warm ITLB — so a serving pool warm-starts from disk
// without compile+load.
func ReadImage(r io.Reader) (*Snapshot, error) { return image.Read(r) }

// SaveImage snapshots the system and writes the image to w. The system
// must be idle (between sends) and remains fully usable afterwards.
func (s *System) SaveImage(w io.Writer) error {
	snap, err := s.M.Snapshot()
	if err != nil {
		return err
	}
	return image.Write(w, snap)
}

// LoadImage reads an image, as ReadImage does, and replaces the system's
// machine with one instantiated from it, returning the snapshot so
// callers can also stamp out pools (ServePool would re-snapshot; using
// the returned snapshot directly skips that copy).
func (s *System) LoadImage(r io.Reader) (*Snapshot, error) {
	snap, err := image.Read(r)
	if err != nil {
		return nil, err
	}
	s.M = snap.NewMachine()
	return snap, nil
}

// FithSystem is a Fith stack machine with the same toolchain, used for
// the §5 comparison and trace collection.
type FithSystem struct {
	VM *fith.VM
}

// NewFithSystem builds a Fith machine.
func NewFithSystem() *FithSystem {
	return &FithSystem{VM: fith.NewVM(fith.Config{})}
}

// Load compiles and installs source on the Fith machine.
func (f *FithSystem) Load(src string) error {
	c, err := smalltalk.Compile(src)
	if err != nil {
		return err
	}
	return smalltalk.LoadFith(f.VM, c)
}

// SendInt sends to an integer receiver and expects an integer answer.
func (f *FithSystem) SendInt(receiver int32, selector string) (int32, error) {
	res, err := f.VM.Send(fith.IntVal(receiver), selector)
	if err != nil {
		return 0, err
	}
	v, ok := res.W.IntOK()
	if !ok {
		return 0, fmt.Errorf("obarch: non-integer answer %v", res)
	}
	return v, nil
}

// Experiments lists the ids of every reproducible figure and table.
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one figure/table by id, printing the report.
func RunExperiment(id string, w io.Writer) error {
	f, ok := experiments.ByID(id)
	if !ok {
		return fmt.Errorf("obarch: unknown experiment %q (have %v)", id, experiments.IDs())
	}
	r, err := f()
	if err != nil {
		return err
	}
	r.Print(w)
	return nil
}

// RunAllExperiments regenerates the full report.
func RunAllExperiments(w io.Writer) error { return experiments.RunAll(w) }
