package image

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fpa"
	"repro/internal/gc"
	"repro/internal/memory"
	"repro/internal/workload"
)

// The image stores no index the loader can derive: the window index, the
// code index, the class-object index and the context names are rebuilt on
// load from the slabs, the methods, the class addresses and the team's
// bindings. The forgeries below edit those facts so that no running
// machine could have built them; each must fail the load.

// forgeSection returns a copy of img whose section id is re-encoded after
// edit has changed the decoded state of the whole image, with the
// section's CRC recomputed, so the forgery is judged by the importers, not
// by the codec or the checksum.
func forgeSection(tb testing.TB, img []byte, id int, edit func(st *core.MachineState)) []byte {
	tb.Helper()
	const hdr, secHdr = 24, 16
	st := &core.MachineState{}
	off := hdr
	for i := 1; i <= numSections; i++ {
		n := int(binary.LittleEndian.Uint64(img[off+4:]))
		if err := decodeSection(&dec{b: img[off+secHdr : off+secHdr+n]}, i, st); err != nil {
			tb.Fatalf("%s section: %v", sectionNames[i], err)
		}
		off += secHdr + n
	}
	edit(st)
	return editSection(img, id, func(_ *dec, e *enc) { encodeSection(e, id, st) })
}

// forgery is one forged image and the refusal its load must return.
type forgery struct {
	name, want string
	img        []byte
}

// ctxBindings returns the indexes of the team bindings that name context
// segments, and the context exponent and name limit of the image's config.
func ctxBindings(tb testing.TB, st *core.MachineState) (idx []int, exp uint8, limit uint64) {
	tb.Helper()
	for i, b := range st.Team.Bindings {
		if seg := st.Team.Descriptors[b.Desc].Seg; seg >= 0 && st.Space.Segments[seg].Kind == memory.KindContext {
			idx = append(idx, i)
		}
	}
	if len(idx) < 2 {
		tb.Fatalf("image names %d context segments, want at least 2", len(idx))
	}
	exp = uint8(fpa.MinExpFor(uint64(st.Cfg.CtxWords)))
	return idx, exp, st.Cfg.Format.SegmentsAt(uint(exp))
}

// contextForgeries: a context segment with no name or with two, and a
// context name outside the run nextCtxName hands out.
func contextForgeries(tb testing.TB, img []byte) []forgery {
	return []forgery{
		{"unnamed", "has 0 names, want 1", forgeSection(tb, img, secTeam, func(st *core.MachineState) {
			idx, _, _ := ctxBindings(tb, st)
			st.Team.Bindings = slices.Delete(st.Team.Bindings, idx[0], idx[0]+1)
		})},
		{"aliased", "has 2 names, want 1", forgeSection(tb, img, secTeam, func(st *core.MachineState) {
			idx, exp, limit := ctxBindings(tb, st)
			alias := st.Team.Bindings[idx[0]]
			alias.Key = fpa.SegKey{Exp: exp, Num: limit - uint64(len(idx)) - 1}
			st.Team.Bindings = append(st.Team.Bindings, alias)
		})},
		{"outside the run", "is not among the", forgeSection(tb, img, secTeam, func(st *core.MachineState) {
			idx, exp, limit := ctxBindings(tb, st)
			st.Team.Bindings[idx[0]].Key = fpa.SegKey{Exp: exp, Num: limit - uint64(len(idx)) - 1}
		})},
	}
}

// installedMethod returns the index of the first method with a code base.
func installedMethod(tb testing.TB, st *core.MachineState) int {
	tb.Helper()
	for i, ms := range st.Image.Methods {
		if ms.CodeBase != 0 {
			return i
		}
	}
	tb.Fatal("image installs no method in memory")
	return -1
}

// methodForgeries: a code base off its method's literal offset, one in a
// class object instead of a method segment, and two methods claiming one
// method segment.
func methodForgeries(tb testing.TB, img []byte) []forgery {
	return []forgery{
		{"off the literal offset", "is not at its literal offset", forgeSection(tb, img, secObjects, func(st *core.MachineState) {
			st.Image.Methods[installedMethod(tb, st)].CodeBase++
		})},
		{"in a class object", "is not at its literal offset", forgeSection(tb, img, secObjects, func(st *core.MachineState) {
			// Class 0's object is the first name at exponent 0, which
			// encodes as 0, the code base of a method never installed.
			ms := &st.Image.Methods[installedMethod(tb, st)]
			enc, err := st.Cfg.Format.Encode32(st.ClassAddrs[1].Addr)
			if err != nil {
				tb.Fatal(err)
			}
			ms.CodeBase, ms.Literals = enc, nil
		})},
		{"shared segment", "two methods on the method segment", forgeSection(tb, img, secObjects, func(st *core.MachineState) {
			i := installedMethod(tb, st)
			j := (i + 1) % len(st.Image.Methods)
			st.Image.Methods[j].CodeBase = st.Image.Methods[i].CodeBase
			st.Image.Methods[j].Literals = slices.Clone(st.Image.Methods[i].Literals)
		})},
	}
}

// classForgeries: a class address that names no segment, and two classes
// on one class object.
func classForgeries(tb testing.TB, img []byte) []forgery {
	return []forgery{
		{"unbound", "is not a live segment", forgeSection(tb, img, secMachine, func(st *core.MachineState) {
			st.ClassAddrs[0].Addr = fpa.Addr{Exp: 0, Mantissa: 1<<st.Cfg.Format.ManBits - 1}
		})},
		{"shared object", "share the object", forgeSection(tb, img, secMachine, func(st *core.MachineState) {
			st.ClassAddrs[1].Addr = st.ClassAddrs[0].Addr
		})},
	}
}

// slabForgeries: a slab off its window boundary, and a second slab over
// the first one's window.
func slabForgeries(tb testing.TB, img []byte) []forgery {
	return []forgery{
		{"unaligned", "not window-aligned", forgeSection(tb, img, secSpace, func(st *core.MachineState) {
			st.Space.Slabs[0].Base += 16
		})},
		{"overlapping", "overlaps slab 0", forgeSection(tb, img, secSpace, func(st *core.MachineState) {
			sl := st.Space.Slabs[0]
			st.Space.Slabs = append(st.Space.Slabs, memory.SlabState{Base: sl.Base, Data: slices.Clone(sl.Data)})
		})},
	}
}

// indexForgeries lists every forgery of the rebuilt indexes, for the fuzz
// corpus.
func indexForgeries(tb testing.TB, img []byte) []forgery {
	var out []forgery
	for _, f := range []func(testing.TB, []byte) []forgery{contextForgeries, methodForgeries, classForgeries, slabForgeries} {
		out = append(out, f(tb, img)...)
	}
	return out
}

func testRefusals(t *testing.T, forge func(testing.TB, []byte) []forgery) {
	_, img := roundTrip(t, snapshotOf(t, workload.Arith(), core.Config{}))
	for _, f := range forge(t, img) {
		if _, err := Read(bytes.NewReader(f.img)); err == nil || !contains(err, f.want) {
			t.Errorf("%s: %v, want a refusal containing %q", f.name, err, f.want)
		}
	}
}

// TestImageRefusesContextNames: every live context segment carries exactly
// one name, and the names are the contiguous run nextCtxName hands out,
// or the load fails; the loader rebuilds the context addresses and the
// name counter from them.
func TestImageRefusesContextNames(t *testing.T) { testRefusals(t, contextForgeries) }

// TestImageRefusesMisplacedCode: each installed method's code base points
// one literal pool into a method segment of its own, or the load fails;
// the loader rebuilds the code index from them.
func TestImageRefusesMisplacedCode(t *testing.T) { testRefusals(t, methodForgeries) }

// TestImageRefusesClassObjects: each class address names a live segment
// of its own, or the load fails; the loader rebuilds the class-object
// index from them.
func TestImageRefusesClassObjects(t *testing.T) { testRefusals(t, classForgeries) }

// TestImageRefusesBadSlabs: each slab covers whole windows no other slab
// covers, or the load fails; the loader rebuilds the window index from
// them.
func TestImageRefusesBadSlabs(t *testing.T) { testRefusals(t, slabForgeries) }

// TestImageRoundTripServedSuite round-trips a multi-tenant machine served
// the way a node serves one: all six suite programs on one machine, run
// round after round with periodic collections, so 304 context names, 34
// installed methods, 19 class objects, freed segments and a compacted
// scan list are on the wire. The next run of each program on a
// machine stamped from the loaded image must account exactly as on a
// stamp of the in-memory snapshot, and leave the same live bases in scan
// order.
func TestImageRoundTripServedSuite(t *testing.T) {
	m := core.New(core.Config{})
	progs, err := workload.LoadSuite(m)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		for _, p := range progs {
			if sum, err := workload.RunCOM(m, p); err != nil || sum != p.Check {
				t.Fatalf("round %d: %s: checksum %d, %v; want %d", round, p.Name, sum, err, p.Check)
			}
		}
		if round%3 == 2 {
			gc.Collect(m)
		}
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	loaded, _ := roundTrip(t, snap)
	mem, disk := snap.NewMachine(), loaded.NewMachine()
	for _, p := range progs {
		sums := [2]int32{}
		for i, m := range []*core.Machine{mem, disk} {
			if sums[i], err = workload.RunCOM(m, p); err != nil {
				t.Fatal(err)
			}
		}
		if a, b := liveBases(mem), liveBases(disk); !slices.Equal(a, b) {
			t.Errorf("%s: live heaps diverge in base or scan order (mem %d segments, disk %d)", p.Name, len(a), len(b))
		}
		a, b := accountedAfter(mem, sums[0]), accountedAfter(disk, sums[1])
		diffAccounted(t, p.Check, a, b, "mem", "disk")
	}
}

// liveBases lists the base of every live segment in scan order.
func liveBases(m *core.Machine) []memory.AbsAddr {
	var out []memory.AbsAddr
	m.Space.Live(func(seg *memory.Segment) { out = append(out, seg.Base) })
	return out
}
