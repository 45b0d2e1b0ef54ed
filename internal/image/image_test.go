package image

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/itlb"
	"repro/internal/memory"
	"repro/internal/word"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "regenerate testdata/golden.img")

// snapshotOf compiles, loads and warms one workload program and captures
// the snapshot — exactly the image obarchd would persist.
func snapshotOf(t testing.TB, p workload.Program, cfg core.Config) *core.Snapshot {
	t.Helper()
	m, err := workload.NewCOM(p, cfg)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	if err := workload.WarmCOM(m, p); err != nil {
		t.Fatalf("%s warmup: %v", p.Name, err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("%s snapshot: %v", p.Name, err)
	}
	return snap
}

// roundTrip pushes a snapshot through the codec.
func roundTrip(t testing.TB, snap *core.Snapshot) (*core.Snapshot, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatalf("write: %v", err)
	}
	loaded, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return loaded, buf.Bytes()
}

// accounted is every accounting surface a loaded machine could diverge on
// — the same set the PR 2/3 stats-parity harness checks.
type accounted struct {
	sum    int32
	stats  core.Stats
	icache cache.Stats
	itlbC  cache.Stats
	itlb   itlb.Stats
	atlb   cache.Stats
	team   memory.TeamStats
	alloc  memory.AllocStats
	gc     gc.Stats
	live   int
}

// runAccounted drives one machine through the program's measured entry
// plus a full collection and captures the accounting.
func runAccounted(t *testing.T, m *core.Machine, p workload.Program) accounted {
	t.Helper()
	sum, err := workload.RunCOM(m, p)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return accountedAfter(m, sum)
}

// accountedAfter collects the machine and captures its accounting after a
// run that returned sum.
func accountedAfter(m *core.Machine, sum int32) accounted {
	gcStats := gc.Collect(m)
	return accounted{
		sum:    sum,
		stats:  m.Stats,
		icache: m.IC.Stats,
		itlbC:  m.ITLB.CacheStats(),
		itlb:   m.ITLB.Stats,
		atlb:   m.Team.ATLBStats(),
		team:   m.Team.Stats,
		alloc:  m.Space.Stats,
		gc:     gcStats,
		live:   m.Space.LiveCount(),
	}
}

func diffAccounted(t *testing.T, want int32, a, b accounted, aName, bName string) {
	t.Helper()
	if a.sum != want || b.sum != want {
		t.Fatalf("checksums: %s %d, %s %d, want %d", aName, a.sum, bName, b.sum, want)
	}
	if a.stats != b.stats {
		t.Errorf("core.Stats diverge:\n %s %+v\n %s %+v", aName, a.stats, bName, b.stats)
	}
	if a.icache != b.icache {
		t.Errorf("icache stats diverge:\n %s %+v\n %s %+v", aName, a.icache, bName, b.icache)
	}
	if a.itlbC != b.itlbC {
		t.Errorf("ITLB cache stats diverge:\n %s %+v\n %s %+v", aName, a.itlbC, bName, b.itlbC)
	}
	if a.itlb != b.itlb {
		t.Errorf("ITLB lookup stats diverge:\n %s %+v\n %s %+v", aName, a.itlb, bName, b.itlb)
	}
	if a.atlb != b.atlb {
		t.Errorf("ATLB stats diverge:\n %s %+v\n %s %+v", aName, a.atlb, bName, b.atlb)
	}
	if a.team != b.team {
		t.Errorf("translation stats diverge:\n %s %+v\n %s %+v", aName, a.team, bName, b.team)
	}
	if a.alloc != b.alloc {
		t.Errorf("AllocStats diverge:\n %s %+v\n %s %+v", aName, a.alloc, bName, b.alloc)
	}
	if a.gc != b.gc {
		t.Errorf("gc stats diverge:\n %s %+v\n %s %+v", aName, a.gc, bName, b.gc)
	}
	if a.live != b.live {
		t.Errorf("live counts diverge: %s %d, %s %d", aName, a.live, bName, b.live)
	}
}

// TestImageRoundTripParity is the codec's correctness oracle: for every
// workload, a machine cloned from the written-and-reloaded snapshot must
// model the exact machine a clone of the in-memory snapshot models —
// identical checksums and identical statistics on every accounting
// surface, through a full collection.
func TestImageRoundTripParity(t *testing.T) {
	for _, p := range workload.Suite() {
		t.Run(p.Name, func(t *testing.T) {
			snap := snapshotOf(t, p, core.Config{})
			loaded, _ := roundTrip(t, snap)

			mem := snap.NewMachine()
			disk := loaded.NewMachine()
			if mem.Stats != disk.Stats {
				t.Errorf("frozen core.Stats diverge before any send:\n mem  %+v\n disk %+v", mem.Stats, disk.Stats)
			}
			if a, b := mem.ITLB.CacheStats(), disk.ITLB.CacheStats(); a != b {
				t.Errorf("frozen ITLB stats diverge: mem %+v, disk %+v", a, b)
			}
			diffAccounted(t, p.Check, runAccounted(t, mem, p), runAccounted(t, disk, p), "mem", "disk")
		})
	}
}

// TestImageRoundTripAfterCollection snapshots a machine whose heap has
// been through real churn — run, collect, run — so freed segments, free
// lists and a compacted scan list are all on the wire.
func TestImageRoundTripAfterCollection(t *testing.T) {
	p := workload.Suite()[0]
	m, err := workload.NewCOM(p, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := workload.WarmCOM(m, p); err != nil {
			t.Fatal(err)
		}
		gc.Collect(m)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	loaded, _ := roundTrip(t, snap)
	diffAccounted(t, p.Check,
		runAccounted(t, snap.NewMachine(), p),
		runAccounted(t, loaded.NewMachine(), p), "mem", "disk")
}

// TestImageWarmITLBAfterLoad pins the acceptance claim: a machine booted
// from disk serves its first request with a warm ITLB — zero misses, like
// a machine cloned in-process.
func TestImageWarmITLBAfterLoad(t *testing.T) {
	p := workload.Arith()
	snap := snapshotOf(t, p, core.Config{})
	loaded, _ := roundTrip(t, snap)
	m := loaded.NewMachine()
	missesBefore := m.ITLB.CacheStats().Misses
	if err := workload.WarmCOM(m, p); err != nil {
		t.Fatal(err)
	}
	if misses := m.ITLB.CacheStats().Misses - missesBefore; misses != 0 {
		t.Fatalf("disk-booted machine took %d ITLB misses on its first request", misses)
	}
}

// TestImageDeterministic: identical snapshots produce identical bytes, and
// a write of a loaded image reproduces the original file — the property
// the golden test (and any content-addressed image store) relies on.
func TestImageDeterministic(t *testing.T) {
	p := workload.Arith()
	snap := snapshotOf(t, p, core.Config{})
	var a, b bytes.Buffer
	if err := Write(&a, snap); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two writes of one snapshot differ (%d vs %d bytes)", a.Len(), b.Len())
	}
	loaded, err := Read(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := Write(&c, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatalf("write(read(img)) differs from img (%d vs %d bytes)", a.Len(), c.Len())
	}
}

// fixSectionCRC recomputes the CRC of the section whose header starts at
// sec, so a deliberate payload edit is judged by the decoder, not the CRC.
func fixSectionCRC(img []byte, sec int) []byte {
	n := int(binary.LittleEndian.Uint64(img[sec+4:]))
	binary.LittleEndian.PutUint32(img[sec+12:], crc32.ChecksumIEEE(img[sec+16:sec+16+n]))
	return img
}

// badStampImages returns two copies of img whose first icache line carries
// an impossible recency stamp: 0, which would load as an empty line, and
// the icache clock + 1, which would outrank the next access. The icache
// section is re-encoded with the package's own encoder and its CRC
// recomputed, so the refusal comes from the cache importer.
func badStampImages(tb testing.TB, img []byte) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, pastClock := range []bool{false, true} {
		out = append(out, editSection(img, secICache, func(d *dec, e *enc) {
			clock, stats, lines := decStructLines(d)
			if d.err != nil || len(lines) == 0 {
				tb.Fatalf("icache section: %d lines, err %v", len(lines), d.err)
			}
			bad := slices.Clone(lines)
			bad[0].Stamp = 0
			if pastClock {
				bad[0].Stamp = clock + 1
			}
			encStructLines(e, clock, stats, bad)
		}))
	}
	return out
}

// sharedBaseImage returns img with a second live segment moved onto the
// base of another live one of its slab and size, its section CRC
// recomputed: the space importer must refuse it rather than let the page
// table hide one of the two from the collector's marking.
func sharedBaseImage(tb testing.TB, img []byte) []byte {
	tb.Helper()
	return editSection(img, secSpace, func(d *dec, e *enc) {
		st := decSpace(d)
		if d.err != nil {
			tb.Fatalf("space section: %v", d.err)
		}
		first := map[[2]uint64]int{} // slab, capacity → first live segment
		for i, sg := range st.Segments {
			if sg.Freed {
				continue
			}
			k := [2]uint64{uint64(sg.Slab), sg.Cap}
			if j, ok := first[k]; ok {
				st.Segments[i].Base = st.Segments[j].Base
				encSpace(e, st)
				return
			}
			first[k] = i
		}
		tb.Fatal("no two live segments share a slab and a size")
	})
}

// overlapImage returns img with a live segment moved onto another live
// one's base + 16, inside that one's extent, its section CRC
// recomputed: the space importer must refuse the overlap rather than let
// two objects share backing words.
func overlapImage(tb testing.TB, img []byte) []byte {
	tb.Helper()
	return editSection(img, secSpace, func(d *dec, e *enc) {
		st := decSpace(d)
		if d.err != nil {
			tb.Fatalf("space section: %v", d.err)
		}
		first := map[[2]uint64]int{} // slab, capacity → lowest live segment seen
		for i, sg := range st.Segments {
			if sg.Freed || sg.Cap < 32 {
				continue
			}
			k := [2]uint64{uint64(sg.Slab), sg.Cap}
			j, ok := first[k]
			if !ok {
				first[k] = i
				continue
			}
			lo, hi := j, i
			if st.Segments[hi].Base < st.Segments[lo].Base {
				lo, hi = hi, lo
			}
			// hi sat past lo's whole extent, so lo's base + 16 still
			// keeps hi inside the slab.
			st.Segments[hi].Base = st.Segments[lo].Base + 16
			encSpace(e, st)
			return
		}
		tb.Fatal("no two live segments of 32 words or more share a slab and a size")
	})
}

// editSection returns a copy of img whose section id is re-encoded by
// edit, with the section's CRC recomputed, so the edit is judged by the
// decoder and the importers, not by the checksum.
func editSection(img []byte, id int, edit func(d *dec, e *enc)) []byte {
	const hdr, secHdr = 24, 16
	sec := hdr
	for i := 1; i < id; i++ {
		sec += secHdr + int(binary.LittleEndian.Uint64(img[sec+4:]))
	}
	n := int(binary.LittleEndian.Uint64(img[sec+4:]))
	var e enc
	edit(&dec{b: img[sec+secHdr : sec+secHdr+n]}, &e)
	edited := append(bytes.Clone(img[:sec+secHdr]), e.b...)
	binary.LittleEndian.PutUint64(edited[sec+4:], uint64(len(e.b)))
	edited = append(edited, img[sec+secHdr+n:]...)
	return fixSectionCRC(edited, sec)
}

// TestImageRefusesSharedBase: two live segments on one base fail the load
// with the space importer's refusal.
func TestImageRefusesSharedBase(t *testing.T) {
	_, img := roundTrip(t, snapshotOf(t, workload.Arith(), core.Config{}))
	_, err := Read(bytes.NewReader(sharedBaseImage(t, img)))
	if err == nil || !contains(err, "both live at base") {
		t.Fatalf("image with two live segments on one base: %v, want the shared-base refusal", err)
	}
}

// TestImageRefusesOverlap: two segments whose extents overlap fail the
// load with the space importer's refusal.
func TestImageRefusesOverlap(t *testing.T) {
	_, img := roundTrip(t, snapshotOf(t, workload.Arith(), core.Config{}))
	_, err := Read(bytes.NewReader(overlapImage(t, img)))
	if err == nil || !contains(err, "overlaps segment") {
		t.Fatalf("image with overlapping segments: %v, want the overlap refusal", err)
	}
}

// TestImageRefusesImpossibleICacheStamps: an icache line stamped 0 or
// past the icache clock is refused, naming the line, instead of loading
// as an empty line or as one the loaded machine would evict out of order.
func TestImageRefusesImpossibleICacheStamps(t *testing.T) {
	p := workload.Arith()
	_, img := roundTrip(t, snapshotOf(t, p, core.Config{}))
	for i, bad := range badStampImages(t, img) {
		_, err := Read(bytes.NewReader(bad))
		if err == nil || !contains(err, "icache: cache: line ") || !contains(err, "has stamp") {
			t.Errorf("image %d with an impossible icache stamp: %v, want the stamp refusal", i, err)
		}
	}
}

// oversizedConfigs: a config asking for each cache past its ceiling,
// for too many hierarchy levels, and for oversized contexts. Loaded as
// asked, the 2^20-entry ITLB alone allocates about 33 MB from an image of
// under 27 KB.
func oversizedConfigs(tb testing.TB, img []byte) []forgery {
	const huge = 1 << 20
	level := memory.Level{Name: "l", Entries: 16, Assoc: 2, BlockWords: 4, Penalty: 1}
	forge := func(edit func(cfg *core.Config)) []byte {
		return forgeSection(tb, img, secConfig, func(st *core.MachineState) { edit(&st.Cfg) })
	}
	return []forgery{
		{"ITLB", "ITLB of 1048576 entries exceeds the ceiling", forge(func(cfg *core.Config) { cfg.ITLB.Entries = huge })},
		{"icache", "icache of 1048576 entries exceeds the ceiling", forge(func(cfg *core.Config) { cfg.ICache.Entries = huge })},
		{"ATLB", "ATLB of 1048576 entries exceeds the ceiling", forge(func(cfg *core.Config) { cfg.ATLB.Entries = huge })},
		{"hierarchy level", "hierarchy level 0 of 1048576 entries exceeds the ceiling", forge(func(cfg *core.Config) {
			lv := level
			lv.Entries = huge
			cfg.Hierarchy = []memory.Level{lv}
		})},
		{"hierarchy levels", "5 hierarchy levels exceed the ceiling", forge(func(cfg *core.Config) {
			cfg.Hierarchy = []memory.Level{level, level, level, level, level}
		})},
		{"context words", "65536-word contexts outside", forge(func(cfg *core.Config) { cfg.CtxWords = 1 << 16 })},
	}
}

// TestImageRefusesOversizedConfig: each config past a ceiling is refused
// before any cache is built, so the refused load allocates far less than
// the smallest cache it asked for (16 MiB).
func TestImageRefusesOversizedConfig(t *testing.T) {
	_, img := roundTrip(t, snapshotOf(t, workload.Arith(), core.Config{}))
	for _, f := range oversizedConfigs(t, img) {
		t.Run(f.name, func(t *testing.T) {
			_, n, err := readAlloc(f.img)
			if err == nil || !contains(err, f.want) {
				t.Fatalf("%v, want a refusal containing %q", err, f.want)
			}
			if n >= 1<<20 {
				t.Errorf("the refused load allocated %d bytes, want under 1 MiB", n)
			}
		})
	}
}

// corrupt returns a copy of img with the byte at off flipped.
func corrupt(img []byte, off int) []byte {
	out := bytes.Clone(img)
	out[off] ^= 0x40
	return out
}

// fixHeaderCRC recomputes the header CRC after a deliberate version edit,
// so the version check itself — not the CRC — is what rejects the image.
func fixHeaderCRC(img []byte) []byte {
	var e enc
	e.b = img[:20:20]
	e.u32(crc32.ChecksumIEEE(img[:20]))
	return append(e.b, img[24:]...)
}

// TestImageVersionSkew: a bumped format or ISA version is rejected with a
// descriptive error, and flipped payload bits die on the section CRC.
func TestImageVersionSkew(t *testing.T) {
	p := workload.Arith()
	snap := snapshotOf(t, p, core.Config{})
	_, img := roundTrip(t, snap)

	read := func(b []byte) error {
		_, err := Read(bytes.NewReader(b))
		return err
	}

	if err := read(fixHeaderCRC(corrupt(img, 8))); err == nil || !contains(err, "format version") {
		t.Errorf("bumped format version: %v", err)
	}
	// Older images are refused with both versions named: version 1
	// stored the page table, version 2 the geometry copies and the
	// indexes this build rebuilds.
	for _, v := range []uint32{1, 2} {
		old := bytes.Clone(img)
		binary.LittleEndian.PutUint32(old[8:], v)
		if err := read(fixHeaderCRC(old)); err == nil || !contains(err, fmt.Sprintf("format version %d not supported", v)) || !contains(err, fmt.Sprintf("reads version %d", FormatVersion)) {
			t.Errorf("version-%d image: %v", v, err)
		}
	}
	if err := read(fixHeaderCRC(corrupt(img, 12))); err == nil || !contains(err, "ISA encoding version") {
		t.Errorf("bumped ISA version: %v", err)
	}
	if err := read(corrupt(img, 8)); err == nil || !contains(err, "header CRC") {
		t.Errorf("header corruption: %v", err)
	}
	if err := read(corrupt(img, 0)); err == nil || !contains(err, "magic") {
		t.Errorf("bad magic: %v", err)
	}
	// A flipped byte deep inside a section payload fails its CRC.
	if err := read(corrupt(img, len(img)/2)); err == nil || !contains(err, "CRC") {
		t.Errorf("payload corruption: %v", err)
	}
	// Truncations at every boundary class fail cleanly, and so do bytes
	// appended after the last section.
	for _, b := range [][]byte{img[:0], img[:7], img[:23], img[:30], img[:len(img)/3], img[:len(img)-1], append(bytes.Clone(img), 0, 0)} {
		if err := read(b); err == nil {
			t.Errorf("%d of the image's %d bytes loaded successfully", len(b), len(img))
		}
	}
}

func contains(err error, sub string) bool {
	return err != nil && bytes.Contains([]byte(err.Error()), []byte(sub))
}

// goldenPath is the checked-in image: a warmed arith machine. It pins
// the on-disk layout — if an innocent-looking change to the codec or the
// machine makes this unreadable or byte-different, the format version
// needs a bump (or the golden a deliberate regeneration with -update).
const goldenPath = "testdata/golden.img"

func TestGoldenImage(t *testing.T) {
	p := workload.Arith()
	snap := snapshotOf(t, p, core.Config{})
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", buf.Len(), goldenPath)
		return
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/image -run TestGolden -update` to create it)", err)
	}
	loaded, err := Read(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("golden image unreadable: %v", err)
	}
	m := loaded.NewMachine()
	res, err := m.Send(word.FromInt(p.Size), p.Entry)
	if err != nil {
		t.Fatalf("golden machine: %v", err)
	}
	if v, ok := res.IntOK(); !ok || v != p.Check {
		t.Fatalf("golden machine checksum %v, want %d", res, p.Check)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("freshly written image (%d bytes) differs from golden (%d bytes): the on-disk format drifted — bump FormatVersion or regenerate with -update", buf.Len(), len(golden))
	}
}
