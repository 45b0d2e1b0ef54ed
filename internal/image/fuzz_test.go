package image

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// FuzzReadImage holds the codec's hostile-input line: whatever bytes are
// thrown at Read — random junk, truncations, bit-flipped valid images,
// forged section lengths — it must return an error or a working snapshot,
// never panic, and allocate at most readAllocBound of its input (section
// payloads are read incrementally, every slice length is capped by the
// bytes present, and the config's cache geometry by its ceilings).
func FuzzReadImage(f *testing.F) {
	// Seed with a real image so the mutator starts from structurally
	// valid input, plus targeted corruptions of it: every prefix class,
	// two bytes appended, flipped version fields with repaired CRCs, and
	// a flipped byte in each section region.
	p := workload.Arith()
	m, err := workload.NewCOM(p, core.Config{})
	if err != nil {
		f.Fatal(err)
	}
	if err := workload.WarmCOM(m, p); err != nil {
		f.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		f.Fatal(err)
	}
	img := buf.Bytes()
	f.Add(img)
	f.Add([]byte{})
	f.Add([]byte("OBARIMG\x00"))
	f.Add(img[:24])
	f.Add(img[:len(img)/2])
	f.Add(append(bytes.Clone(img), 0, 0))
	f.Add(fixHeaderCRC(corrupt(img, 8)))
	f.Add(fixHeaderCRC(corrupt(img, 12)))
	for off := 24; off < len(img); off += len(img) / 16 {
		f.Add(corrupt(img, off))
	}
	// A forged section length: claim a huge payload the file doesn't hold.
	forged := bytes.Clone(img)
	forged[28] = 0xff
	forged[29] = 0xff
	forged[30] = 0xff
	f.Add(forged)
	// Icache lines with impossible recency stamps (0 and clock+1), their
	// section CRC recomputed: the cache importer must refuse them.
	for _, bad := range badStampImages(f, img) {
		f.Add(bad)
	}
	// Two live segments on one base: the page table rebuilt on load
	// could index only one of them, so the space importer refuses it.
	f.Add(sharedBaseImage(f, img))
	// A segment moved inside another's extent: the two would share
	// backing words, so the space importer refuses it.
	f.Add(overlapImage(f, img))
	// Context names, code bases, class addresses and slabs from which no
	// running machine could have built its indexes: the loader refuses
	// to rebuild the indexes from them.
	for _, fg := range indexForgeries(f, img) {
		f.Add(fg.img)
	}
	// Configs past a ceiling, the 2^20-entry ITLB among them: each would
	// allocate its cache from a few bytes of config.
	for _, fg := range oversizedConfigs(f, img) {
		f.Add(fg.img)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, n, err := readAlloc(data)
		if bound := readAllocBound(len(data)); n > bound {
			t.Fatalf("Read of %d bytes allocated %d bytes, more than the bound %d (err %v)", len(data), n, bound, err)
		}
		if err != nil {
			return
		}
		// The rare mutation that still parses must yield a machine that
		// can at least be instantiated without panicking.
		if snap.NewMachine() == nil {
			t.Fatal("Read returned a snapshot that stamps nil")
		}
	})
}

// readAllocBound is the most a Read of n input bytes may allocate: a
// fixed multiple of the input, for what the sections decode into, plus
// room for the caches the config ceilings admit (under 10 MiB together).
func readAllocBound(n int) uint64 { return 32*uint64(n) + 16<<20 }

// readAlloc runs Read on data and reports the bytes it allocated.
func readAlloc(data []byte) (*core.Snapshot, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return snap, after.TotalAlloc - before.TotalAlloc, err
}
