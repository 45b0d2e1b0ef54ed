package image

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// FuzzReadImage holds the codec's hostile-input line: whatever bytes are
// thrown at Read — random junk, truncations, bit-flipped valid images,
// forged section lengths — it must return an error or a working snapshot,
// and never panic or balloon allocations (section payloads are read
// incrementally and every slice length is capped by the bytes present).
func FuzzReadImage(f *testing.F) {
	// Seed with a real image so the mutator starts from structurally
	// valid input, plus targeted corruptions of it: every prefix class,
	// flipped version fields with repaired CRCs, and a flipped byte in
	// each section region.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// The rare mutation that still parses must yield a machine that
		// can at least be instantiated without panicking.
		if snap.NewMachine() == nil {
			t.Fatal("Read returned a snapshot that clones to nil")
		}
	})
}
