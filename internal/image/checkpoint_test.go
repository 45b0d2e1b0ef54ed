package image

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// ckptSnapshot builds a small warmed snapshot for checkpoint tests.
func ckptSnapshot(t *testing.T) *core.Snapshot {
	return snapshotOf(t, workload.Arith(), core.Config{})
}

func TestWriteLoadCheckpoint(t *testing.T) {
	dir := t.TempDir()
	snap := ckptSnapshot(t)
	m, err := WriteCheckpoint(dir, 3, snap)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if m.Generation != 3 || m.ImageBytes == 0 || m.CreatedUnixNS == 0 {
		t.Fatalf("manifest under-filled: %+v", m)
	}
	got, gm, err := LoadCheckpoint(dir, 3)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if gm != m {
		t.Errorf("loaded manifest %+v differs from written %+v", gm, m)
	}
	if got.Stats().Instructions != snap.Stats().Instructions {
		t.Errorf("recovered snapshot lost accounting")
	}
	if got.NewMachine() == nil {
		t.Fatal("recovered snapshot stamps nil")
	}
	// One file, its length the manifest's, and no temp file left behind.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 || ents[0].Name() != "gen-000000000003.img" {
		t.Fatalf("checkpoint dir holds %v, want only gen-000000000003.img", ents)
	}
	if fi, err := os.Stat(filepath.Join(dir, ents[0].Name())); err != nil || uint64(fi.Size()) != m.ImageBytes {
		t.Fatalf("generation file: %v, %v; manifest says %d bytes", fi, err, m.ImageBytes)
	}
}

// oldLayoutDebris writes a valid image the way checkpoints used to be laid
// out, a directory gen-N/ holding image.img, plus a leftover WriteFile
// temp file holding a valid image too. Neither is a generation.
func oldLayoutDebris(t *testing.T, dir string, snap *core.Snapshot) (oldDir, tmp string) {
	t.Helper()
	oldDir = filepath.Join(dir, "gen-000000000099")
	if err := os.Mkdir(oldDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFile(filepath.Join(oldDir, "image.img"), snap); err != nil {
		t.Fatal(err)
	}
	tmp = filepath.Join(dir, ".obarch-image-123456")
	if _, err := WriteFile(tmp, snap); err != nil {
		t.Fatal(err)
	}
	return oldDir, tmp
}

func TestListGenerationsAndPrune(t *testing.T) {
	dir := t.TempDir()
	snap := ckptSnapshot(t)
	for _, gen := range []uint64{5, 1, 3, 2, 4} {
		if _, err := WriteCheckpoint(dir, gen, snap); err != nil {
			t.Fatalf("write gen %d: %v", gen, err)
		}
	}
	// Foreign entries are ignored.
	os.Mkdir(filepath.Join(dir, "not-a-gen"), 0o755)
	os.WriteFile(filepath.Join(dir, "gen-9"), []byte("no .img suffix"), 0o644)
	os.WriteFile(filepath.Join(dir, "gen-.img"), []byte("no digits"), 0o644)
	oldDir, tmp := oldLayoutDebris(t, dir, snap)

	gens, err := ListGenerations(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{1, 2, 3, 4, 5}; len(gens) != 5 || gens[0] != 1 || gens[4] != 5 {
		t.Fatalf("generations = %v, want %v", gens, want)
	}

	removed, err := Prune(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 3 || removed[0] != 1 || removed[2] != 3 {
		t.Fatalf("pruned %v, want [1 2 3]", removed)
	}
	gens, _ = ListGenerations(dir)
	if len(gens) != 2 || gens[0] != 4 || gens[1] != 5 {
		t.Fatalf("survivors = %v, want [4 5]", gens)
	}
	// Pruning below the floor keeps one; pruning an empty dir is a no-op.
	if removed, err := Prune(dir, 0); err != nil || len(removed) != 1 {
		t.Fatalf("prune keep=0 removed %v (%v), want exactly one", removed, err)
	}
	if removed, err := Prune(t.TempDir(), 3); err != nil || removed != nil {
		t.Fatalf("prune of empty dir: %v, %v", removed, err)
	}
	for _, p := range []string{oldDir, tmp, filepath.Join(dir, "gen-9")} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("prune removed foreign entry %s: %v", p, err)
		}
	}
}

// TestRecoverLatestSkipsCorrupt is the recovery ladder's core property:
// a bit-flipped newest generation and a torn (truncated) one are
// rejected and reported, one rung each, and recovery lands on the newest
// generation that verifies. An old-layout gen-N/ directory and a
// leftover temp file are neither loaded nor pruned, though both hold
// valid images.
func TestRecoverLatestSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	snap := ckptSnapshot(t)
	for gen := uint64(1); gen <= 3; gen++ {
		if _, err := WriteCheckpoint(dir, gen, snap); err != nil {
			t.Fatal(err)
		}
	}
	oldDir, tmp := oldLayoutDebris(t, dir, snap)
	// Bit-flip generation 3 mid-file.
	path3 := filepath.Join(dir, genFileName(3))
	img, err := os.ReadFile(path3)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0x01
	if err := os.WriteFile(path3, img, 0o644); err != nil {
		t.Fatal(err)
	}
	// Tear generation 2: only its first half reached the disk.
	if err := os.Truncate(filepath.Join(dir, genFileName(2)), int64(len(img)/2)); err != nil {
		t.Fatal(err)
	}

	got, m, rejected, err := RecoverLatest(dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if m.Generation != 1 {
		t.Fatalf("recovered generation %d, want 1", m.Generation)
	}
	if len(rejected) != 2 || rejected[0] != 3 || rejected[1] != 2 {
		t.Fatalf("rejected = %v, want [3 2] (newest-first)", rejected)
	}
	if got.NewMachine() == nil {
		t.Fatal("recovered snapshot stamps nil")
	}

	// All generations bad: ErrNoCheckpoint, with every reject reported.
	if err := os.Truncate(filepath.Join(dir, genFileName(1)), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, rejected, err := RecoverLatest(dir); err != ErrNoCheckpoint || len(rejected) != 3 {
		t.Fatalf("all-bad recovery: err=%v rejected=%v, want ErrNoCheckpoint and 3 rejects", err, rejected)
	}
	if _, err := Prune(dir, 1); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{oldDir, tmp} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("prune removed %s: %v", p, err)
		}
	}
	// Empty directory: same sentinel, nothing rejected.
	if _, _, rejected, err := RecoverLatest(t.TempDir()); err != ErrNoCheckpoint || rejected != nil {
		t.Fatalf("empty-dir recovery: err=%v rejected=%v", err, rejected)
	}
}

// writeOneGeneration writes generation 1 under a fresh directory and
// returns the directory, the file's path and its valid bytes, with a
// refused helper that installs a corrupted copy and requires
// LoadCheckpoint to reject it.
func writeOneGeneration(t *testing.T) (dir, path string, valid []byte, refused func(what string, b []byte)) {
	t.Helper()
	dir = t.TempDir()
	if _, err := WriteCheckpoint(dir, 1, ckptSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(dir, genFileName(1))
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	refused = func(what string, b []byte) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadCheckpoint(dir, 1); err == nil {
			t.Errorf("%s went undetected", what)
		}
	}
	return dir, path, valid, refused
}

// restoreLoads puts the valid bytes back and requires the generation to
// load again, so a refusal above was the corruption's doing.
func restoreLoads(t *testing.T, dir, path string, valid []byte) {
	t.Helper()
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(dir, 1); err != nil {
		t.Fatalf("restored generation does not load: %v", err)
	}
}

// TestManifestRejectsCorruption: a generation file describes itself in
// its image header and section headers, so those bytes are its
// manifest. A flip of each of them, a truncation at every section
// boundary and trailing junk must each be refused.
func TestManifestRejectsCorruption(t *testing.T) {
	dir, path, valid, refused := writeOneGeneration(t)
	for off := 0; off < 24; off++ {
		refused("header flip at "+strconv.Itoa(off), corrupt(valid, off))
	}
	refused("truncation to 0 bytes", valid[:0])
	refused("truncation after the header", valid[:24])
	sections := 0
	for off := 24; off < len(valid); sections++ {
		for i := off; i < off+16; i++ {
			refused("section header flip at "+strconv.Itoa(i), corrupt(valid, i))
		}
		payLen := int(binary.LittleEndian.Uint64(valid[off+4:]))
		if payLen == 0 {
			t.Fatalf("section at %d has an empty payload", off)
		}
		refused("truncation after the section header at "+strconv.Itoa(off), valid[:off+16])
		off += 16 + payLen
		if off < len(valid) {
			refused("truncation at section boundary "+strconv.Itoa(off), valid[:off])
		}
	}
	if sections != numSections {
		t.Fatalf("walked %d sections, want %d", sections, numSections)
	}
	refused("trailing junk", append(bytes.Clone(valid), 0))
	restoreLoads(t, dir, path, valid)
}

// TestLoadCheckpointCrossChecks: the checks that tie a generation's
// parts together. A flip inside every section payload dies on that
// section's CRC, an appended byte on the image length, and a foreign
// or future format version (header CRC repaired) on the version check.
// The generation is the file name: a renamed file is that generation,
// and the old name is gone.
func TestLoadCheckpointCrossChecks(t *testing.T) {
	dir, path, valid, refused := writeOneGeneration(t)
	for off := 24; off < len(valid); {
		payLen := int(binary.LittleEndian.Uint64(valid[off+4:]))
		refused("payload flip at "+strconv.Itoa(off+16+payLen/2), corrupt(valid, off+16+payLen/2))
		off += 16 + payLen
	}
	refused("image length mismatch", append(bytes.Clone(valid), 0))
	refused("foreign format version", fixHeaderCRC(corrupt(valid, 8)))
	future := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(future[8:], FormatVersion+1)
	refused("future format version", fixHeaderCRC(future))
	restoreLoads(t, dir, path, valid)

	if err := os.Rename(path, filepath.Join(dir, genFileName(9))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(dir, 1); err == nil {
		t.Error("a renamed-away generation still loads under its old number")
	}
	if _, m, err := LoadCheckpoint(dir, 9); err != nil || m.Generation != 9 {
		t.Fatalf("renamed generation: generation %d, err %v; want 9, nil", m.Generation, err)
	}
}
