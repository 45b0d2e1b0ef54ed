// Checkpoint manifests and generation directories: the durability layer
// above the image codec. A checkpoint is one generation-numbered
// directory holding an image file plus a small CRC-protected manifest
// describing it — generation number, creation time, the image's size and
// checksum, and the frozen machine's instruction count for
// cross-checking after recovery. Writes are crash-safe by construction:
// everything is staged into a temp directory, fsynced, and renamed into
// place, so a generation directory either exists complete or not at all.
// Recovery walks generations newest-first and takes the first one whose
// manifest and image both verify, so a torn or bit-flipped checkpoint
// costs one rung, never the boot.
package image

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// ManifestVersion is the manifest codec's own layout version,
// independent of the image FormatVersion the manifest records.
const ManifestVersion = 1

// manifestMagic identifies a checkpoint manifest file.
var manifestMagic = [8]byte{'O', 'B', 'A', 'R', 'C', 'K', 'P', 0}

// Names of the two files inside a generation directory.
const (
	ManifestName = "manifest.bin"
	ImageName    = "image.img"
)

// ErrNoCheckpoint is returned by RecoverLatest when the checkpoint
// directory holds no generation that verifies — the caller should fall
// to the next recovery rung.
var ErrNoCheckpoint = errors.New("image: no valid checkpoint generation")

// Manifest describes one checkpoint generation. Everything recovery
// needs to validate the image without trusting it: the expected byte
// count and CRC catch truncation and bit-flips before the (more
// expensive, also self-validating) image decode runs.
type Manifest struct {
	// Generation is the checkpoint's sequence number; higher is newer.
	Generation uint64
	// CreatedUnixNS is the capture wall-clock time (UnixNano) — the
	// checkpoint-age metric's anchor.
	CreatedUnixNS int64
	// FormatVersion is the image codec version image.img was written
	// with; a manifest recording a version this build cannot read is
	// rejected without touching the image.
	FormatVersion uint32
	// ImageBytes and ImageCRC are the image file's exact length and
	// CRC32 (IEEE).
	ImageBytes uint64
	ImageCRC   uint32
	// Instructions is the frozen machine's lifetime instruction count at
	// capture — recovered state can be cross-checked against it.
	Instructions uint64
}

// EncodeManifest serialises a manifest: magic, version, fields, and a
// trailing CRC32 over everything before it.
func EncodeManifest(m Manifest) []byte {
	e := &enc{}
	e.b = append(e.b, manifestMagic[:]...)
	e.u32(ManifestVersion)
	e.u64(m.Generation)
	e.i64(m.CreatedUnixNS)
	e.u32(m.FormatVersion)
	e.u64(m.ImageBytes)
	e.u32(m.ImageCRC)
	e.u64(m.Instructions)
	e.u32(crc32.ChecksumIEEE(e.b))
	return e.b
}

// DecodeManifest parses and validates a manifest. Like the image codec
// it is built for hostile input: any truncation, bad magic, unsupported
// version, or CRC mismatch is an error, never a panic.
func DecodeManifest(b []byte) (Manifest, error) {
	var m Manifest
	if len(b) < len(manifestMagic)+4 {
		return m, fmt.Errorf("image: manifest truncated (%d bytes)", len(b))
	}
	if crc32.ChecksumIEEE(b[:len(b)-4]) != uint32(b[len(b)-4])|uint32(b[len(b)-3])<<8|uint32(b[len(b)-2])<<16|uint32(b[len(b)-1])<<24 {
		return m, errors.New("image: manifest CRC mismatch")
	}
	d := &dec{b: b[:len(b)-4]}
	var magic [8]byte
	copy(magic[:], d.take(8))
	if d.err == nil && magic != manifestMagic {
		return m, fmt.Errorf("image: bad manifest magic %q", magic[:])
	}
	if v := d.u32(); d.err == nil && v != ManifestVersion {
		return m, fmt.Errorf("image: manifest version %d not supported (this build reads version %d)", v, ManifestVersion)
	}
	m.Generation = d.u64()
	m.CreatedUnixNS = d.i64()
	m.FormatVersion = d.u32()
	m.ImageBytes = d.u64()
	m.ImageCRC = d.u32()
	m.Instructions = d.u64()
	if err := d.done(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// genDirName formats a generation directory name. Fixed width keeps
// lexical and numeric order identical for the first trillion
// checkpoints.
func genDirName(gen uint64) string { return fmt.Sprintf("gen-%012d", gen) }

// parseGenDir inverts genDirName; ok is false for foreign names.
func parseGenDir(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, "gen-")
	if !ok || digits == "" {
		return 0, false
	}
	gen, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// ListGenerations returns the generation numbers present under dir,
// ascending. Foreign entries (temp staging dirs included) are ignored. A
// missing directory is an empty list, not an error.
func ListGenerations(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		if gen, ok := parseGenDir(ent.Name()); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// WriteCheckpoint captures snap as generation gen under dir, atomically:
// image and manifest are written and fsynced in a staging directory
// first, which is then renamed to its final generation name and the
// parent fsynced. A crash at any point leaves either the complete
// generation or debris recovery ignores — never a half-checkpoint with a
// valid name.
func WriteCheckpoint(dir string, gen uint64, snap *core.Snapshot) (Manifest, error) {
	var m Manifest
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return m, err
	}
	stage, err := os.MkdirTemp(dir, ".stage-*")
	if err != nil {
		return m, err
	}
	defer os.RemoveAll(stage) // no-op after the rename succeeds

	crc := crc32.NewIEEE()
	n, err := writeFileSynced(filepath.Join(stage, ImageName), func(w io.Writer) error {
		return Write(io.MultiWriter(w, crc), snap)
	})
	if err != nil {
		return m, fmt.Errorf("image: checkpoint image: %w", err)
	}
	m = Manifest{
		Generation:    gen,
		CreatedUnixNS: time.Now().UnixNano(),
		FormatVersion: FormatVersion,
		ImageBytes:    uint64(n),
		ImageCRC:      crc.Sum32(),
		Instructions:  snap.Stats().Instructions,
	}
	if _, err := writeFileSynced(filepath.Join(stage, ManifestName), func(w io.Writer) error {
		_, werr := w.Write(EncodeManifest(m))
		return werr
	}); err != nil {
		return m, fmt.Errorf("image: checkpoint manifest: %w", err)
	}
	final := filepath.Join(dir, genDirName(gen))
	if err := os.Rename(stage, final); err != nil {
		return m, err
	}
	syncDir(dir)
	return m, nil
}

// WriteFile durably replaces path with an image of snap and reports the
// bytes written. The image goes to a temporary file in path's directory,
// which is synced, set to mode 0644 and renamed over path; the directory
// is then synced too. A crash at any point leaves either the old file or
// the whole new one under path, and once WriteFile returns nil the new
// name survives power loss wherever the filesystem syncs directories.
func WriteFile(path string, snap *core.Snapshot) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".obarch-image-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // fails harmlessly once the rename has run
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	n, err := writeFileSynced(tmp.Name(), func(w io.Writer) error { return Write(w, snap) })
	if err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	syncDir(dir)
	return n, nil
}

// writeFileSynced creates path, streams fill into it, fsyncs, chmods to
// the 0644 an artifact wants, and reports the bytes written.
func writeFileSynced(path string, fill func(io.Writer) error) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	cw := &countWriter{w: f}
	if err := fill(cw); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := os.Chmod(path, 0o644); err != nil {
		return 0, err
	}
	return cw.n, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. Best-effort: not every filesystem supports it, and the rename
// itself is already atomic on the ones that don't.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// LoadCheckpoint reads and fully validates generation gen under dir:
// manifest CRC and version, then image length and CRC against the
// manifest, then the image codec's own validation. Any mismatch is an
// error identifying the failure.
func LoadCheckpoint(dir string, gen uint64) (*core.Snapshot, Manifest, error) {
	gdir := filepath.Join(dir, genDirName(gen))
	raw, err := os.ReadFile(filepath.Join(gdir, ManifestName))
	if err != nil {
		return nil, Manifest{}, err
	}
	m, err := DecodeManifest(raw)
	if err != nil {
		return nil, Manifest{}, err
	}
	if m.Generation != gen {
		return nil, m, fmt.Errorf("image: manifest claims generation %d in directory %s", m.Generation, genDirName(gen))
	}
	if m.FormatVersion != FormatVersion {
		return nil, m, fmt.Errorf("image: checkpoint image format %d not supported (this build reads version %d)", m.FormatVersion, FormatVersion)
	}
	img, err := os.ReadFile(filepath.Join(gdir, ImageName))
	if err != nil {
		return nil, m, err
	}
	if uint64(len(img)) != m.ImageBytes {
		return nil, m, fmt.Errorf("image: checkpoint image is %d bytes, manifest says %d", len(img), m.ImageBytes)
	}
	if got := crc32.ChecksumIEEE(img); got != m.ImageCRC {
		return nil, m, fmt.Errorf("image: checkpoint image CRC mismatch (got %#x, want %#x)", got, m.ImageCRC)
	}
	snap, err := Read(bytes.NewReader(img))
	if err != nil {
		return nil, m, err
	}
	return snap, m, nil
}

// Prune removes the oldest generations beyond the newest keep,
// returning the generations removed. keep < 1 keeps one.
func Prune(dir string, keep int) ([]uint64, error) {
	if keep < 1 {
		keep = 1
	}
	gens, err := ListGenerations(dir)
	if err != nil {
		return nil, err
	}
	if len(gens) <= keep {
		return nil, nil
	}
	doomed := gens[:len(gens)-keep]
	var removed []uint64
	for _, gen := range doomed {
		if err := os.RemoveAll(filepath.Join(dir, genDirName(gen))); err != nil {
			return removed, err
		}
		removed = append(removed, gen)
	}
	syncDir(dir)
	return removed, nil
}

// RecoverLatest walks the generations under dir newest-first and returns
// the first one that fully validates, along with the generations it had
// to reject on the way down. ErrNoCheckpoint (wrapped alongside the
// rejects) means the directory offers nothing bootable and the caller
// should take the next recovery rung.
func RecoverLatest(dir string) (*core.Snapshot, Manifest, []uint64, error) {
	gens, err := ListGenerations(dir)
	if err != nil {
		return nil, Manifest{}, nil, err
	}
	var rejected []uint64
	for i := len(gens) - 1; i >= 0; i-- {
		snap, m, err := LoadCheckpoint(dir, gens[i])
		if err != nil {
			rejected = append(rejected, gens[i])
			continue
		}
		return snap, m, rejected, nil
	}
	return nil, Manifest{}, rejected, ErrNoCheckpoint
}
