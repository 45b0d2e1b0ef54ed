// Image files and checkpoint generations: the durability layer above the
// image codec. ReadFile and WriteFile are the only file loader and
// writer. A checkpoint generation is one image file,
// gen-NNNNNNNNNNNN.img, in the checkpoint directory, written by
// WriteFile: temp file, fsync, rename, directory fsync. A crash at any point leaves either the whole
// generation or a temp file that recovery ignores, never a partial file
// under a generation name. The image checks itself (magic, versions,
// header and section CRCs, nothing after the last section), so recovery
// walks generations newest-first and takes the first one Read accepts: a
// torn or bit-flipped generation costs one rung, never the boot.
package image

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// ErrNoCheckpoint is returned by RecoverLatest when the checkpoint
// directory holds no generation that verifies — the caller should fall
// to the next recovery rung.
var ErrNoCheckpoint = errors.New("image: no valid checkpoint generation")

// Manifest describes one checkpoint generation file. It is read from
// the file system, not stored: the image itself is the whole record.
type Manifest struct {
	// Generation is the checkpoint's sequence number; higher is newer.
	Generation uint64
	// CreatedUnixNS is the file's mtime (UnixNano), which WriteFile's
	// last write sets — the checkpoint-age metric's anchor.
	CreatedUnixNS int64
	// ImageBytes is the file's length.
	ImageBytes uint64
}

// ReadFile loads the image file at path through Read, so the file must
// hold exactly one image. The file is streamed: a path that is not an
// image, or a forged section length, costs no more than the bytes read.
func ReadFile(path string) (*core.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}

// WriteFile durably replaces path with an image of snap and reports the
// bytes written. The image goes to a temporary file in path's directory,
// which is synced, set to mode 0644 and renamed over path; the directory
// is then synced too. A crash at any point leaves either the old file or
// the whole new one under path, and once WriteFile returns nil the new
// name survives power loss wherever the filesystem syncs directories.
func WriteFile(path string, snap *core.Snapshot) (int64, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".obarch-image-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name()) // fails harmlessly once the rename has run
	cw := &countWriter{w: f}
	err = Write(cw, snap)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		return 0, err
	}
	syncDir(dir)
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

// syncDir fsyncs a directory so a just-renamed or removed entry survives
// power loss. Best-effort: not every filesystem supports it, and the
// rename itself is already atomic on the ones that don't.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// genFileName formats a generation file name. Fixed width keeps lexical
// and numeric order identical for the first trillion checkpoints.
func genFileName(gen uint64) string { return fmt.Sprintf("gen-%012d.img", gen) }

// parseGenFile inverts genFileName; ok is false for foreign names.
func parseGenFile(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, "gen-")
	if !ok {
		return 0, false
	}
	digits, ok = strings.CutSuffix(digits, ".img")
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
// ascending. Only regular files with a generation name count: temp
// files and directories are ignored. A missing directory is an empty
// list, not an error.
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
		if !ent.Type().IsRegular() {
			continue
		}
		if gen, ok := parseGenFile(ent.Name()); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// WriteCheckpoint captures snap as generation gen under dir, creating
// dir if needed, through WriteFile.
func WriteCheckpoint(dir string, gen uint64, snap *core.Snapshot) (Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Manifest{}, err
	}
	if _, err := WriteFile(filepath.Join(dir, genFileName(gen)), snap); err != nil {
		return Manifest{}, err
	}
	return StatCheckpoint(dir, gen)
}

// StatCheckpoint describes generation gen under dir from its file's
// metadata, without reading the image.
func StatCheckpoint(dir string, gen uint64) (Manifest, error) {
	fi, err := os.Stat(filepath.Join(dir, genFileName(gen)))
	if err != nil {
		return Manifest{}, err
	}
	return Manifest{Generation: gen, CreatedUnixNS: fi.ModTime().UnixNano(), ImageBytes: uint64(fi.Size())}, nil
}

// LoadCheckpoint reads and fully validates generation gen under dir
// through ReadFile.
func LoadCheckpoint(dir string, gen uint64) (*core.Snapshot, Manifest, error) {
	m, err := StatCheckpoint(dir, gen)
	if err != nil {
		return nil, Manifest{}, err
	}
	snap, err := ReadFile(filepath.Join(dir, genFileName(gen)))
	return snap, m, err
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
	var removed []uint64
	for _, gen := range gens[:len(gens)-keep] {
		if err := os.Remove(filepath.Join(dir, genFileName(gen))); err != nil {
			return removed, err
		}
		removed = append(removed, gen)
	}
	syncDir(dir)
	return removed, nil
}

// RecoverLatest walks the generations under dir newest-first and returns
// the first one that fully validates, along with the generations it had
// to reject on the way down. ErrNoCheckpoint (returned with the
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
