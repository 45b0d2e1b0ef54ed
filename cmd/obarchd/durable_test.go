package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/image"
	"repro/internal/node"
	"repro/internal/serve"
	"repro/internal/workload"
)

// writeSuiteImage compiles the workload suite (plus any extra source) and
// persists it as an image file, returning the path and the snapshot.
func writeSuiteImage(t *testing.T, dir, name string, extraSrc ...string) (string, *obarch.Snapshot) {
	t.Helper()
	snap := suiteSnapshot(t, extraSrc...)
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obarch.WriteImage(f, snap); err != nil {
		t.Fatalf("write image: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, snap
}

// TestRecoveryLadderBoot walks the whole ladder: a corrupted newest
// checkpoint generation is rejected (one rung) and the next generation
// boots; with no valid checkpoints the -image file boots warm; with the
// image also corrupted the boot compiles from source — and each outcome
// is recorded in the BootInfo provenance.
func TestRecoveryLadderBoot(t *testing.T) {
	dir := t.TempDir()
	imagePath, snap := writeSuiteImage(t, dir, "com.img")
	ckptDir := filepath.Join(dir, "ckpt")
	for gen := uint64(1); gen <= 2; gen++ {
		if _, err := image.WriteCheckpoint(ckptDir, gen, snap); err != nil {
			t.Fatal(err)
		}
	}
	// Bit-flip generation 2's image so its CRC fails.
	imgPath := filepath.Join(ckptDir, "gen-000000000002.img")
	img, err := os.ReadFile(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0x01
	if err := os.WriteFile(imgPath, img, 0o644); err != nil {
		t.Fatal(err)
	}

	got, programs, boot, err := node.Boot(imagePath, ckptDir, true, nil)
	if err != nil {
		t.Fatalf("ladder boot: %v", err)
	}
	if boot.Mode != "checkpoint" || boot.RecoveredGeneration != 1 || boot.RecoveryLadder != 1 {
		t.Fatalf("boot = %+v, want checkpoint rung, generation 1, ladder 1", boot)
	}
	if len(programs) == 0 || got.NewMachine() == nil {
		t.Fatal("checkpoint boot lost the programs or the snapshot")
	}

	// Rung 2: no checkpoint dir given — warm boot from the image file.
	_, _, boot, err = node.Boot(imagePath, filepath.Join(dir, "empty-ckpt"), true, nil)
	if err != nil {
		t.Fatalf("warm boot: %v", err)
	}
	if boot.Mode != "warm" || boot.RecoveredGeneration != -1 || boot.RecoveryLadder != 0 {
		t.Fatalf("boot = %+v, want warm rung, no generation, ladder 0", boot)
	}

	// Rung 3: image corrupted too — the boot compiles instead of dying,
	// counting both rejected rungs.
	raw, _ := os.ReadFile(imagePath)
	raw[len(raw)/2] ^= 0x01
	os.WriteFile(imagePath, raw, 0o644)
	os.Remove(filepath.Join(ckptDir, "gen-000000000001.img")) // leave only the corrupt gen
	_, _, boot, err = node.Boot(imagePath, ckptDir, true, nil)
	if err != nil {
		t.Fatalf("compile-rung boot: %v", err)
	}
	if boot.Mode != "compile" || boot.RecoveryLadder != 2 {
		t.Fatalf("boot = %+v, want compile rung with ladder 2", boot)
	}
}

// TestRotateEndpoint drives POST /rotate end to end: the pool swaps onto
// an image holding a method the boot image lacks, with the new behaviour
// visible afterwards, the counters bumped, and staging failures
// answering 400 with the pool untouched.
func TestRotateEndpoint(t *testing.T) {
	dir := t.TempDir()
	oldPath, oldSnap := writeSuiteImage(t, dir, "old.img")
	newPath, _ := writeSuiteImage(t, dir, "new.img", `
extend SmallInt [
	method rotmark [ ^self + 99 ]
]`)
	n := startNode(t, oldSnap, workload.Suite(), node.Config{Pool: serve.Config{Workers: 2, Timeout: 30 * time.Second}, ImagePath: oldPath})

	// The boot image does not understand rotmark.
	if status, _ := postSend(t, n, `{"receiver": 1, "selector": "rotmark"}`); status != http.StatusUnprocessableEntity {
		t.Fatalf("pre-rotation rotmark: status %d, want 422", status)
	}

	resp, err := http.Post(url(n)+"/rotate", "application/json", strings.NewReader(fmt.Sprintf(`{"path": %q}`, newPath)))
	if err != nil {
		t.Fatalf("POST /rotate: %v", err)
	}
	var out struct {
		Path      string `json:"path"`
		Rotations uint64 `json:"rotations"`
		Workers   int    `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode /rotate: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.Rotations != 1 || out.Path != newPath {
		t.Fatalf("/rotate: status %d, body %+v", resp.StatusCode, out)
	}

	// New behaviour on every shard (keyed probes pin each one), old suite
	// still intact.
	for i := 0; i < n.Pool().Workers(); i++ {
		body := fmt.Sprintf(`{"receiver": 1, "selector": "rotmark", "key": %d}`, n.Pool().Workers()+i)
		status, res := postSend(t, n, body)
		if status != http.StatusOK {
			t.Fatalf("post-rotation rotmark on shard %d: status %d (%s)", i, status, res.Error)
		}
		if got, ok := res.Result.(float64); !ok || got != 100 {
			t.Fatalf("rotmark answered %v, want 100", res.Result)
		}
	}
	p := workload.Suite()[0]
	if status, _ := postSend(t, n, fmt.Sprintf(`{"receiver": %d, "selector": %q}`, p.Size, p.Entry)); status != http.StatusOK {
		t.Fatalf("suite program broken after rotation: status %d", status)
	}

	// Staging failures: a missing file and a non-image file both answer
	// 400 and leave the pool serving.
	for _, body := range []string{
		fmt.Sprintf(`{"path": %q}`, filepath.Join(dir, "absent.img")),
		fmt.Sprintf(`{"path": %q}`, mustJunkFile(t, dir)),
	} {
		resp, err := http.Post(url(n)+"/rotate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad-image rotate: status %d, want 400", resp.StatusCode)
		}
	}
	if status, _ := postSend(t, n, `{"receiver": 1, "selector": "rotmark"}`); status != http.StatusOK {
		t.Fatal("pool stopped serving after refused rotations")
	}

	// /stats carries the counter.
	var st struct {
		Rotations uint64 `json:"rotations"`
	}
	getJSON(t, n, "/stats", &st)
	if st.Rotations != 1 {
		t.Fatalf("stats rotations=%d, want 1", st.Rotations)
	}
}

func mustJunkFile(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "junk.img")
	if err := os.WriteFile(path, []byte("not an image"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func getJSON(t *testing.T, n *node.Node, path string, v any) {
	t.Helper()
	resp, err := http.Get(url(n) + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
}

// TestReadyzRotating pins the mid-swap readiness signal: while a
// rotation is blocked mid-swap (the pool held at quiescence), /readyz
// answers 503 "rotating"; once the swap completes it answers 200.
func TestReadyzRotating(t *testing.T) {
	snap := suiteSnapshot(t)
	n := startNode(t, snap, workload.Suite(), node.Config{Pool: serve.Config{Workers: 2, Timeout: 30 * time.Second}})

	release := n.Pool().Quiesce()
	done := make(chan error, 1)
	go func() { done <- n.Pool().Rotate(snap) }()
	// The rotation is now parked on shard 0's execMu with the rotating
	// flag up; readiness must say so.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(url(n) + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 64)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && strings.TrimSpace(string(body[:n])) == "rotating" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never reported rotating (last: %d %q)", resp.StatusCode, body[:n])
		}
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("rotation failed: %v", err)
	}
	resp, err := http.Get(url(n) + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after rotation: %d, want 200", resp.StatusCode)
	}
}

// TestSaveCapturesLiveState pins the /save fix: the persisted image is
// the pool's live state at a request boundary — including the
// instructions traffic executed — not the captured boot snapshot.
func TestSaveCapturesLiveState(t *testing.T) {
	imagePath := filepath.Join(t.TempDir(), "com.img")
	snap := suiteSnapshot(t)
	n := startNode(t, snap, workload.Suite(), node.Config{Pool: serve.Config{Workers: 1, Timeout: 30 * time.Second}, ImagePath: imagePath})

	bootInstr := snap.Stats().Instructions
	p := workload.Suite()[0]
	for i := 0; i < 4; i++ {
		if status, _ := postSend(t, n, fmt.Sprintf(`{"receiver": %d, "selector": %q}`, p.Size, p.Entry)); status != http.StatusOK {
			t.Fatalf("request %d failed", i)
		}
	}
	resp, err := http.Post(url(n)+"/save", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/save: status %d", resp.StatusCode)
	}
	f, err := os.Open(imagePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved, err := obarch.ReadImage(f)
	if err != nil {
		t.Fatalf("read saved image: %v", err)
	}
	if saved.Stats().Instructions <= bootInstr {
		t.Fatalf("saved image holds %d instructions, boot had %d — /save captured the boot snapshot, not live state",
			saved.Stats().Instructions, bootInstr)
	}
}

// ckptBlock is the /stats checkpoint block.
type ckptBlock struct {
	Taken      uint64  `json:"taken"`
	Failures   uint64  `json:"failures"`
	Generation int64   `json:"generation"`
	AgeS       float64 `json:"age_s"`
}

func checkpointBlock(t *testing.T, n *node.Node) ckptBlock {
	t.Helper()
	var st struct {
		Checkpoint ckptBlock `json:"checkpoint"`
	}
	statsOf(t, n, &st)
	return st.Checkpoint
}

// TestCheckpointerLoop runs the background checkpointer against a live
// pool: generations accumulate, pruning holds the keep bound, the drain
// takes a final checkpoint, generation numbering continues across
// restarts, and the age/generation stats surface through /stats.
func TestCheckpointerLoop(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	snap := suiteSnapshot(t)
	cfg := node.Config{
		Pool:           serve.Config{Workers: 2, Timeout: 30 * time.Second},
		Checkpoint:     20 * time.Millisecond,
		CheckpointDir:  dir,
		CheckpointKeep: 2,
	}
	n := startNode(t, snap, workload.Suite(), cfg)
	deadline := time.Now().Add(5 * time.Second)
	for st := checkpointBlock(t, n); st.Taken < 3; st = checkpointBlock(t, n) {
		if time.Now().After(deadline) {
			t.Fatalf("checkpointer took only %d checkpoints (failures: %d)", st.Taken, st.Failures)
		}
		time.Sleep(5 * time.Millisecond)
	}
	n.Shutdown(t.Context())
	st := checkpointBlock(t, n)
	taken := st.Taken
	if taken < 4 { // the drain's final checkpoint is included
		t.Fatalf("taken = %d after Shutdown, want the final capture counted", taken)
	}
	gens, err := image.ListGenerations(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 {
		t.Fatalf("%d generations on disk, want keep=2", len(gens))
	}
	if gens[len(gens)-1] != taken {
		t.Fatalf("newest generation %d, want %d (one per capture)", gens[len(gens)-1], taken)
	}
	if st.AgeS < 0 || st.Generation != int64(taken) {
		t.Fatalf("checkpoint block = %+v after captures, want age >= 0 and generation %d", st, taken)
	}
	// Every surviving generation is loadable.
	for _, gen := range gens {
		if _, _, err := image.LoadCheckpoint(dir, gen); err != nil {
			t.Fatalf("generation %d does not load: %v", gen, err)
		}
	}

	// A restarted node boots through the recovery ladder. Its
	// checkpointer primes the age gauge from the generation it recovered
	// instead of reporting "never", and continues the numbering: its
	// drain writes the next generation.
	cfg.Checkpoint = time.Hour
	n2 := bootNode(t, cfg)
	if st := checkpointBlock(t, n2); st.Generation != int64(taken) || st.AgeS < 0 || st.Taken != 0 {
		t.Fatalf("restarted checkpointer not primed: %+v, want generation %d", st, taken)
	}
	n2.Shutdown(t.Context())
	if gens, err := image.ListGenerations(dir); err != nil || gens[len(gens)-1] != taken+1 {
		t.Fatalf("restarted checkpointer wrote generations %v (%v), want newest %d", gens, err, taken+1)
	}
}

// bootNode boots as obarchd does, through node.Boot's recovery ladder
// over cfg's checkpoint directory and image with the suite loaded, and
// serves the result with Boot's provenance.
func bootNode(t *testing.T, cfg node.Config) *node.Node {
	t.Helper()
	snap, programs, boot, err := node.Boot(cfg.ImagePath, cfg.CheckpointDir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	return startBootedNode(t, snap, programs, boot, cfg)
}

// TestRestartReportsRecoveredGeneration restarts a node whose newest
// generation is corrupt. Recovery falls to generation 1, and the
// checkpointer reports generation 1 with that file's age, not the
// rejected newest file's. Its drain numbers on from the newest file, so
// the rejected one is not overwritten.
func TestRestartReportsRecoveredGeneration(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	snap := suiteSnapshot(t)
	for gen := uint64(1); gen <= 2; gen++ {
		if _, err := image.WriteCheckpoint(dir, gen, snap); err != nil {
			t.Fatal(err)
		}
	}
	// Generation 1 is an hour old; generation 2 is fresh and bit-flipped.
	hourAgo := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, "gen-000000000001.img"), hourAgo, hourAgo); err != nil {
		t.Fatal(err)
	}
	gen2 := filepath.Join(dir, "gen-000000000002.img")
	img, err := os.ReadFile(gen2)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0x01
	if err := os.WriteFile(gen2, img, 0o644); err != nil {
		t.Fatal(err)
	}

	n := bootNode(t, node.Config{
		Pool:           serve.Config{Workers: 1, Timeout: 30 * time.Second},
		Checkpoint:     time.Hour,
		CheckpointDir:  dir,
		CheckpointKeep: 5,
	})
	st := checkpointBlock(t, n)
	if st.Generation != 1 || st.AgeS < 3590 || st.AgeS > 3700 {
		t.Fatalf("checkpoint block = %+v, want generation 1 about an hour old", st)
	}
	n.Shutdown(t.Context())
	gens, err := image.ListGenerations(dir)
	if err != nil || len(gens) != 3 || gens[2] != 3 {
		t.Fatalf("generations after the drain = %v (%v), want [1 2 3]", gens, err)
	}
}

// TestCheckpointAgeSentinel pins the -1 sentinels: a node without a
// checkpointer answers -1 everywhere, in /stats too.
func TestCheckpointAgeSentinel(t *testing.T) {
	n := startSuiteNode(t, serve.Config{Workers: 1, Timeout: 30 * time.Second})
	var st struct {
		Checkpoint struct {
			AgeS       float64 `json:"age_s"`
			Enabled    bool    `json:"enabled"`
			Generation int64   `json:"generation"`
		} `json:"checkpoint"`
		Image struct {
			RecoveredGeneration int64 `json:"recovered_generation"`
			RecoveryLadder      int   `json:"recovery_ladder"`
		} `json:"image"`
	}
	getJSON(t, n, "/stats", &st)
	if st.Checkpoint.AgeS != -1 || st.Checkpoint.Enabled || st.Checkpoint.Generation != -1 {
		t.Fatalf("stats checkpoint block = %+v, want disabled sentinels", st)
	}
	if st.Image.RecoveredGeneration != 0 && st.Image.RecoveredGeneration != -1 {
		t.Fatalf("recovered_generation = %d", st.Image.RecoveredGeneration)
	}
}

// TestWatchRotates exercises the -watch poller: replacing the image file
// on disk rotates the pool onto it without any request against /rotate.
func TestWatchRotates(t *testing.T) {
	dir := t.TempDir()
	oldPath, oldSnap := writeSuiteImage(t, dir, "com.img")
	n := startNode(t, oldSnap, workload.Suite(), node.Config{Pool: serve.Config{Workers: 2, Timeout: 30 * time.Second}, ImagePath: oldPath, Watch: 10 * time.Millisecond})

	// Build the replacement elsewhere, then move it over the watched
	// path (atomic, like a real deploy would).
	newPath, _ := writeSuiteImage(t, dir, "staged.img", `
extend SmallInt [
	method rotmark [ ^self + 99 ]
]`)
	time.Sleep(30 * time.Millisecond) // let the watcher record its baseline
	if err := os.Rename(newPath, oldPath); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, res := postSend(t, n, `{"receiver": 1, "selector": "rotmark"}`)
		if status == http.StatusOK {
			if got, ok := res.Result.(float64); !ok || got != 100 {
				t.Fatalf("rotmark answered %v, want 100", res.Result)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watcher never rotated onto the replaced image")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A swapped shard answers before the last shard's swap lands and
	// the rotation counts, so wait for the count.
	waitRotations(t, n.Pool(), "after watch rotation")
}

// TestWatchRetriesTornWrite pins the baseline-advance rule: a poll that
// catches the image mid-write (staging fails) must not advance the
// mtime/size baseline. The deploy here is deliberately adversarial — the
// torn intermediate and the finished image have identical size and
// mtime, so a poller that recorded the baseline before rotating succeeds
// would classify the completed image as already-seen and never retry.
func TestWatchRetriesTornWrite(t *testing.T) {
	dir := t.TempDir()
	oldPath, oldSnap := writeSuiteImage(t, dir, "com.img")
	n := startNode(t, oldSnap, workload.Suite(), node.Config{Pool: serve.Config{Workers: 2, Timeout: 30 * time.Second}, ImagePath: oldPath, Watch: 10 * time.Millisecond})
	time.Sleep(30 * time.Millisecond) // let the watcher record its baseline

	// The finished deploy, built off to the side.
	newPath, _ := writeSuiteImage(t, dir, "staged.img", `
extend SmallInt [
	method rotmark [ ^self + 99 ]
]`)
	finished, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	// The torn intermediate: same bytes with one bit flipped — same
	// size, and we pin the same mtime below. Staging rejects it (CRC).
	torn := append([]byte(nil), finished...)
	torn[len(torn)/2] ^= 0x01
	stamp := time.Now().Add(-time.Hour).Truncate(time.Second)

	if err := os.WriteFile(oldPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(oldPath, stamp, stamp); err != nil {
		t.Fatal(err)
	}
	// Give the poller several ticks to observe the torn file and fail
	// the rotation — the window where the old code burned its baseline.
	time.Sleep(100 * time.Millisecond)

	// The write completes: same size, same mtime as the torn observation.
	if err := os.WriteFile(oldPath, finished, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(oldPath, stamp, stamp); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		status, res := postSend(t, n, `{"receiver": 1, "selector": "rotmark"}`)
		if status == http.StatusOK {
			if got, ok := res.Result.(float64); !ok || got != 100 {
				t.Fatalf("rotmark answered %v, want 100", res.Result)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watcher never retried the torn-write image — the failed poll burned the baseline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A swapped shard answers before the last shard's swap lands and
	// the rotation counts, so wait for the count.
	waitRotations(t, n.Pool(), "after torn-write recovery")
}

// waitRotations waits up to 5s for pool to count a completed rotation.
func waitRotations(t *testing.T, pool *serve.Pool, when string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); pool.Metrics().Rotations < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("rotations = %d %s", pool.Metrics().Rotations, when)
		}
	}
}
