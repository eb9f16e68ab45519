package chaos

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sage/internal/collector"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rl"
	"sage/internal/safeio"
	"sage/internal/sim"
)

func tinyScenarios(n int) []netem.Scenario {
	return netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: 2 * sim.Second})[:n]
}

func tinyPool(t *testing.T) *collector.Pool {
	t.Helper()
	p, err := collector.Collect(context.Background(), []string{"cubic"}, tinyScenarios(2), collector.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func tinyLearner(t *testing.T, pool *collector.Pool) (*rl.CRR, *rl.Dataset) {
	t.Helper()
	ds := rl.BuildDataset(pool, nil)
	l := rl.NewCRR(ds, rl.CRRConfig{
		Policy: nn.PolicyConfig{Enc: 8, Hidden: 4, ResBlocks: 1, K: 2},
		Steps:  4, Batch: 2, SeqLen: 2, Seed: 7,
	})
	l.Train(context.Background(), ds, nil)
	return l, ds
}

// faults is the catalogue every artifact writer is driven through: each
// must leave either the previous artifact or nothing at the destination.
func faults() map[string]safeio.Hooks {
	return map[string]safeio.Hooks{
		"enospc":      {WrapWriter: ENOSPCAfter(64)},
		"short-write": {WrapWriter: ShortWriteAfter(64)},
		"kill":        {BeforeRename: KillBeforeRename()},
	}
}

// TestInterruptedSaveNeverCorrupts drives every artifact writer in the
// pipeline (pool, checkpoint, model policy) through each injected fault
// and asserts the crash-safety invariant: the previous artifact at the
// destination still loads, bit-identical.
func TestInterruptedSaveNeverCorrupts(t *testing.T) {
	pool := tinyPool(t)
	learner, ds := tinyLearner(t, pool)

	dir := t.TempDir()
	poolPath := filepath.Join(dir, "pool.gob.gz")
	ckptPath := filepath.Join(dir, "ckpt.gob.gz")

	// Generation one: good artifacts on disk.
	if err := pool.Save(poolPath); err != nil {
		t.Fatal(err)
	}
	if err := learner.SaveCheckpoint(ckptPath, 4); err != nil {
		t.Fatal(err)
	}

	for kind, h := range faults() {
		WithFaults(h, func() {
			if err := pool.Save(poolPath); err == nil {
				t.Fatalf("%s: pool save succeeded under fault", kind)
			}
			if err := learner.SaveCheckpoint(ckptPath, 8); err == nil {
				t.Fatalf("%s: checkpoint save succeeded under fault", kind)
			}
		})
		// The previous generation must still be fully readable.
		got, err := collector.Load(poolPath)
		if err != nil {
			t.Fatalf("%s: old pool corrupted: %v", kind, err)
		}
		if got.Transitions() != pool.Transitions() {
			t.Fatalf("%s: old pool lost data", kind)
		}
		if _, steps, err := rl.LoadCheckpoint(ckptPath, ds); err != nil || steps != 4 {
			t.Fatalf("%s: old checkpoint corrupted: steps=%d err=%v", kind, steps, err)
		}
		// No temp litter accumulates across faults.
		ents, _ := os.ReadDir(dir)
		if len(ents) != 2 {
			t.Fatalf("%s: leftover files: %v", kind, ents)
		}
	}
}

// TestFreshSaveUnderFaultLeavesNothing: when there is no previous
// artifact, an interrupted first save must leave no destination file at
// all (a missing file is recoverable; a torn one masquerades as data).
func TestFreshSaveUnderFaultLeavesNothing(t *testing.T) {
	pool := tinyPool(t)
	for kind, h := range faults() {
		path := filepath.Join(t.TempDir(), "pool.gob.gz")
		WithFaults(h, func() {
			if err := pool.Save(path); err == nil {
				t.Fatalf("%s: save succeeded under fault", kind)
			}
		})
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: destination exists after failed first save", kind)
		}
	}
}

// TestWorkerPanicRetriedOnce: a cell that panics once succeeds on its
// retry and the campaign is complete.
func TestWorkerPanicRetriedOnce(t *testing.T) {
	scens := tinyScenarios(2)
	pool, err := collector.Collect(context.Background(), []string{"cubic", "vegas"}, scens, collector.Options{
		Parallel:  2,
		FaultHook: PanicOn("vegas", scens[0].Name, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Trajs) != 4 {
		t.Fatalf("trajectories = %d, want 4 (retry must recover the cell)", len(pool.Trajs))
	}
	if len(pool.Failed) != 0 {
		t.Fatalf("failed = %+v, want none", pool.Failed)
	}
}

// TestWorkerPanicIsolatedToCell: a cell that keeps panicking is recorded
// as failed; every other cell still completes.
func TestWorkerPanicIsolatedToCell(t *testing.T) {
	scens := tinyScenarios(2)
	pool, err := collector.Collect(context.Background(), []string{"cubic", "vegas"}, scens, collector.Options{
		Parallel:  2,
		FaultHook: PanicOn("vegas", scens[0].Name, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Trajs) != 3 {
		t.Fatalf("trajectories = %d, want 3", len(pool.Trajs))
	}
	if len(pool.Failed) != 1 {
		t.Fatalf("failed = %+v, want exactly the poisoned cell", pool.Failed)
	}
	f := pool.Failed[0]
	if f.Scheme != "vegas" || f.Env != scens[0].Name {
		t.Fatalf("wrong failed cell: %+v", f)
	}
	if !strings.Contains(f.Err, "worker panic") {
		t.Fatalf("failure cause lost: %q", f.Err)
	}
	for _, tr := range pool.Trajs {
		if tr.Scheme == "vegas" && tr.Env == scens[0].Name {
			t.Fatal("failed cell also present as trajectory")
		}
	}
}

// TestCheckpointRotationFallback: when the newest checkpoint is corrupted
// on disk, LoadCheckpointAuto falls back to the previous generation.
func TestCheckpointRotationFallback(t *testing.T) {
	pool := tinyPool(t)
	learner, ds := tinyLearner(t, pool)
	path := filepath.Join(t.TempDir(), "ckpt.gob.gz")

	if err := learner.SaveCheckpointRotate(path, 4, 2); err != nil {
		t.Fatal(err)
	}
	if err := learner.SaveCheckpointRotate(path, 8, 2); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest generation in place.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	os.WriteFile(path, raw, 0o644)

	_, steps, from, err := rl.LoadCheckpointAuto(path, ds)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 4 {
		t.Fatalf("fell back to steps=%d, want 4", steps)
	}
	if from != path+".1" {
		t.Fatalf("loaded %s, want the rotated generation", from)
	}

	// With every generation corrupted, the error must say so rather than
	// claim a fresh start.
	raw1, _ := os.ReadFile(path + ".1")
	raw1[len(raw1)/2] ^= 0xff
	os.WriteFile(path+".1", raw1, 0o644)
	if _, _, _, err := rl.LoadCheckpointAuto(path, ds); err == nil || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt generations reported as %v", err)
	}
}

// TestCorruptArtifactErrorsAreActionable: pool and checkpoint loads
// surface safeio's diagnosis (naming the file), not raw gzip/gob internals.
func TestCorruptArtifactErrorsAreActionable(t *testing.T) {
	pool := tinyPool(t)
	learner, ds := tinyLearner(t, pool)
	dir := t.TempDir()
	poolPath := filepath.Join(dir, "pool.gob.gz")
	ckptPath := filepath.Join(dir, "ckpt.gob.gz")
	if err := pool.Save(poolPath); err != nil {
		t.Fatal(err)
	}
	if err := learner.SaveCheckpoint(ckptPath, 4); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{poolPath, ckptPath} {
		// Flip a payload byte.
		raw, _ := os.ReadFile(path)
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)/2] ^= 1
		os.WriteFile(path, flipped, 0o644)
		err := loadArtifact(path, ds)
		if !errors.Is(err, safeio.ErrCorrupt) {
			t.Fatalf("%s flipped: err = %v, want ErrCorrupt", path, err)
		}
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("error does not name the file: %v", err)
		}
		// Truncate to half.
		os.WriteFile(path, raw[:len(raw)/2], 0o644)
		err = loadArtifact(path, ds)
		if !errors.Is(err, safeio.ErrTruncated) && !errors.Is(err, safeio.ErrCorrupt) {
			t.Fatalf("%s truncated: err = %v", path, err)
		}
		// Zero-length.
		os.WriteFile(path, nil, 0o644)
		if err := loadArtifact(path, ds); !errors.Is(err, safeio.ErrTruncated) {
			t.Fatalf("%s empty: err = %v, want ErrTruncated", path, err)
		}
	}
}

func loadArtifact(path string, ds *rl.Dataset) error {
	if strings.Contains(filepath.Base(path), "pool") {
		_, err := collector.Load(path)
		return err
	}
	_, _, err := rl.LoadCheckpoint(path, ds)
	return err
}
