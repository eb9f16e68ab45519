package rl

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"sage/internal/collector"
	"sage/internal/netem"
	"sage/internal/sim"
)

// The golden digests pin the learner's outputs across commits: the CRR step
// may be made smaller or cheaper, never different. Each digest covers every
// parameter of the online policy and critic (goldenLearner.online) or of
// both target networks (goldenLearner.targets) after goldenSteps TrainSteps.
// A constant below changes only with a CHANGES.md sentence saying why.
type goldenLearner struct{ online, targets string }

var (
	goldenSerial   = goldenLearner{online: "283e42fecfbc8828", targets: "43c2e153ba54a98a"}
	goldenWorkers2 = goldenLearner{online: "af305c4567f9df05", targets: "19392f121f3ea36e"}
)

const goldenSteps = 40

// goldenDataset is three schemes over the two ends of tiny Set I, one
// second each.
func goldenDataset(t *testing.T) *Dataset {
	t.Helper()
	setI := netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: sim.Second, Seed: 1})
	scs := []netem.Scenario{setI[0], setI[len(setI)-1]}
	pool, err := collector.Collect(context.Background(), []string{"cubic", "vegas", "bbr2"}, scs, collector.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Trajs) != 6 || len(pool.Failed) != 0 {
		t.Fatalf("%d trajectories, %d failed cells", len(pool.Trajs), len(pool.Failed))
	}
	return BuildDataset(pool, nil)
}

// goldenCfg syncs the targets at steps 16 and 32, so at step 40 they differ
// from the online networks and a missed or extra sync shows in the digest.
func goldenCfg(workers int) CRRConfig {
	return CRRConfig{Policy: tinyPolicyCfg(), Batch: 6, SeqLen: 4, TargetEvery: 16, Workers: workers, Seed: 23}
}

func paramDigest(tensors [][]float64) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(tensors)))
	for _, t := range tensors {
		put(uint64(len(t)))
		for _, v := range t {
			put(math.Float64bits(v))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func checkGolden(t *testing.T, label string, l *CRR, want goldenLearner) {
	t.Helper()
	if l.StepsDone() != goldenSteps {
		t.Fatalf("%s: %d steps done, want %d", label, l.StepsDone(), goldenSteps)
	}
	got := goldenLearner{online: paramDigest(l.SnapshotParams()), targets: paramDigest(l.SnapshotTargets())}
	if got != want {
		t.Errorf("%s: digests = %+v, want %+v", label, got, want)
	}
}

func TestGoldenSerial(t *testing.T) {
	ds := goldenDataset(t)
	l := NewCRR(ds, goldenCfg(0))
	for l.StepsDone() < goldenSteps {
		l.TrainStep(ds)
	}
	checkGolden(t, "Workers=0", l, goldenSerial)
}

// TestGoldenParallel holds three routes to the same 40 data-parallel steps
// to one digest: in-process Workers=2, the same interrupted by a checkpoint
// save and reload at step 20, and two emulated ShardWorkers feeding
// ApplyShards.
func TestGoldenParallel(t *testing.T) {
	ds := goldenDataset(t)
	cfg := goldenCfg(2)

	l := NewCRR(ds, cfg)
	for l.StepsDone() < goldenSteps {
		l.TrainStep(ds)
	}
	checkGolden(t, "Workers=2", l, goldenWorkers2)

	head := NewCRR(ds, cfg)
	for head.StepsDone() < goldenSteps/2 {
		head.TrainStep(ds)
	}
	path := t.TempDir() + "/ckpt.gob.gz"
	if err := head.SaveCheckpoint(path, head.StepsDone()); err != nil {
		t.Fatal(err)
	}
	resumed, steps, err := LoadCheckpoint(path, ds)
	if err != nil {
		t.Fatal(err)
	}
	if steps != goldenSteps/2 {
		t.Fatalf("resumed at step %d", steps)
	}
	for resumed.StepsDone() < goldenSteps {
		resumed.TrainStep(ds)
	}
	checkGolden(t, "Workers=2 resumed at 20", resumed, goldenWorkers2)

	master := NewCRR(ds, cfg)
	seeds := InitialWorkerRNGStates(cfg)
	workers := make([]*ShardWorker, cfg.Workers)
	for i := range workers {
		w, err := NewShardWorker(ds, cfg, i, cfg.Workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Join(0, master.SnapshotParams(), master.SnapshotTargets(), seeds[i]); err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	for master.StepsDone() < goldenSteps {
		shards := make([]GradShard, len(workers))
		for i, w := range workers {
			shards[i] = w.ComputeShard(ds)
		}
		if _, err := master.ApplyShards(shards); err != nil {
			t.Fatal(err)
		}
		for _, w := range workers {
			if err := w.Sync(master.StepsDone(), master.SnapshotParams()); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkGolden(t, "two ShardWorkers + ApplyShards", master, goldenWorkers2)
	// The workers replicate the target-sync schedule locally; their replicas
	// must have landed on the master's targets.
	for i, w := range workers {
		if got := paramDigest(w.learner.SnapshotTargets()); got != goldenWorkers2.targets {
			t.Errorf("shard worker %d targets = %s, want %s", i, got, goldenWorkers2.targets)
		}
	}
}
