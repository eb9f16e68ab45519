package rl

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"sage/internal/collector"
	"sage/internal/golden"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/sim"
)

// The golden pins (testdata/*.golden) hold the learner's outputs across
// commits: the CRR step may be made smaller or cheaper, never different. A
// <pin>.online digest covers every parameter of the online policy and
// critic, a <pin>.targets digest both target networks.

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
	d := golden.NewDigest()
	d.U64(uint64(len(tensors)))
	for _, t := range tensors {
		d.U64(uint64(len(t)))
		for _, v := range t {
			d.F64(v)
		}
	}
	return d.Sum()
}

// checkGolden holds a learner after goldenSteps to the pins <pin>.online
// and <pin>.targets; a failure names the line of the route that got there.
func checkGolden(t *testing.T, pin string, l *CRR) {
	t.Helper()
	if l.StepsDone() != goldenSteps {
		t.Fatalf("%d steps done, want %d", l.StepsDone(), goldenSteps)
	}
	golden.Check(t, pin+".online", paramDigest(l.SnapshotParams()))
	golden.Check(t, pin+".targets", paramDigest(l.SnapshotTargets()))
}

func TestGoldenSerial(t *testing.T) {
	ds := goldenDataset(t)
	l := NewCRR(ds, goldenCfg(0))
	for l.StepsDone() < goldenSteps {
		l.TrainStep(ds)
	}
	checkGolden(t, "serial", l)
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
	checkGolden(t, "workers2", l)

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
	checkGolden(t, "workers2", resumed)

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
	checkGolden(t, "workers2", master)
	// The workers replicate the target-sync schedule locally; their replicas
	// must have landed on the master's targets.
	for _, w := range workers {
		golden.Check(t, "workers2.targets", paramDigest(w.learner.SnapshotTargets()))
	}
}

// The goldens below widen the pin beyond the 3 × 4-row tiny shape: the
// default widths at the benchmark's batch shape (the only rows that reach
// the 16-row GEMM tile), the Fig. 12 ablation branches, trajectories short
// enough to truncate the n-step horizon, and the imitation baselines that
// share the policy's BPTT.

// runGolden holds what a short run leaves behind to the pins <pin>.online
// and <pin>.targets (parameters), <pin>.stats (every deterministic
// TrainStats field of every step) and <pin>.rng (the sampler positions).
func runGolden(t *testing.T, pin string, ds *Dataset, cfg CRRConfig, steps int) {
	t.Helper()
	l := NewCRR(ds, cfg)
	stats := golden.NewDigest()
	for l.StepsDone() < steps {
		s := l.TrainStep(ds)
		for _, f := range []float64{
			s.CriticLoss, s.PolicyLoss, s.MeanFilter, s.FilterAccept, s.AdvMean, s.AdvStd,
			s.GradNormPi, s.GradNormQ, s.GradNormPiClip, s.GradNormQClip,
		} {
			stats.F64(f)
		}
		stats.U64(s.BatchID)
	}
	rng := golden.NewDigest()
	for _, s := range l.WorkerRNGStates() {
		rng.U64(s)
	}
	rng.U64(l.rngSrc.State())
	golden.Check(t, pin+".online", paramDigest(l.SnapshotParams()))
	golden.Check(t, pin+".targets", paramDigest(l.SnapshotTargets()))
	golden.Check(t, pin+".stats", stats.Sum())
	golden.Check(t, pin+".rng", rng.Sum())
}

// TestGoldenBenchShape runs the default CRRConfig — Enc 64, Hidden 32, K 5,
// Batch 16, SeqLen 8, NStep 5, the train_crr workload's shape — serial and
// with two workers.
func TestGoldenBenchShape(t *testing.T) {
	ds := goldenDataset(t)
	for _, workers := range []int{0, 2} {
		runGolden(t, fmt.Sprintf("bench-shape-w%d", workers), ds, CRRConfig{Workers: workers, Seed: 23}, 6)
	}
}

// TestGoldenAblations pins the Fig. 12 policy variants at the tiny shape.
func TestGoldenAblations(t *testing.T) {
	ds := goldenDataset(t)
	for _, c := range []struct {
		name string
		mod  func(*nn.PolicyConfig)
	}{
		{"NoGRU", func(p *nn.PolicyConfig) { p.NoGRU = true }},
		{"NoEncoder", func(p *nn.PolicyConfig) { p.NoEncoder = true }},
		{"K1", func(p *nn.PolicyConfig) { p.K = 1 }},
	} {
		cfg := goldenCfg(2)
		cfg.TargetEvery = 8
		c.mod(&cfg.Policy)
		runGolden(t, "ablation-"+c.name, ds, cfg, 12)
	}
}

// shortTrajDataset cuts the golden pool's trajectories to SeqLen+1,
// SeqLen+2, … states (SeqLen = 4), so a sampled window's n-step horizon is
// truncated at every depth and the shortest trajectory admits exactly one
// window.
func shortTrajDataset(t *testing.T) *Dataset {
	ds := goldenDataset(t)
	for i := range ds.Trajs {
		tr := &ds.Trajs[i]
		n := 5 + i
		if i == len(ds.Trajs)-1 {
			n = 40 // one trajectory long enough for a full horizon
		}
		tr.States, tr.Actions, tr.Rewards = tr.States[:n], tr.Actions[:n], tr.Rewards[:n]
	}
	return ds
}

func TestGoldenShortTrajectories(t *testing.T) {
	ds := shortTrajDataset(t)
	for _, workers := range []int{0, 2} {
		cfg := goldenCfg(workers)
		cfg.TargetEvery = 8
		runGolden(t, fmt.Sprintf("short-traj-w%d", workers), ds, cfg, 12)
	}
}

// TestGoldenImitation pins the baselines that train the same policy network
// by log-likelihood: BC (20 steps), one Indigo DAgger iteration and two
// Aurora episodes.
func TestGoldenImitation(t *testing.T) {
	ds := goldenDataset(t)
	bc, err := TrainBC(ds, BCConfig{Policy: tinyPolicyCfg(), Steps: 20, Batch: 6, SeqLen: 4, Seed: 23}, nil)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "imitation-bc", paramDigest(nn.DumpParams(bc)))

	scs := netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: sim.Second, Seed: 1})[:2]
	indigo, err := TrainIndigo(IndigoConfig{Policy: tinyPolicyCfg(), Scenarios: scs, DaggerIters: 1, StepsPer: 20, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "imitation-indigo", paramDigest(nn.DumpParams(indigo)))

	aurora, err := TrainAurora(AuroraConfig{Policy: tinyPolicyCfg(), Scenarios: scs, Episodes: 2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "imitation-aurora", paramDigest(nn.DumpParams(aurora)))
}

// TestGoldenWindowWithoutNextState: when no trajectory holds SeqLen+1 states
// the sampler falls back to the longest one from its start; with exactly
// SeqLen states that window's last transition has no next state, so it gets
// no TD target (and draws no target action) but still takes part in policy
// improvement. The closed loop trains on such windows (8-step trace windows
// under the default SeqLen 8).
func TestGoldenWindowWithoutNextState(t *testing.T) {
	ds := goldenDataset(t)
	for i := range ds.Trajs {
		tr := &ds.Trajs[i]
		n := 4 - i%2 // SeqLen states, or one fewer
		tr.States, tr.Actions, tr.Rewards = tr.States[:n], tr.Actions[:n], tr.Rewards[:n]
	}
	for _, workers := range []int{0, 2} {
		cfg := goldenCfg(workers)
		cfg.TargetEvery = 3
		runGolden(t, fmt.Sprintf("no-next-state-w%d", workers), ds, cfg, 8)
	}
	bc, err := TrainBC(ds, BCConfig{Policy: tinyPolicyCfg(), Steps: 10, Batch: 6, SeqLen: 4, Seed: 23}, nil)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "no-next-state-bc", paramDigest(nn.DumpParams(bc)))
}

// TestOpenRunResumesBitwise drives the one open-or-resume entry the way the
// three training binaries do — open fresh, get interrupted, reopen, finish —
// and holds the result to the uninterrupted Workers=2 golden.
func TestOpenRunResumesBitwise(t *testing.T) {
	ds := goldenDataset(t)
	cfg := goldenCfg(2)
	cfg.Steps = goldenSteps
	ckpt := t.TempDir() + "/run.ckpt"

	l, from, err := OpenRun(ckpt, ds, cfg, nil)
	if err != nil || from != "" || l.StepsDone() != 0 || l.Cfg.Steps != goldenSteps {
		t.Fatalf("fresh open: from %q, %d done, %d left, err %v", from, l.StepsDone(), l.Cfg.Steps, err)
	}
	for l.StepsDone() < 15 {
		l.TrainStep(ds)
	}
	if err := l.Interrupted(ckpt, 2); !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "step 15") {
		t.Fatalf("Interrupted = %v, want a cancellation naming step 15", err)
	}

	l, from, err = OpenRun(ckpt, ds, cfg, nil)
	if err != nil || from != ckpt || l.StepsDone() != 15 || l.Cfg.Steps != goldenSteps-15 {
		t.Fatalf("reopen: from %q, %d done, %d left, err %v", from, l.StepsDone(), l.Cfg.Steps, err)
	}
	l.Train(context.Background(), ds, nil)
	checkGolden(t, "workers2", l)

	// A finished run reopens with nothing left to do.
	if err := l.SaveCheckpoint(ckpt, l.StepsDone()); err != nil {
		t.Fatal(err)
	}
	if l, _, err = OpenRun(ckpt, ds, cfg, nil); err != nil || l.Cfg.Steps != 0 {
		t.Fatalf("reopen of a finished run: %d left, err %v", l.Cfg.Steps, err)
	}

	// A chain that exists but does not load is refused, never a silent
	// fresh start.
	if err := os.WriteFile(ckpt, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenRun(ckpt, ds, cfg, nil); err == nil || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt chain: err %v, want a load failure", err)
	}

	// No checkpoint path: always fresh, warm-started when asked, and an
	// interrupt says the progress is gone.
	warm := NewCRR(ds, goldenCfg(0)).Policy
	warm.Params()[0].Data[0] = 0.625
	l, from, err = OpenRun("", ds, cfg, warm)
	if err != nil || from != "" || l.Policy.Params()[0].Data[0] != 0.625 {
		t.Fatalf("warm start: from %q, err %v, first weight %v", from, err, l.Policy.Params()[0].Data[0])
	}
	if err := l.Interrupted("", 2); !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "progress lost") {
		t.Fatalf("Interrupted without a checkpoint = %v", err)
	}

	// A dataset the sampler cannot window is an error before any learner
	// is built.
	short := cfg
	short.SeqLen = 1 << 20
	if _, _, err := OpenRun(ckpt, ds, short, nil); !errors.Is(err, ErrShortTrajectories) {
		t.Fatalf("unsampleable dataset: err %v", err)
	}
}
