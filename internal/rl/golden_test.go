package rl

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"sage/internal/collector"
	"sage/internal/netem"
	"sage/internal/nn"
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

// The goldens below widen the pin beyond the 3 × 4-row tiny shape: the
// default widths at the benchmark's batch shape (the only rows that reach
// the 16-row GEMM tile), the Fig. 12 ablation branches, trajectories short
// enough to truncate the n-step horizon, and the imitation baselines that
// share the policy's BPTT.

// statsDigest folds every deterministic TrainStats field of a run.
type statsDigest struct{ h hash.Hash64 }

func newStatsDigest() *statsDigest { return &statsDigest{h: fnv.New64a()} }

func (d *statsDigest) put(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *statsDigest) add(s TrainStats) {
	for _, f := range []float64{
		s.CriticLoss, s.PolicyLoss, s.MeanFilter, s.FilterAccept, s.AdvMean, s.AdvStd,
		s.GradNormPi, s.GradNormQ, s.GradNormPiClip, s.GradNormQClip,
	} {
		d.put(math.Float64bits(f))
	}
	d.put(s.BatchID)
}

func (d *statsDigest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// goldenRun is what a short run leaves behind: parameters, the per-step
// stats stream and the worker sampler positions.
type goldenRun struct{ online, targets, stats, rng string }

func runGolden(ds *Dataset, cfg CRRConfig, steps int) goldenRun {
	l := NewCRR(ds, cfg)
	sd := newStatsDigest()
	for l.StepsDone() < steps {
		sd.add(l.TrainStep(ds))
	}
	rd := newStatsDigest()
	for _, s := range l.WorkerRNGStates() {
		rd.put(s)
	}
	rd.put(l.rngSrc.State())
	return goldenRun{
		online:  paramDigest(l.SnapshotParams()),
		targets: paramDigest(l.SnapshotTargets()),
		stats:   sd.sum(),
		rng:     rd.sum(),
	}
}

// TestGoldenBenchShape runs the default CRRConfig — Enc 64, Hidden 32, K 5,
// Batch 16, SeqLen 8, NStep 5, the train_crr workload's shape — serial and
// with two workers.
func TestGoldenBenchShape(t *testing.T) {
	ds := goldenDataset(t)
	for _, c := range []struct {
		workers int
		want    goldenRun
	}{
		{0, goldenRun{online: "fac0cd3e637bf6c3", targets: "0a94766bd0cd0c09", stats: "88f0781614c8c47f", rng: "5a5670933092353b"}},
		{2, goldenRun{online: "b928d7436997d445", targets: "0a94766bd0cd0c09", stats: "d6678a3e9c1b16eb", rng: "3404e465dc37f648"}},
	} {
		if got := runGolden(ds, CRRConfig{Workers: c.workers, Seed: 23}, 6); got != c.want {
			t.Errorf("Workers=%d: %+v, want %+v", c.workers, got, c.want)
		}
	}
}

// TestGoldenAblations pins the Fig. 12 policy variants at the tiny shape.
func TestGoldenAblations(t *testing.T) {
	ds := goldenDataset(t)
	for _, c := range []struct {
		name string
		mod  func(*nn.PolicyConfig)
		want goldenRun
	}{
		{"NoGRU", func(p *nn.PolicyConfig) { p.NoGRU = true }, goldenRun{online: "339dadafdfe97493", targets: "5808ff7dbcc8d524", stats: "cb41eefaf87b028e", rng: "7e985630335df0f0"}},
		{"NoEncoder", func(p *nn.PolicyConfig) { p.NoEncoder = true }, goldenRun{online: "ed4e64fb45e7172f", targets: "0a77a87c9d6e4fbd", stats: "da6f4432945014c9", rng: "7e985630335df0f0"}},
		{"K1", func(p *nn.PolicyConfig) { p.K = 1 }, goldenRun{online: "5a6cd3e878ea963a", targets: "3b46101a1485f097", stats: "40942cbc220e91fc", rng: "7e985630335df0f0"}},
	} {
		cfg := goldenCfg(2)
		cfg.TargetEvery = 8
		c.mod(&cfg.Policy)
		if got := runGolden(ds, cfg, 12); got != c.want {
			t.Errorf("%s: %+v, want %+v", c.name, got, c.want)
		}
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
	for _, c := range []struct {
		workers int
		want    goldenRun
	}{
		{0, goldenRun{online: "8ab210a6e35575eb", targets: "958efd61271cf171", stats: "cd273766309b8d89", rng: "6526e6d1343660bd"}},
		{2, goldenRun{online: "df252c545b2669e4", targets: "91fccc0460809c4b", stats: "d7c617f80af839e1", rng: "7e985630335df0f0"}},
	} {
		cfg := goldenCfg(c.workers)
		cfg.TargetEvery = 8
		if got := runGolden(ds, cfg, 12); got != c.want {
			t.Errorf("Workers=%d: %+v, want %+v", c.workers, got, c.want)
		}
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
	if got, want := paramDigest(nn.DumpParams(bc)), "1e0a401df482296f"; got != want {
		t.Errorf("TrainBC: %s, want %s", got, want)
	}

	scs := netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: sim.Second, Seed: 1})[:2]
	indigo, err := TrainIndigo(IndigoConfig{Policy: tinyPolicyCfg(), Scenarios: scs, DaggerIters: 1, StepsPer: 20, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := paramDigest(nn.DumpParams(indigo)), "16eb48fb73a844f9"; got != want {
		t.Errorf("TrainIndigo: %s, want %s", got, want)
	}

	aurora, err := TrainAurora(AuroraConfig{Policy: tinyPolicyCfg(), Scenarios: scs, Episodes: 2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := paramDigest(nn.DumpParams(aurora)), "dc2ae8ea3d91f9b0"; got != want {
		t.Errorf("TrainAurora: %s, want %s", got, want)
	}
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
	for _, c := range []struct {
		workers int
		want    goldenRun
	}{
		{0, goldenRun{online: "00165ccdbf7746db", targets: "8b021b8335b298f6", stats: "95f3d452395f058e", rng: "a0723c9780b25670"}},
		{2, goldenRun{online: "b70344b7e43bd1f3", targets: "bdb50a367b9510b7", stats: "f621e93d635a50df", rng: "6a9349721511b338"}},
	} {
		cfg := goldenCfg(c.workers)
		cfg.TargetEvery = 3
		if got := runGolden(ds, cfg, 8); got != c.want {
			t.Errorf("Workers=%d: %+v, want %+v", c.workers, got, c.want)
		}
	}
	bc, err := TrainBC(ds, BCConfig{Policy: tinyPolicyCfg(), Steps: 10, Batch: 6, SeqLen: 4, Seed: 23}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := paramDigest(nn.DumpParams(bc)), "22fb1a4b509703a4"; got != want {
		t.Errorf("TrainBC: %s, want %s", got, want)
	}
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
	checkGolden(t, "OpenRun resumed at 15", l, goldenWorkers2)

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
