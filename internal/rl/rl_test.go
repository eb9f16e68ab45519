package rl

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sage/internal/cc"
	"sage/internal/collector"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rollout"
	"sage/internal/sim"
)

func tinyScenarios() []netem.Scenario {
	return netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: 3 * sim.Second})[:3]
}

func tinyPool(t *testing.T) *collector.Pool {
	t.Helper()
	p, err := collector.Collect(context.Background(), []string{"cubic", "vegas"}, tinyScenarios(), collector.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func tinyPolicyCfg() nn.PolicyConfig {
	return nn.PolicyConfig{Enc: 12, Hidden: 6, ResBlocks: 1, K: 2}
}

func TestBuildDatasetMasksAndTransforms(t *testing.T) {
	pool := tinyPool(t)
	mask := gr.MaskNoMinMax()
	ds := BuildDataset(pool, mask)
	if ds.InDim() != len(mask) {
		t.Fatalf("dim %d", ds.InDim())
	}
	if ds.Transitions() == 0 {
		t.Fatal("empty dataset")
	}
	row := make([]float64, ds.InDim())
	for _, tr := range ds.Trajs {
		// Every row the dataset hands the learner is the step's state
		// through the mask.
		for i, s := range tr.Steps {
			ds.row(row, &tr, i)
			want := gr.ApplyMask(s.State, mask)
			for j := range want {
				if math.Float64bits(row[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s on %s, step %d, column %d: row %v, masked state %v", tr.Scheme, tr.Env, i, j, row[j], want[j])
				}
			}
		}
		for _, a := range tr.Actions {
			if a < -1 || a > 1 {
				t.Fatalf("u-action %v out of range", a)
			}
		}
	}
	if ds.Norm == nil || len(ds.Norm.Mean) != len(mask) {
		t.Fatal("normalizer not fitted")
	}
}

func TestBCConvergesOnConstantPolicy(t *testing.T) {
	// A synthetic dataset where the expert always emits u=0.5 in a fixed
	// state: BC must converge its GMM mean toward 0.5.
	ds := &Dataset{Mask: []int{0, 1}}
	tr := Traj{Scheme: "const", Env: "synthetic"}
	for i := 0; i < 100; i++ {
		tr.Steps = append(tr.Steps, gr.Step{State: []float64{1, -1}, Reward: 1})
		tr.Actions = append(tr.Actions, 0.5)
	}
	ds.Trajs = []Traj{tr}
	ds.Norm = nn.FitNormalizer(trajStates(tr))
	pol, err := TrainBC(ds, BCConfig{Policy: nn.PolicyConfig{Enc: 8, Hidden: 4, ResBlocks: 1, K: 2}, Steps: 250, Batch: 4, SeqLen: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	head, _ := pol.Forward([]float64{1, -1}, pol.InitHidden())
	if got := pol.GMM.Mean(head); math.Abs(got-0.5) > 0.15 {
		t.Fatalf("BC mean action %v, want ~0.5", got)
	}
}

func TestCRRPrefersHighRewardActions(t *testing.T) {
	// Synthetic bandit-ish dataset: in the same state, action +0.5 earns
	// reward 1 and action −0.5 earns 0. CRR's advantage filter must tilt
	// the policy toward +0.5 while BC would sit at the average (0).
	ds := &Dataset{Mask: []int{0, 1}}
	good := Traj{Scheme: "good", Env: "synthetic"}
	bad := Traj{Scheme: "bad", Env: "synthetic"}
	for i := 0; i < 120; i++ {
		good.Steps = append(good.Steps, gr.Step{State: []float64{1, -1}, Reward: 1})
		good.Actions = append(good.Actions, 0.5)
		bad.Steps = append(bad.Steps, gr.Step{State: []float64{1, -1}, Reward: 0})
		bad.Actions = append(bad.Actions, -0.5)
	}
	ds.Trajs = []Traj{good, bad}
	ds.Norm = nn.FitNormalizer(trajStates(good))
	learner := NewCRR(ds, CRRConfig{
		Policy: nn.PolicyConfig{Enc: 8, Hidden: 4, ResBlocks: 1, K: 2},
		Steps:  400, Batch: 8, SeqLen: 2, Seed: 3,
	})
	learner.Train(context.Background(), ds, nil)
	// The critic must rank the good action above the bad one.
	s := []float64{1, -1}
	if qGood, qBad := learner.QValue(s, 0.5), learner.QValue(s, -0.5); qGood <= qBad {
		t.Fatalf("critic ranking wrong: Q(+0.5)=%v <= Q(-0.5)=%v", qGood, qBad)
	}
	head, _ := learner.Policy.Forward(s, learner.Policy.InitHidden())
	if got := learner.Policy.GMM.Mean(head); got < 0.1 {
		t.Fatalf("CRR mean action %v, want tilted toward +0.5", got)
	}
}

func TestPolicyControllerDrivesFlow(t *testing.T) {
	pol := nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim, Enc: 8, Hidden: 4, K: 2, Seed: 1})
	sc := tinyScenarios()[0]
	ctl := NewPolicyController(pol, nil, true, 7)
	ctl.Record = true
	res := rollout.Run(sc, cc.MustNew("pure"), rollout.Options{Controller: ctl, CollectSteps: true})
	if res.ThroughputBps <= 0 {
		t.Fatal("no traffic")
	}
	if len(res.Steps) == 0 || len(ctl.Actions) != len(res.Steps) {
		t.Fatalf("recording broken: %d steps, %d actions", len(res.Steps), len(ctl.Actions))
	}
	for _, u := range ctl.Actions {
		if u < -1 || u > 1 {
			t.Fatalf("action %v out of range", u)
		}
	}
}

func TestTrainOnlineRLProducesUsablePolicy(t *testing.T) {
	pol, err := TrainOnlineRL(OnlineRLConfig{
		CRR: CRRConfig{
			Policy: tinyPolicyCfg(),
			Batch:  4, SeqLen: 4,
		},
		Scenarios: tinyScenarios(),
		Rounds:    3,
		StepsPer:  10,
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pol == nil {
		t.Fatal("nil policy")
	}
	sc := tinyScenarios()[0]
	ctl := NewPolicyController(pol, nil, false, 1)
	res := rollout.Run(sc, cc.MustNew("pure"), rollout.Options{Controller: ctl})
	if res.ThroughputBps <= 0 {
		t.Fatal("online policy moved no traffic")
	}
}

func TestTrainAuroraAndGenet(t *testing.T) {
	for _, curriculum := range []bool{false, true} {
		pol, err := TrainAurora(AuroraConfig{
			Policy:     tinyPolicyCfg(),
			Scenarios:  tinyScenarios(),
			Episodes:   4,
			Curriculum: curriculum,
			Seed:       5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if pol == nil {
			t.Fatal("nil policy")
		}
		if pol.Cfg.NoGRU != true {
			t.Fatal("Aurora must be feed-forward")
		}
		ctl := NewPolicyController(pol, nil, false, 1)
		res := rollout.Run(tinyScenarios()[0], cc.MustNew("pure"), rollout.Options{Controller: ctl})
		if res.ThroughputBps <= 0 {
			t.Fatalf("aurora(curriculum=%v) moved no traffic", curriculum)
		}
	}
}

func TestTrainIndigoImitatesOracle(t *testing.T) {
	scens := tinyScenarios()[:2]
	pol, err := TrainIndigo(IndigoConfig{
		Policy:      tinyPolicyCfg(),
		Scenarios:   scens,
		DaggerIters: 2,
		StepsPer:    60,
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewPolicyController(pol, nil, false, 1)
	res := rollout.Run(scens[0], cc.MustNew("pure"), rollout.Options{Controller: ctl})
	if res.ThroughputBps <= 0 {
		t.Fatal("indigo moved no traffic")
	}
	// The oracle holds cwnd near the BDP: decent utilization, bounded delay.
	util := res.ThroughputBps / scens[0].Rate.At(0)
	if util < 0.2 {
		t.Fatalf("indigo utilization %.2f", util)
	}
}

func TestDifficultyOrdering(t *testing.T) {
	small := netem.Scenario{Name: "flat-a", Rate: netem.FlatRate(netem.Mbps(12)), MinRTT: 10 * sim.Millisecond}
	big := netem.Scenario{Name: "flat-b", Rate: netem.FlatRate(netem.Mbps(192)), MinRTT: 160 * sim.Millisecond}
	step := netem.Scenario{Name: "step-x", Rate: netem.FlatRate(netem.Mbps(12)), MinRTT: 10 * sim.Millisecond}
	if difficulty(small) >= difficulty(big) {
		t.Fatal("BDP ordering")
	}
	if difficulty(step) <= difficulty(small) {
		t.Fatal("step scenarios must rank harder")
	}
}

func TestSampleSeqBounds(t *testing.T) {
	ds := &Dataset{Mask: []int{0}}
	ds.Trajs = []Traj{{Steps: []gr.Step{{State: []float64{1}}, {State: []float64{2}}, {State: []float64{3}}}, Actions: []float64{0, 0, 0}}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		tr, start := ds.sampleSeq(rng, 2)
		if start+2 >= len(tr.Steps)+1 {
			t.Fatalf("start %d overruns", start)
		}
	}
	// Sequence longer than any trajectory falls back gracefully.
	tr, start := ds.sampleSeq(rng, 10)
	if tr == nil || start != 0 {
		t.Fatal("fallback failed")
	}
}

func TestParallelTrainingMatchesShapes(t *testing.T) {
	pool := tinyPool(t)
	ds := BuildDataset(pool, nil)
	cfg := CRRConfig{
		Policy: tinyPolicyCfg(),
		Steps:  20, Batch: 8, SeqLen: 4, Workers: 4, Seed: 9,
	}
	learner := NewCRR(ds, cfg)
	learner.Train(context.Background(), ds, nil)
	if learner.LastCriticLoss != learner.LastCriticLoss { // NaN guard
		t.Fatal("NaN critic loss under parallel training")
	}
	// The trained policy must produce finite in-range actions.
	h := learner.Policy.InitHidden()
	head, _ := learner.Policy.Forward(gr.ApplyMask(ds.Trajs[0].Steps[0].State, ds.Mask), h)
	u := learner.Policy.GMM.Mean(head)
	if u != u {
		t.Fatal("NaN action after parallel training")
	}
	// Workers are cached across steps.
	if len(learner.workerSet) != 4 {
		t.Fatalf("workers = %d", len(learner.workerSet))
	}
}

func TestParallelAndSerialBothLearnBandit(t *testing.T) {
	// The synthetic good/bad-action dataset from the serial test, trained
	// with 4 workers: the same qualitative outcome must hold.
	ds := &Dataset{Mask: []int{0, 1}}
	good := Traj{Scheme: "good", Env: "synthetic"}
	bad := Traj{Scheme: "bad", Env: "synthetic"}
	for i := 0; i < 120; i++ {
		good.Steps = append(good.Steps, gr.Step{State: []float64{1, -1}, Reward: 1})
		good.Actions = append(good.Actions, 0.5)
		bad.Steps = append(bad.Steps, gr.Step{State: []float64{1, -1}, Reward: 0})
		bad.Actions = append(bad.Actions, -0.5)
	}
	ds.Trajs = []Traj{good, bad}
	ds.Norm = nn.FitNormalizer(trajStates(good))
	learner := NewCRR(ds, CRRConfig{
		Policy: nn.PolicyConfig{Enc: 8, Hidden: 4, ResBlocks: 1, K: 2},
		Steps:  400, Batch: 8, SeqLen: 2, Workers: 4, Seed: 3,
	})
	learner.Train(context.Background(), ds, nil)
	s := []float64{1, -1}
	if qG, qB := learner.QValue(s, 0.5), learner.QValue(s, -0.5); qG <= qB {
		t.Fatalf("parallel critic ranking wrong: %v <= %v", qG, qB)
	}
}

func TestTrainStatsTelemetry(t *testing.T) {
	pool := tinyPool(t)
	ds := BuildDataset(pool, nil)
	for _, workers := range []int{1, 3} {
		learner := NewCRR(ds, CRRConfig{
			Policy: tinyPolicyCfg(),
			Steps:  10, Batch: 6, SeqLen: 4, Workers: workers, Seed: 5,
		})
		var got []TrainStats
		learner.OnStep = func(s TrainStats) { got = append(got, s) }
		learner.Train(context.Background(), ds, nil)
		if len(got) != 10 {
			t.Fatalf("workers=%d: %d stats records, want 10", workers, len(got))
		}
		for i, s := range got {
			if s.Step != i+1 {
				t.Fatalf("workers=%d: step %d at index %d", workers, s.Step, i)
			}
			if s.CriticLoss != s.CriticLoss || s.PolicyLoss != s.PolicyLoss {
				t.Fatalf("workers=%d step %d: NaN loss", workers, s.Step)
			}
			if s.GradNormQ <= 0 {
				t.Fatalf("workers=%d step %d: critic grad norm %v", workers, s.Step, s.GradNormQ)
			}
			if s.FilterAccept < 0 || s.FilterAccept > 1 {
				t.Fatalf("filter accept %v", s.FilterAccept)
			}
			if s.AdvStd < 0 {
				t.Fatalf("adv std %v", s.AdvStd)
			}
			if s.Workers != workers {
				t.Fatalf("workers = %d, want %d", s.Workers, workers)
			}
			if workers > 1 {
				if len(s.WorkerBusy) != workers {
					t.Fatalf("worker busy = %v", s.WorkerBusy)
				}
			} else if s.WorkerBusy != nil {
				t.Fatal("serial step reported worker busy times")
			}
		}
		if learner.LastStats.Step != 10 {
			t.Fatalf("LastStats.Step = %d", learner.LastStats.Step)
		}
	}
}

// TestStatsHookDoesNotPerturbTraining proves the telemetry hook is
// observational: identical seeds with and without OnStep produce
// bitwise-identical loss sequences.
func TestStatsHookDoesNotPerturbTraining(t *testing.T) {
	pool := tinyPool(t)
	ds := BuildDataset(pool, nil)
	run := func(hook bool) []float64 {
		learner := NewCRR(ds, CRRConfig{Policy: tinyPolicyCfg(), Steps: 8, Batch: 4, SeqLen: 4, Seed: 11})
		if hook {
			learner.OnStep = func(TrainStats) {}
		}
		var losses []float64
		learner.Train(context.Background(), ds, func(step int, cl, pl float64) { losses = append(losses, cl, pl) })
		return losses
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loss %d differs with stats hook on: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCheckpointResume(t *testing.T) {
	pool := tinyPool(t)
	ds := BuildDataset(pool, nil)
	cfg := CRRConfig{Policy: tinyPolicyCfg(), Steps: 20, Batch: 4, SeqLen: 4, Seed: 6}
	learner := NewCRR(ds, cfg)
	learner.Train(context.Background(), ds, nil)

	path := t.TempDir() + "/ckpt.gob.gz"
	if err := learner.SaveCheckpoint(path, 20); err != nil {
		t.Fatal(err)
	}
	resumed, steps, err := LoadCheckpoint(path, ds)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 20 {
		t.Fatalf("steps = %d", steps)
	}
	// Restored policy behaves identically.
	s := gr.ApplyMask(ds.Trajs[0].Steps[0].State, ds.Mask)
	h1, _ := learner.Policy.Forward(s, learner.Policy.InitHidden())
	h2, _ := resumed.Policy.Forward(s, resumed.Policy.InitHidden())
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatal("restored policy diverges")
		}
	}
	// Restored Q function behaves identically.
	if learner.QValue(s, 0.3) != resumed.QValue(s, 0.3) {
		t.Fatal("restored critic diverges")
	}
	// And training can continue.
	resumed.Cfg.Steps = 5
	resumed.Train(context.Background(), ds, nil)
	if _, _, err := LoadCheckpoint(t.TempDir()+"/missing", ds); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

// TestResumeBitwiseDeterministic is the checkpoint contract: training N
// steps uninterrupted and training K steps → checkpoint → reload → N−K
// steps produce identical loss sequences, serial and data-parallel alike.
// It holds because checkpoints carry the Adam moments, every RNG stream
// position, and the absolute step index the target-network sync schedule
// keys off.
func TestResumeBitwiseDeterministic(t *testing.T) {
	pool := tinyPool(t)
	ds := BuildDataset(pool, nil)
	for _, workers := range []int{1, 3} {
		cfg := CRRConfig{Policy: tinyPolicyCfg(), Steps: 12, Batch: 4, SeqLen: 4, Seed: 17, Workers: workers}

		ref := NewCRR(ds, cfg)
		var want []float64
		ref.Train(context.Background(), ds, func(step int, cl, pl float64) { want = append(want, cl, pl) })
		if len(want) != 24 {
			t.Fatalf("workers=%d: reference recorded %d losses", workers, len(want))
		}

		head := NewCRR(ds, cfg)
		head.Cfg.Steps = 5
		var got []float64
		head.Train(context.Background(), ds, func(step int, cl, pl float64) { got = append(got, cl, pl) })
		path := t.TempDir() + "/ckpt.gob.gz"
		if err := head.SaveCheckpoint(path, head.StepsDone()); err != nil {
			t.Fatal(err)
		}
		resumed, steps, err := LoadCheckpoint(path, ds)
		if err != nil {
			t.Fatal(err)
		}
		if steps != 5 {
			t.Fatalf("workers=%d: resumed at step %d", workers, steps)
		}
		resumed.Cfg.Steps = cfg.Steps - steps
		resumed.Train(context.Background(), ds, func(step int, cl, pl float64) { got = append(got, cl, pl) })

		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d losses vs %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: loss %d differs after resume: %v vs %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestTrainCancellation: a cancelled context stops training between
// gradient steps, and StepsDone reports exactly how far it got.
func TestTrainCancellation(t *testing.T) {
	pool := tinyPool(t)
	ds := BuildDataset(pool, nil)
	learner := NewCRR(ds, CRRConfig{Policy: tinyPolicyCfg(), Steps: 1000, Batch: 4, SeqLen: 4, Seed: 3})
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	learner.Train(ctx, ds, func(step int, cl, pl float64) {
		ran = step
		if step == 3 {
			cancel()
		}
	})
	if ran != 3 {
		t.Fatalf("trained %d steps after cancel at 3", ran)
	}
	if learner.StepsDone() != 3 {
		t.Fatalf("StepsDone = %d", learner.StepsDone())
	}
}
