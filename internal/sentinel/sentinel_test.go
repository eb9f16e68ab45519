package sentinel_test

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sage/internal/chaos"
	"sage/internal/gr"
	"sage/internal/nn"
	"sage/internal/rl"
	"sage/internal/sentinel"
	"sage/internal/telemetry"
)

// cleanTraj returns a synthetic trajectory in a fixed two-feature state:
// action +0.5 earns reward 1, action −0.5 earns 0 (the bandit dataset the
// CRR tests converge on).
func cleanTraj(scheme string, action, reward float64, n int) rl.Traj {
	tr := rl.Traj{Scheme: scheme, Env: "synthetic"}
	for i := 0; i < n; i++ {
		tr.Steps = append(tr.Steps, gr.Step{State: []float64{1, -1}, Reward: reward})
		tr.Actions = append(tr.Actions, action)
	}
	return tr
}

// trajStates lists a trajectory's states, for fitting a normalizer on it.
func trajStates(tr rl.Traj) [][]float64 {
	states := make([][]float64, len(tr.Steps))
	for i, s := range tr.Steps {
		states[i] = s.State
	}
	return states
}

func cleanDataset() *rl.Dataset {
	ds := &rl.Dataset{Mask: []int{0, 1}}
	ds.Trajs = []rl.Traj{
		cleanTraj("good", 0.5, 1, 120),
		cleanTraj("bad", -0.5, 0, 120),
	}
	ds.Norm = nn.FitNormalizer(trajStates(ds.Trajs[0]))
	return ds
}

// checkTrips holds Trips to what it counts: every skipped batch and every
// rollback, as the trip counter saw them.
func checkTrips(t *testing.T, sn *sentinel.Sentinel, reg *telemetry.Registry) {
	t.Helper()
	if sn.Trips() != sn.Skips()+sn.Rollbacks() {
		t.Fatalf("Trips = %d, want skips %d + rollbacks %d", sn.Trips(), sn.Skips(), sn.Rollbacks())
	}
	if got := reg.Counter(sentinel.MetricTrips).Value(); got != int64(sn.Trips()) {
		t.Fatalf("trip counter %d, accessor %d", got, sn.Trips())
	}
}

func tinyCRR(ds *rl.Dataset, steps int) *rl.CRR {
	return rl.NewCRR(ds, rl.CRRConfig{
		Policy: nn.PolicyConfig{Enc: 8, Hidden: 4, ResBlocks: 1, K: 2},
		Steps:  steps, Batch: 4, SeqLen: 2, Seed: 11,
	})
}

// A pool with a NaN-reward trajectory mixed in: batches that sample it
// must be rejected pre-optimizer, batches that miss it must apply, and
// the run must end with finite weights.
func TestSentinelSkipsPoisonedBatches(t *testing.T) {
	ds := cleanDataset()
	poison := cleanTraj("poison", 0.5, 1, 120)
	for i := range poison.Steps {
		poison.Steps[i].Reward = math.NaN()
	}
	ds.Trajs = append(ds.Trajs, poison)

	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	learner := tinyCRR(ds, 80)
	sn := sentinel.New(sentinel.Config{
		CheckpointPath: filepath.Join(dir, "ckpt.gob.gz"),
		Metrics:        reg,
	})
	learner, err := sn.Run(context.Background(), learner, ds, nil)
	if err != nil {
		t.Fatalf("sentinel aborted on a recoverable pool: %v", err)
	}
	if sn.Skips() == 0 {
		t.Fatal("no batches skipped despite NaN rewards in the pool")
	}
	if !learner.ParamsFinite() {
		t.Fatal("weights went non-finite under the sentinel")
	}
	if got := reg.Counter(sentinel.MetricSkips).Value(); got != int64(sn.Skips()) {
		t.Fatalf("skip counter %d, accessor %d", got, sn.Skips())
	}
	if reg.Counter(sentinel.MetricTrips).Value() == 0 {
		t.Fatal("trip counter not bumped")
	}
	checkTrips(t, sn, reg)

	// Every skip event must carry the reason and a batch id, and the whole
	// log must round-trip as JSONL.
	events := sn.Events()
	skips := 0
	for _, e := range events {
		if e.Kind == sentinel.KindSkip {
			skips++
			if e.Reason != sentinel.ReasonNonFiniteLoss && e.Reason != sentinel.ReasonNonFiniteGrad {
				t.Fatalf("skip event with unexpected reason %q", e.Reason)
			}
		}
	}
	if skips != sn.Skips() {
		t.Fatalf("%d skip events, %d skips", skips, sn.Skips())
	}
	path := filepath.Join(dir, "events.jsonl")
	j, err := telemetry.CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sn.EmitEvents(j); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	scan := bufio.NewScanner(f)
	for scan.Scan() {
		var e sentinel.Event
		if err := json.Unmarshal(scan.Bytes(), &e); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		lines++
	}
	if lines != len(events) {
		t.Fatalf("emitted %d lines, %d events", lines, len(events))
	}
}

// Weight corruption that slips past the batch gate (injected here straight
// into the parameters mid-run, on a step the parameter sweep inspects)
// must trigger a checkpoint rollback, a learning-rate backoff, and — after
// a clean cooldown — a recovery.
func TestSentinelRollsBackOnParamCorruption(t *testing.T) {
	ds := cleanDataset()
	reg := telemetry.NewRegistry()
	steps := sentinel.CooldownSteps + 2*sentinel.ParamSweepEvery
	learner := tinyCRR(ds, steps)
	fired := false
	learner.OnStep = func(st rl.TrainStats) {
		if !fired && st.Step == sentinel.ParamSweepEvery {
			fired = true
			chaos.PoisonPolicy(learner.Policy)
		}
	}
	sn := sentinel.New(sentinel.Config{
		CheckpointPath: filepath.Join(t.TempDir(), "ckpt.gob.gz"),
		Metrics:        reg,
	})
	out, err := sn.Run(context.Background(), learner, ds, nil)
	if err != nil {
		t.Fatalf("sentinel aborted instead of rolling back: %v", err)
	}
	if sn.Rollbacks() != 1 {
		t.Fatalf("rollbacks = %d, want 1", sn.Rollbacks())
	}
	if !out.ParamsFinite() {
		t.Fatal("returned learner has non-finite weights")
	}
	if out.StepsDone() != steps {
		t.Fatalf("StepsDone = %d, want %d (replayed after rollback)", out.StepsDone(), steps)
	}
	if reg.Counter(sentinel.MetricRollbacks).Value() != 1 {
		t.Fatal("rollback counter not bumped")
	}
	checkTrips(t, sn, reg)
	if reg.Counter(sentinel.MetricLRBackoffs).Value() != 1 {
		t.Fatal("lr backoff counter not bumped")
	}
	// More than CooldownSteps clean replayed steps: the halved LR must
	// recover.
	if reg.Counter(sentinel.MetricLRRecoveries).Value() == 0 {
		t.Fatal("lr never recovered after cooldown")
	}
	if sn.LRScale() != 1 {
		t.Fatalf("final LR scale %v, want 1 after recovery", sn.LRScale())
	}
	// The rollback event must record the jump.
	found := false
	for _, e := range sn.Events() {
		if e.Kind == sentinel.KindRollback {
			found = true
			if e.Reason != sentinel.ReasonNonFiniteParams {
				t.Fatalf("rollback reason %q", e.Reason)
			}
			if e.FromStep <= e.ToStep {
				t.Fatalf("rollback from %d to %d not a rewind", e.FromStep, e.ToStep)
			}
		}
	}
	if !found {
		t.Fatal("no rollback event logged")
	}
}

// A fully poisoned pool exhausts the skip streak: training must abort
// with an error and a parseable diagnostic bundle on disk.
func TestSentinelAbortsOnHopelessPool(t *testing.T) {
	ds := &rl.Dataset{Mask: []int{0, 1}}
	p1 := cleanTraj("p1", 0.5, math.NaN(), 120)
	p2 := cleanTraj("p2", -0.5, math.NaN(), 120)
	ds.Trajs = []rl.Traj{p1, p2}
	ds.Norm = nn.FitNormalizer(trajStates(p1))

	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.gob.gz")
	learner := tinyCRR(ds, 200)
	sn := sentinel.New(sentinel.Config{
		CheckpointPath: ckpt,
		Metrics:        reg,
	})
	_, err := sn.Run(context.Background(), learner, ds, nil)
	if err == nil {
		t.Fatal("sentinel trained to completion on an all-NaN pool")
	}
	if reg.Counter(sentinel.MetricAborts).Value() != 1 {
		t.Fatal("abort counter not bumped")
	}
	b, rerr := os.ReadFile(ckpt + ".diag.json")
	if rerr != nil {
		t.Fatalf("diagnostic bundle missing: %v", rerr)
	}
	var d sentinel.Diagnostics
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("diagnostic bundle not valid JSON: %v", err)
	}
	if d.Reason == "" || d.Skips != sentinel.MaxSkipStreak {
		t.Fatalf("bundle reason %q skips %d, want %d consecutive skips", d.Reason, d.Skips, sentinel.MaxSkipStreak)
	}
	if len(d.OffendingBatches) != sentinel.MaxSkipStreak {
		t.Fatalf("%d offending batch ids, want %d", len(d.OffendingBatches), sentinel.MaxSkipStreak)
	}
	if len(d.StatsWindow) == 0 || len(d.Events) == 0 {
		t.Fatal("bundle missing stats window or events")
	}
	if d.PolicyParams.Total == 0 || d.CriticParams.Total == 0 {
		t.Fatal("bundle missing parameter histograms")
	}
	if d.PolicyParams.NaN != 0 {
		t.Fatal("gate let NaN gradients corrupt the policy weights")
	}
}

// HistogramParams must classify zeros, NaNs, Infs, and decade buckets.
func TestHistogramParams(t *testing.T) {
	pol := nn.NewPolicy(nn.PolicyConfig{InDim: 2, Enc: 4, Hidden: 3, K: 2, Seed: 1})
	ps := pol.Params()
	ps[0].Data[0] = math.NaN()
	ps[0].Data[1] = math.Inf(1)
	ps[0].Data[2] = 0
	ps[0].Data[3] = 1234.5 // decade 3
	h := sentinel.HistogramParams(pol)
	if h.NaN != 1 || h.Inf != 1 {
		t.Fatalf("NaN=%d Inf=%d", h.NaN, h.Inf)
	}
	if h.Zero == 0 {
		t.Fatal("zero bucket empty")
	}
	if h.Decades[3] != 1 {
		t.Fatalf("decade 3 count %d", h.Decades[3])
	}
	if h.Total != nn.ParamCount(pol) {
		t.Fatalf("total %d, want %d", h.Total, nn.ParamCount(pol))
	}
}
