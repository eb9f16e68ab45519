package core

import (
	"context"
	"path/filepath"
	"testing"

	"sage/internal/cc"
	"sage/internal/collector"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rl"
	"sage/internal/rollout"
	"sage/internal/sim"
)

// tinyPool collects a very small pool for fast tests.
func tinyPool(t *testing.T) *collector.Pool {
	t.Helper()
	setI := netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: 4 * sim.Second})[:3]
	setII := netem.SetII(netem.SetIIOptions{Level: netem.GridTiny, Duration: 6 * sim.Second})[:2]
	p, err := collector.Collect(context.Background(), []string{"cubic", "vegas", "bbr2"},
		append(setI, setII...), collector.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func tinyCRR() rl.CRRConfig {
	return rl.CRRConfig{
		Policy: nn.PolicyConfig{Enc: 16, Hidden: 8, ResBlocks: 1, K: 3},
		Steps:  60,
		Batch:  4,
		SeqLen: 4,
	}
}

func TestTrainDeployRoundTrip(t *testing.T) {
	pool := tinyPool(t)
	model := Train(pool, Config{CRR: tinyCRR()}, nil)
	if model.Policy == nil || len(model.Mask) != gr.StateDim {
		t.Fatal("model incomplete")
	}

	// Deploy on a fresh scenario through TCP Pure.
	sc := netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: 4 * sim.Second})[0]
	agent := model.NewAgent(1)
	res := rollout.Run(sc, cc.MustNew("pure"), rollout.Options{Controller: agent})
	if res.ThroughputBps <= 0 {
		t.Fatal("deployed agent moved no traffic")
	}
	if res.AvgRTT <= 0 {
		t.Fatal("no RTT measured")
	}

	// Save/load keeps behaviour identical.
	path := filepath.Join(t.TempDir(), "sage.model")
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	a2 := loaded.NewAgent(1)
	res2 := rollout.Run(sc, cc.MustNew("pure"), rollout.Options{Controller: a2})
	if res2.ThroughputBps != res.ThroughputBps {
		t.Fatalf("loaded model diverges: %v vs %v", res2.ThroughputBps, res.ThroughputBps)
	}
	if _, err := LoadModel(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing model accepted")
	}
}

func TestAgentRespectsBounds(t *testing.T) {
	pool := tinyPool(t)
	model := Train(pool, Config{CRR: tinyCRR()}, nil)
	agent := model.NewAgent(0)
	agent.MaxCwnd = 50
	sc := netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: 3 * sim.Second})[0]
	res := rollout.Run(sc, cc.MustNew("pure"), rollout.Options{Controller: agent, SamplePeriod: 100 * sim.Millisecond})
	for _, s := range res.Series {
		if s.Cwnd > 51 {
			t.Fatalf("cwnd %v exceeded MaxCwnd", s.Cwnd)
		}
	}
	// Reset must leave the recurrent state as a fresh agent's: same width,
	// all zero (the hidden vector is the rl controller's own now, so look
	// at what it does to the next step).
	agent.Reset()
	state := make([]float64, gr.StateDim)
	got, want := agent.LastHiddenEmbedding(state), model.NewAgent(0).LastHiddenEmbedding(state)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("reset broke hidden state")
		}
	}
}

func TestWrapPolicyAndEmbedding(t *testing.T) {
	pool := tinyPool(t)
	ds := rl.BuildDataset(pool, nil)
	bc, err := rl.TrainBC(ds, rl.BCConfig{
		Policy: nn.PolicyConfig{Enc: 12, Hidden: 6, ResBlocks: 1, K: 2},
		Steps:  30, Batch: 4, SeqLen: 4,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	model := WrapPolicy(bc, nil, gr.Config{})
	agent := model.NewAgent(0)
	emb := agent.LastHiddenEmbedding(pool.Trajs[0].Steps[0].State)
	if len(emb) != 12 {
		t.Fatalf("embedding dim %d", len(emb))
	}
	sc := netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: 2 * sim.Second})[0]
	res := rollout.Run(sc, cc.MustNew("pure"), rollout.Options{Controller: agent})
	if res.ThroughputBps <= 0 {
		t.Fatal("BC agent moved no traffic")
	}
}

func TestCRRLearnsFromPool(t *testing.T) {
	// Sanity: the learner's losses must be finite and the policy must
	// produce in-range actions after training.
	pool := tinyPool(t)
	ds := rl.BuildDataset(pool, nil)
	if ds.Transitions() < 500 {
		t.Fatalf("dataset too small: %d", ds.Transitions())
	}
	learner := rl.NewCRR(ds, tinyCRR())
	var lastC, lastP float64
	learner.Train(context.Background(), ds, func(step int, cl, pl float64) { lastC, lastP = cl, pl })
	if lastC != lastC || lastP != lastP { // NaN check
		t.Fatalf("losses NaN: %v %v", lastC, lastP)
	}
	if learner.LastMeanFilter <= 0 {
		t.Fatal("advantage filter inactive")
	}
	// Policy actions must stay in the u-space the data occupies.
	h := learner.Policy.InitHidden()
	for _, tr := range pool.Trajs[:2] {
		for _, s := range tr.Steps[:10] {
			head, hn := learner.Policy.Forward(gr.ApplyMask(s.State, ds.Mask), h)
			h = hn
			u := learner.Policy.GMM.Mean(head)
			if u != u {
				t.Fatal("NaN action")
			}
		}
	}
}

func TestActionTransforms(t *testing.T) {
	if rl.ActionToU(1) != 0 || rl.ActionToU(2) != 1 || rl.ActionToU(0.5) != -1 {
		t.Fatal("ActionToU")
	}
	if rl.ActionToU(100) != 1 || rl.ActionToU(0) != -1 {
		t.Fatal("ActionToU clamping")
	}
	if rl.UToRatio(0) != 1 || rl.UToRatio(1) != 2 || rl.UToRatio(-1) != 0.5 {
		t.Fatal("UToRatio")
	}
	if rl.UToRatio(5) != 2 || rl.UToRatio(-5) != 0.5 {
		t.Fatal("UToRatio clamping")
	}
}
