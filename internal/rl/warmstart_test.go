package rl

import (
	"testing"

	"sage/internal/gr"
	"sage/internal/nn"
)

func warmstartDS() *Dataset {
	ds := &Dataset{Mask: []int{0, 1}}
	tr := Traj{Scheme: "const", Env: "synthetic"}
	for i := 0; i < 16; i++ {
		tr.Steps = append(tr.Steps, gr.Step{State: []float64{1, -1}, Reward: 1})
		tr.Actions = append(tr.Actions, 0.25)
	}
	ds.Trajs = []Traj{tr}
	ds.Norm = nn.FitNormalizer(trajStates(tr))
	return ds
}

func paramsEqual(a, b nn.Module) bool {
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		for j := range ap[i].Data {
			if ap[i].Data[j] != bp[i].Data[j] {
				return false
			}
		}
	}
	return true
}

func TestSeedFromPolicyCopiesBothNets(t *testing.T) {
	ds := warmstartDS()
	cfg := tinyPolicyCfg()
	learner := NewCRR(ds, CRRConfig{Policy: cfg, Steps: 1, Batch: 2, SeqLen: 2, Seed: 1})

	src := nn.NewPolicy(nn.PolicyConfig{InDim: 2, Enc: cfg.Enc, Hidden: cfg.Hidden, ResBlocks: cfg.ResBlocks, K: cfg.K, Seed: 77})
	if paramsEqual(learner.Policy, src) {
		t.Fatal("fresh learner already matches the seed source")
	}
	if err := learner.SeedFromPolicy(src); err != nil {
		t.Fatal(err)
	}
	if !paramsEqual(learner.Policy, src) {
		t.Fatal("policy params not copied")
	}
	if !paramsEqual(learner.targetPolicy, src) {
		t.Fatal("target policy params not copied — advantage baseline would drift from the seed")
	}
}

func TestSeedFromPolicyRejectsMismatchedShapes(t *testing.T) {
	learner := NewCRR(warmstartDS(), CRRConfig{Policy: tinyPolicyCfg(), Steps: 1, Batch: 2, SeqLen: 2, Seed: 1})
	if err := learner.SeedFromPolicy(nil); err == nil {
		t.Fatal("nil seed accepted")
	}
	wrong := nn.NewPolicy(nn.PolicyConfig{InDim: 2, Enc: 20, Hidden: 10, ResBlocks: 1, K: 2, Seed: 3})
	if err := learner.SeedFromPolicy(wrong); err == nil {
		t.Fatal("architecture mismatch accepted")
	}
}
