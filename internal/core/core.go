// Package core is Sage's public API: it ties the Policy Collector's pool to
// the Core Learning block and wraps the learned policy as a deployment-ready
// congestion-control agent (the Execution block of Fig. 3, "TCP Pure").
//
// The full pipeline a user runs:
//
//	pool, err := collector.Collect(ctx, cc.PoolNames(), scenarios, collector.Options{})
//	model  := core.Train(pool, core.Config{}, nil)
//	agent  := model.NewAgent(0)
//	pure, _ := cc.New("pure")
//	res    := rollout.Run(scenario, pure, rollout.Options{Controller: agent})
//
// Production deployments wrap the agent in guard.New(agent, guard.Config{})
// so a misbehaving inference falls back to a heuristic instead of
// blackholing the connection (see internal/guard).
package core

import (
	"context"
	"fmt"

	"sage/internal/collector"
	"sage/internal/gr"
	"sage/internal/nn"
	"sage/internal/rl"
	"sage/internal/safeio"
	"sage/internal/tcp"
)

// Config gathers everything Train needs.
type Config struct {
	GR   gr.Config    // must match the pool's GR config
	Mask []int        // input subset (nil = full 69-signal vector)
	CRR  rl.CRRConfig // learner configuration
}

// Model is a trained Sage policy plus the metadata needed to run it.
type Model struct {
	Policy *nn.Policy
	Mask   []int
	GR     gr.Config
}

// Train runs the offline CRR learner on the pool and returns the model.
// progress (optional) receives (step, criticLoss, policyLoss).
func Train(pool *collector.Pool, cfg Config, progress func(step int, criticLoss, policyLoss float64)) *Model {
	if cfg.Mask == nil {
		cfg.Mask = gr.MaskFull()
	}
	cfg.GR = cfg.GR.Fill()
	ds := rl.BuildDataset(pool, cfg.Mask)
	learner := rl.NewCRR(ds, cfg.CRR)
	learner.Train(context.Background(), ds, progress)
	return &Model{Policy: learner.Policy, Mask: cfg.Mask, GR: cfg.GR}
}

// Agent is the deployment form of rl.PolicyController: the same per-flow
// decision step, with a cwnd ceiling and its own RNG stream (NewAgent).
type Agent = rl.PolicyController

// NewAgent returns a fresh deployment agent (its own recurrent state): cwnd
// clamped to [tcp.MinCwnd, tcp.MaxCwnd], stochastic draws from stream
// seed+77.
func (m *Model) NewAgent(seed int64) *Agent {
	// rl.NewPolicyController seeds its stream at seed+991.
	a := rl.NewPolicyController(m.Policy, m.Mask, false, seed+77-991)
	a.MaxCwnd = tcp.MaxCwnd
	return a
}

// modelBlob is the serialized form.
type modelBlob struct {
	Cfg    nn.PolicyConfig
	Norm   nn.Normalizer
	Params [][]float64
	Mask   []int
	GR     gr.Config
}

// Save writes the model to path as gzipped gob inside safeio's atomic,
// checksummed container: a crash mid-save never clobbers a good model.
func (m *Model) Save(path string) error {
	blob := modelBlob{Cfg: m.Policy.Cfg, Norm: *m.Policy.Norm, Mask: m.Mask, GR: m.GR, Params: nn.DumpParams(m.Policy)}
	if err := safeio.WriteGobGz(path, &blob); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// LoadModel reads a model written by Save, detecting truncation and
// corruption up front.
func LoadModel(path string) (*Model, error) {
	var blob modelBlob
	if err := safeio.ReadGobGz(path, &blob); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	pol := nn.NewPolicy(blob.Cfg)
	pol.Norm = &blob.Norm
	if err := nn.LoadParams(blob.Params, pol); err != nil {
		return nil, fmt.Errorf("core: load %s: %w", path, err)
	}
	return &Model{Policy: pol, Mask: blob.Mask, GR: blob.GR}, nil
}

// WrapPolicy builds a Model around an externally trained policy (the BC and
// online-RL baselines reuse the same deployment path).
func WrapPolicy(pol *nn.Policy, mask []int, grCfg gr.Config) *Model {
	if mask == nil {
		mask = gr.MaskFull()
	}
	return &Model{Policy: pol, Mask: mask, GR: grCfg.Fill()}
}
