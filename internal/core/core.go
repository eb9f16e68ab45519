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
	"math"

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
	if err := safeio.WriteGobGz(path, m.blob()); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// blob is m's serialized form.
func (m *Model) blob() *modelBlob {
	return &modelBlob{Cfg: m.Policy.Cfg, Norm: *m.Policy.Norm, Mask: m.Mask, GR: m.GR, Params: nn.DumpParams(m.Policy)}
}

// LoadModel reads a model written by Save, detecting truncation and
// corruption up front.
func LoadModel(path string) (*Model, error) {
	var blob modelBlob
	if err := safeio.ReadGobGz(path, &blob); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if err := blob.check(); err != nil {
		return nil, fmt.Errorf("core: load %s: %w", path, err)
	}
	pol := nn.NewPolicy(blob.Cfg)
	pol.Norm = &blob.Norm
	if err := nn.LoadParams(blob.Params, pol); err != nil {
		return nil, fmt.Errorf("core: load %s: %w", path, err)
	}
	return &Model{Policy: pol, Mask: blob.Mask, GR: blob.GR}, nil
}

// check refuses a blob NewPolicy could not build from, LoadParams could not
// fill or the first step would index out of range — before anything is
// allocated for it, so what LoadModel allocates is bounded by the payload.
func (b *modelBlob) check() error {
	cfg := b.Cfg.Fill()
	if cfg.InDim <= 0 || cfg.Enc <= 0 || cfg.Hidden <= 0 || cfg.K <= 0 || cfg.K > math.MaxInt/3 || cfg.ResBlocks < 0 {
		return fmt.Errorf("widths in=%d enc=%d hidden=%d k=%d res=%d out of range", cfg.InDim, cfg.Enc, cfg.Hidden, cfg.K, cfg.ResBlocks)
	}
	// Walk the tensors of NewPolicy(cfg) in Params order — enc1, enc2, the
	// GRU's nine and its LayerNorm's two, enc3, fc, each residual block's
	// LayerNorm and dense layer, the GMM head — against the payload's.
	i, err := 0, error(nil)
	shape := func(rows, cols int) {
		switch {
		case err != nil:
		case i == len(b.Params):
			err = fmt.Errorf("%d parameter tensors, the config implies more", len(b.Params))
		case len(b.Params[i])%cols != 0 || len(b.Params[i])/cols != rows:
			err = fmt.Errorf("parameter tensor %d has %d values, the config implies %d×%d", i, len(b.Params[i]), rows, cols)
		}
		i++
	}
	dense := func(in, out int) { shape(out, in); shape(1, out) }
	dense(cfg.InDim, cfg.Enc)
	dense(cfg.Enc, cfg.Enc)
	width := cfg.Enc
	if !cfg.NoGRU {
		for range 3 { // z, r, n: W, U, b
			shape(cfg.Hidden, cfg.Enc)
			shape(cfg.Hidden, cfg.Hidden)
			shape(1, cfg.Hidden)
		}
		shape(1, cfg.Hidden)
		shape(1, cfg.Hidden)
		width = cfg.Hidden
	}
	if !cfg.NoEncoder {
		dense(width, cfg.Enc)
		width = cfg.Enc
	}
	dense(width, cfg.Enc)
	for r := 0; r < cfg.ResBlocks && err == nil; r++ {
		shape(1, cfg.Enc)
		shape(1, cfg.Enc)
		dense(cfg.Enc, cfg.Enc)
	}
	dense(cfg.Enc, 3*cfg.K)
	if err == nil && i != len(b.Params) {
		err = fmt.Errorf("%d parameter tensors, the config implies %d", len(b.Params), i)
	}
	if err != nil {
		return err
	}
	if n := len(b.Norm.Mean); (n != 0 && n != cfg.InDim) || len(b.Norm.Std) != n {
		return fmt.Errorf("normalizer of %d means and %d deviations for %d inputs: want both 0 or both %d", n, len(b.Norm.Std), cfg.InDim, cfg.InDim)
	}
	mask := b.Mask
	if mask == nil {
		mask = gr.MaskFull()
	}
	if len(mask) != cfg.InDim {
		return fmt.Errorf("mask of %d signals for %d inputs", len(mask), cfg.InDim)
	}
	for _, j := range mask {
		if j < 0 || j >= gr.StateDim {
			return fmt.Errorf("mask index %d outside the %d-signal GR state", j, gr.StateDim)
		}
	}
	return nil
}

// WrapPolicy builds a Model around an externally trained policy (the BC and
// online-RL baselines reuse the same deployment path).
func WrapPolicy(pol *nn.Policy, mask []int, grCfg gr.Config) *Model {
	if mask == nil {
		mask = gr.MaskFull()
	}
	return &Model{Policy: pol, Mask: mask, GR: grCfg.Fill()}
}
