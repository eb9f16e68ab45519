package rl

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"

	"sage/internal/nn"
	"sage/internal/safeio"
)

// checkpointBlob serializes a learner mid-training: both online networks,
// both targets, the normalizer, the Adam moments of both optimizers, and
// every RNG stream position — enough to resume a long (paper-scale)
// training run across process restarts with a bitwise-identical loss
// curve. Checkpoints from before the full-state format (HasFullState
// false) still load, but resume from them re-warms Adam and reseeds the
// samplers.
type checkpointBlob struct {
	Cfg        CRRConfig
	Norm       nn.Normalizer
	Policy     [][]float64
	TargetPol  [][]float64
	Critic     [][]float64
	TargetCrit [][]float64
	StepsDone  int

	HasFullState bool
	OptPi, OptQ  nn.AdamState
	RNG          uint64
	WorkerRNG    []uint64
}

// SaveCheckpoint atomically writes the learner's full training state to
// path (write-temp → fsync → rename, checksummed): a crash mid-save
// leaves the previous checkpoint intact.
func (l *CRR) SaveCheckpoint(path string, stepsDone int) error {
	blob := checkpointBlob{
		Cfg:          l.Cfg,
		Norm:         *l.Policy.Norm,
		Policy:       nn.DumpParams(l.Policy),
		TargetPol:    nn.DumpParams(l.targetPolicy),
		StepsDone:    stepsDone,
		HasFullState: true,
		OptPi:        l.optPi.State(l.Policy),
		Critic:       nn.DumpParams(l.NAF),
		TargetCrit:   nn.DumpParams(l.targetNAF),
		OptQ:         l.optQ.State(l.NAF),
		RNG:          l.rngSrc.State(),
		// Live worker streams, or — with no worker goroutines — the staged
		// positions: they come from a checkpoint that was resumed before
		// the worker set was (lazily) rebuilt, or from a distributed
		// coordinator tracking remote trainer streams (SetWorkerRNGStates);
		// dropping them would silently fork the batch sequence on the next
		// resume.
		WorkerRNG: l.WorkerRNGStates(),
	}
	if err := safeio.WriteGobGz(path, &blob); err != nil {
		return fmt.Errorf("rl: checkpoint: %w", err)
	}
	return nil
}

// SaveCheckpointRotate is SaveCheckpoint with generation rotation: the
// existing path is shifted to path.1, path.1 to path.2, …, keeping at
// most keep previous generations. If the newest checkpoint is later found
// corrupt (torn disk, bit rot), LoadCheckpointAuto falls back to a
// rotated predecessor instead of failing the run.
func (l *CRR) SaveCheckpointRotate(path string, stepsDone, keep int) error {
	if keep > 0 {
		os.Remove(rotName(path, keep))
		for k := keep - 1; k >= 1; k-- {
			os.Rename(rotName(path, k), rotName(path, k+1))
		}
		os.Rename(path, rotName(path, 1))
	}
	return l.SaveCheckpoint(path, stepsDone)
}

func rotName(path string, k int) string { return fmt.Sprintf("%s.%d", path, k) }

// LoadCheckpoint reconstructs a learner from a checkpoint written by
// SaveCheckpoint, returning it and the number of completed steps. The
// dataset must be the same pool (or at least the same input layout) the
// checkpoint was trained on.
func LoadCheckpoint(path string, ds *Dataset) (*CRR, int, error) {
	var blob checkpointBlob
	if err := safeio.ReadGobGz(path, &blob); err != nil {
		return nil, 0, fmt.Errorf("rl: checkpoint: %w", err)
	}
	l := NewCRR(ds, blob.Cfg)
	l.Policy.Norm = &blob.Norm
	l.targetPolicy.Norm = &blob.Norm
	l.NAF.Norm = &blob.Norm
	l.targetNAF.Norm = &blob.Norm
	if err := nn.LoadParams(blob.Policy, l.Policy); err != nil {
		return nil, 0, fmt.Errorf("rl: checkpoint: %w", err)
	}
	if err := nn.LoadParams(blob.TargetPol, l.targetPolicy); err != nil {
		return nil, 0, fmt.Errorf("rl: checkpoint: %w", err)
	}
	if err := nn.LoadParams(blob.Critic, l.NAF); err != nil {
		return nil, 0, fmt.Errorf("rl: checkpoint: %w", err)
	}
	if err := nn.LoadParams(blob.TargetCrit, l.targetNAF); err != nil {
		return nil, 0, fmt.Errorf("rl: checkpoint: %w", err)
	}
	l.stepIdx = blob.StepsDone
	if blob.HasFullState {
		if err := l.optPi.Restore(l.Policy, blob.OptPi); err != nil {
			return nil, 0, fmt.Errorf("rl: checkpoint optimizer: %w", err)
		}
		if err := l.optQ.Restore(l.NAF, blob.OptQ); err != nil {
			return nil, 0, fmt.Errorf("rl: checkpoint optimizer: %w", err)
		}
		l.rngSrc.SetState(blob.RNG)
		l.resumeWorkerRNG = blob.WorkerRNG
	}
	return l, blob.StepsDone, nil
}

// LoadCheckpointAuto loads the newest checkpoint at path, falling back to
// rotated predecessors (path.1, path.2, …) when a file is corrupt or
// truncated. It returns the path actually loaded so callers can report
// the fallback. A missing path (and no rotations) returns an error
// wrapping fs.ErrNotExist, which OpenRun treats as "fresh start".
func LoadCheckpointAuto(path string, ds *Dataset) (*CRR, int, string, error) {
	var attempts []string
	found := false
	for k := 0; ; k++ {
		p := path
		if k > 0 {
			p = rotName(path, k)
		}
		if _, err := os.Stat(p); err != nil {
			if k == 0 {
				// The newest file can be missing mid-rotation (crash
				// between rename and rewrite); the rotations may still
				// hold a good generation.
				continue
			}
			break
		}
		found = true
		l, steps, err := LoadCheckpoint(p, ds)
		if err == nil {
			return l, steps, p, nil
		}
		attempts = append(attempts, err.Error())
	}
	if !found {
		return nil, 0, "", fmt.Errorf("rl: checkpoint %s: %w", path, os.ErrNotExist)
	}
	return nil, 0, "", fmt.Errorf("rl: no loadable checkpoint at %s (tried %d generation(s)): %s",
		path, len(attempts), strings.Join(attempts, "; "))
}

// OpenRun is the one way a training run starts. It checks that ds can be
// sampled at cfg's sequence length, then resumes the newest loadable
// checkpoint at ckpt or — when there is none yet, or ckpt is "" — builds a
// fresh learner from cfg, warm-started from warm's weights when warm is
// non-nil. cfg.Steps is the run's total: the learner comes back with
// Cfg.Steps set to what is left of it after StepsDone. from names the file
// resumed from ("" for a fresh start). A checkpoint chain that exists but
// does not load is an error: a silent fresh start would retrain over hours
// of prior work, or train different parameters under the same round number.
func OpenRun(ckpt string, ds *Dataset, cfg CRRConfig, warm *nn.Policy) (l *CRR, from string, err error) {
	if err := ds.CheckSeqLen(cfg.Fill().SeqLen); err != nil {
		return nil, "", err
	}
	if ckpt != "" {
		l, _, from, err = LoadCheckpointAuto(ckpt, ds)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, "", err
		}
	}
	if l == nil {
		l = NewCRR(ds, cfg)
		if warm != nil {
			if err := l.SeedFromPolicy(warm); err != nil {
				return nil, "", err
			}
		}
	}
	l.Cfg.Steps = max(cfg.Steps-l.StepsDone(), 0)
	return l, from, nil
}

// Interrupted is the one way a cancelled training run ends: it persists
// exactly where training stopped, so a rerun through OpenRun resumes with a
// bitwise-identical loss curve, and returns the error that says so. The
// error wraps context.Canceled. With no ckpt the progress is lost, and the
// error says that instead.
func (l *CRR) Interrupted(ckpt string, keep int) error {
	if ckpt == "" {
		return fmt.Errorf("interrupted at step %d (no checkpoint set; progress lost): %w", l.StepsDone(), context.Canceled)
	}
	if err := l.SaveCheckpointRotate(ckpt, l.StepsDone(), keep); err != nil {
		return err
	}
	return fmt.Errorf("interrupted at step %d; checkpoint saved to %s — rerun to resume: %w", l.StepsDone(), ckpt, context.Canceled)
}
