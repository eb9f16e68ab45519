package feedback

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"

	"sage/internal/collector"
	"sage/internal/core"
	"sage/internal/nn"
	"sage/internal/promote"
	"sage/internal/rl"
	"sage/internal/sentinel"
	"sage/internal/telemetry"
)

// Retrain metric names.
const (
	MetricRetrains     = "feedback.retrains"
	MetricRetrainSteps = "feedback.retrain_steps"
)

// MixPools blends live and offline experience into one training pool at
// roughly liveFrac live trajectories, sampling the offline complement
// without replacement under seed — deterministic, so a killed round that
// re-mixes from the same inputs rebuilds the identical pool. All live
// trajectories are always included (they are the point of the exercise);
// liveFrac only controls how much offline ballast anchors them. A nil or
// empty offline pool yields a live-only pool.
func MixPools(offline, live *collector.Pool, liveFrac float64, seed int64) *collector.Pool {
	if liveFrac <= 0 || liveFrac > 1 {
		liveFrac = 0.5
	}
	out := &collector.Pool{GR: live.GR}
	out.Trajs = append(out.Trajs, live.Trajs...)
	if offline == nil || len(offline.Trajs) == 0 {
		return out
	}
	if len(out.Trajs) == 0 {
		out.GR = offline.GR
	}
	want := int(float64(len(live.Trajs))*(1-liveFrac)/liveFrac + 0.5)
	if want > len(offline.Trajs) {
		want = len(offline.Trajs)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(offline.Trajs))
	for _, i := range perm[:want] {
		out.Trajs = append(out.Trajs, offline.Trajs[i])
	}
	return out
}

// RetrainConfig parameterizes one incremental retraining round.
type RetrainConfig struct {
	// WorkDir holds the round's artifacts: the materialized training pool
	// ("round-N.pool") and the sentinel checkpoint chain ("round-N.ckpt").
	// Both make the round resumable: the pool file freezes the mix the
	// moment the round starts (later ingestion cannot shift it), and the
	// checkpoint resumes training bitwise, so a killed round converges to
	// the identical parameters — and the identical registry fingerprint.
	WorkDir string
	Round   int

	Offline  *collector.Pool // offline ballast (nil = live-only)
	Live     *collector.Pool // live experience from the ingester
	LiveFrac float64         // target live fraction of the mix (default 0.5)

	Mask []int
	CRR  rl.CRRConfig // CRR.Steps = total gradient steps for the round

	// Incumbent, with WarmStart, seeds the learner's policy from the
	// serving model so the round is incremental rather than from-scratch.
	Incumbent *core.Model
	WarmStart bool

	// CheckpointEvery/CheckpointKeep tune the sentinel's rotation (0 =
	// sentinel defaults).
	CheckpointEvery int
	CheckpointKeep  int

	Metrics  *telemetry.Registry
	Events   *telemetry.JSONL
	Progress func(step int, criticLoss, policyLoss float64)
}

// roundPoolPath / roundCkptPath name a round's on-disk artifacts.
func roundPoolPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("round-%06d.pool", n))
}
func roundCkptPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("round-%06d.ckpt", n))
}

// CleanupRound removes a finished round's artifacts (pool, checkpoint
// chain). Best-effort: a leftover file only wastes disk.
func CleanupRound(dir string, n int) {
	os.Remove(roundPoolPath(dir, n))
	ckpt := roundCkptPath(dir, n)
	os.Remove(ckpt)
	for k := 1; k <= 8; k++ {
		if os.Remove(fmt.Sprintf("%s.%d", ckpt, k)) != nil {
			break
		}
	}
}

// RetrainRound runs (or resumes) one sentinel-guarded incremental CRR
// round and returns the trained candidate. The round pool is materialized
// to disk before training so a SIGKILL at any point resumes against the
// identical dataset; the sentinel's rotating checkpoints resume the
// optimizer bitwise.
func RetrainRound(ctx context.Context, cfg RetrainConfig) (*core.Model, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	poolPath := roundPoolPath(cfg.WorkDir, cfg.Round)
	pool, err := collector.Load(poolPath)
	if errors.Is(err, fs.ErrNotExist) {
		pool = MixPools(cfg.Offline, cfg.Live, cfg.LiveFrac, cfg.CRR.Seed+int64(cfg.Round))
		if err := pool.Save(poolPath); err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, fmt.Errorf("feedback: round pool: %w", err)
	}

	ckptPath := roundCkptPath(cfg.WorkDir, cfg.Round)
	var warm *nn.Policy
	if cfg.WarmStart && cfg.Incumbent != nil {
		warm = cfg.Incumbent.Policy
	}
	ds := rl.BuildDataset(pool, cfg.Mask)
	learner, _, err := rl.OpenRun(ckptPath, ds, cfg.CRR, warm)
	if err != nil {
		return nil, fmt.Errorf("feedback: round %d: %w", cfg.Round, err)
	}
	remaining := learner.Cfg.Steps

	trained, _, err := sentinel.Train(ctx, learner, ds, sentinel.Config{
		CheckpointPath:  ckptPath,
		CheckpointEvery: cfg.CheckpointEvery,
		CheckpointKeep:  cfg.CheckpointKeep,
		Metrics:         cfg.Metrics,
	}, cfg.Events, cfg.Progress)
	if err != nil {
		return nil, fmt.Errorf("feedback: sentinel aborted round %d: %w", cfg.Round, err)
	}
	if ctx.Err() != nil {
		// Interrupted mid-round: the checkpoint chain holds the progress;
		// do not publish a half-trained candidate.
		return nil, trained.Interrupted(ckptPath, cfg.CheckpointKeep)
	}
	cfg.Metrics.Counter(MetricRetrains).Inc()
	cfg.Metrics.Counter(MetricRetrainSteps).Add(int64(remaining))
	return &core.Model{Policy: trained.Policy, Mask: cfg.Mask, GR: pool.GR}, nil
}

// ReplayShadow replays the ingester's retained live windows through a
// candidate's shadow evaluator, reproducing offline exactly what the
// serving plane's live mirroring would have measured: per-regime action
// divergence between the candidate and the decisions the incumbent
// actually served. Each window replays under a synthetic session id so
// id reuse across serving restarts cannot splice two flows' recurrent
// state together.
func (in *Ingester) ReplayShadow(sh *promote.Shadow) {
	for i, e := range in.retained() {
		sid := uint64(i + 1)
		sh.TagSession(sid, e.Regime)
		fb := make(map[int]bool, len(e.Fallback))
		for _, ix := range e.Fallback {
			fb[ix] = true
		}
		for j, st := range e.Steps {
			sh.Observe(sid, st.State, st.Action, fb[j])
		}
	}
}
