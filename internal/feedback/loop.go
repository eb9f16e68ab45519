package feedback

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"sage/internal/collector"
	"sage/internal/core"
	"sage/internal/gr"
	"sage/internal/promote"
	"sage/internal/rl"
	"sage/internal/safeio"
	"sage/internal/telemetry"
)

// Loop metric names.
const (
	MetricRounds    = "feedback.rounds"
	MetricPublished = "feedback.published"
	MetricPromoted  = "feedback.promoted"
	MetricRejected  = "feedback.rejected"
)

// Stage boundaries, in order. The Kill hook fires just after each
// boundary's durable record lands, which is exactly where a SIGKILL is
// most interesting: the stage is committed but nothing after it ran.
const (
	StagePoll      = "poll"      // ingestion journaled up to the spool tail
	StageRound     = "round"     // round pool frozen + round journaled
	StageTrained   = "trained"   // retraining finished (checkpoint chain final)
	StagePublished = "published" // candidate in the registry + journaled
	StageVerdict   = "verdict"   // gate decision applied + journaled
)

const loopJournalName = "loop.journal"

// LoopConfig wires the full closed loop.
type LoopConfig struct {
	SpoolDir    string // serving plane's trace spool (tailed read-only)
	StateDir    string // ingest + loop journals, round artifacts
	RegistryDir string // the promote registry serve watches

	// Offline is the offline experience pool mixed into every round (nil =
	// train on live experience alone).
	Offline  *collector.Pool
	LiveFrac float64 // live fraction of the round mix (default 0.5)

	Mask []int
	GR   gr.Config

	QuotaPerRegime  int
	MaxFallbackFrac float64

	// MinAdmitted is how many newly admitted windows (since the last round
	// started) trigger a retraining round (default 8); MinRegimes
	// additionally requires that many distinct regimes retained in the
	// pool (default 1).
	MinAdmitted int
	MinRegimes  int

	CRR             rl.CRRConfig // CRR.Steps = gradient steps per round
	WarmStart       bool         // seed each round from the incumbent's weights
	CheckpointEvery int
	CheckpointKeep  int

	Gate promote.GateConfig // Shadow is filled per round from live replay

	Metrics *telemetry.Registry
	Events  *telemetry.JSONL

	// Kill, when non-nil, is called at every stage boundary with the stage
	// just committed — the crash-injection seam the kill tests use to die
	// (os.Exit) at exact boundaries. Production leaves it nil.
	Kill func(stage string)
}

func (c LoopConfig) fill() LoopConfig {
	if c.MinAdmitted <= 0 {
		c.MinAdmitted = 8
	}
	if c.MinRegimes <= 0 {
		c.MinRegimes = 1
	}
	if c.LiveFrac <= 0 {
		c.LiveFrac = 0.5
	}
	return c
}

// loopRecord is one line of the loop journal.
type loopRecord struct {
	T        string `json:"t"` // "round" | "published" | "verdict"
	N        int    `json:"n"`
	Admitted int    `json:"admitted,omitempty"` // at round start ("round")
	ID       string `json:"id,omitempty"`
	Promote  bool   `json:"promote,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

// Loop drives serve → spool → ingest → retrain → publish → gate. All
// progress is journaled; a Loop reopened after SIGKILL resumes the open
// round at the first uncommitted stage, and every stage is idempotent
// under replay (deterministic retraining ⇒ identical fingerprint ⇒ the
// registry's duplicate-publish and not-a-candidate errors read as
// "already done").
type Loop struct {
	cfg     LoopConfig
	in      *Ingester
	reg     *promote.Registry
	journal *safeio.Journal[loopRecord]

	round     int    // latest round started (0 = none)
	roundOpen bool   // latest round lacks a verdict
	published string // candidate id if the open round has published
	mark      int    // Counts().Admitted when the latest round started
}

// OpenLoop opens every journal and positions the loop at its resume point.
func OpenLoop(cfg LoopConfig) (*Loop, error) {
	cfg = cfg.fill()
	reg, err := promote.OpenRegistry(cfg.RegistryDir)
	if err != nil {
		return nil, err
	}
	in, err := OpenIngester(IngestConfig{
		SpoolDir:        cfg.SpoolDir,
		StateDir:        cfg.StateDir,
		GR:              cfg.GR,
		QuotaPerRegime:  cfg.QuotaPerRegime,
		MaxFallbackFrac: cfg.MaxFallbackFrac,
		Metrics:         cfg.Metrics,
	})
	if err != nil {
		reg.Close()
		return nil, err
	}
	lp := &Loop{cfg: cfg, in: in, reg: reg}
	jr, err := safeio.OpenJournal(filepath.Join(cfg.StateDir, loopJournalName), lp.apply)
	if err != nil {
		in.Close()
		reg.Close()
		return nil, err
	}
	lp.journal = jr
	if !lp.roundOpen && lp.round > 0 {
		CleanupRound(lp.cfg.StateDir, lp.round) // crash between verdict and cleanup
	}
	return lp, nil
}

// Close releases the loop's journals and its registry handle.
func (l *Loop) Close() error {
	return errors.Join(l.journal.Close(), l.in.Close(), l.reg.Close())
}

// apply folds one loop journal record into the resume point.
func (l *Loop) apply(r loopRecord) {
	switch r.T {
	case "round":
		l.round, l.roundOpen, l.published, l.mark = r.N, true, "", r.Admitted
	case "published":
		if r.N == l.round {
			l.published = r.ID
		}
	case "verdict":
		if r.N == l.round {
			l.roundOpen = false
		}
	}
}

// commit journals r and, once it is durable, folds it.
func (l *Loop) commit(r loopRecord) error {
	if err := l.journal.Append(r); err != nil {
		return err
	}
	l.apply(r)
	return nil
}

// Ingester exposes the loop's ingester (accounting, pool inspection).
func (l *Loop) Ingester() *Ingester { return l.in }

// Round reports the latest round number and whether it is still open.
func (l *Loop) Round() (int, bool) { return l.round, l.roundOpen }

func (l *Loop) kill(stage string) {
	if l.cfg.Kill != nil {
		l.cfg.Kill(stage)
	}
}

// Step runs one iteration: ingest whatever the spool grew, then start or
// resume a retraining round if warranted. Returns whether a round reached
// its verdict this step.
func (l *Loop) Step(ctx context.Context) (verdict bool, err error) {
	if _, err := l.in.Poll(); err != nil {
		return false, err
	}
	l.kill(StagePoll)

	if !l.roundOpen {
		c := l.in.Counts()
		regimes := 0
		for _, n := range l.in.PoolByRegime() {
			if n > 0 {
				regimes++
			}
		}
		if c.Admitted-l.mark < l.cfg.MinAdmitted || regimes < l.cfg.MinRegimes {
			return false, nil
		}
		if started, err := l.startRound(c.Admitted); err != nil || !started {
			return false, err
		}
	}
	return true, l.runRound(ctx)
}

// startRound freezes the training mix on disk, then journals the round —
// in that order, so a resumed round always finds its pool. A mix the
// learner cannot sample yet (only trace windows shorter than one training
// sequence) is not enough data: no round starts, and the next poll asks
// again.
func (l *Loop) startRound(admitted int) (bool, error) {
	n := l.round + 1
	pool := MixPools(l.cfg.Offline, l.in.LivePool(), l.cfg.LiveFrac, l.cfg.CRR.Seed+int64(n))
	if err := rl.BuildDataset(pool, l.cfg.Mask).CheckSeqLen(l.cfg.CRR.Fill().SeqLen); err != nil {
		l.cfg.Events.Emit(map[string]any{"event": "feedback_round_deferred", "admitted": admitted, "reason": err.Error()})
		return false, nil
	}
	if err := pool.Save(roundPoolPath(l.cfg.StateDir, n)); err != nil {
		return false, err
	}
	if err := l.commit(loopRecord{T: "round", N: n, Admitted: admitted}); err != nil {
		return false, err
	}
	l.cfg.Metrics.Counter(MetricRounds).Inc()
	l.cfg.Events.Emit(map[string]any{"event": "feedback_round", "round": n, "admitted": admitted})
	l.kill(StageRound)
	return true, nil
}

// runRound drives the open round to its verdict: retrain (resumable via
// the round checkpoint), publish (idempotent via the deterministic
// fingerprint id), gate + registry transition (idempotent via the state
// machine), journal, cleanup.
func (l *Loop) runRound(ctx context.Context) error {
	var cand *core.Model
	id := l.published
	if id == "" {
		incumbent, _, incErr := l.reg.LoadIncumbent()
		if incErr != nil && !errors.Is(incErr, promote.ErrNoIncumbent) {
			return incErr
		}
		model, err := RetrainRound(ctx, RetrainConfig{
			WorkDir:         l.cfg.StateDir,
			Round:           l.round,
			Offline:         nil, // the round pool file already holds the mix
			Live:            l.in.LivePool(),
			LiveFrac:        l.cfg.LiveFrac,
			Mask:            l.cfg.Mask,
			CRR:             l.cfg.CRR,
			Incumbent:       incumbent,
			WarmStart:       l.cfg.WarmStart,
			CheckpointEvery: l.cfg.CheckpointEvery,
			CheckpointKeep:  l.cfg.CheckpointKeep,
			Metrics:         l.cfg.Metrics,
			Events:          l.cfg.Events,
		})
		if err != nil {
			return err
		}
		l.kill(StageTrained)
		cand = model

		fp := promote.Fingerprint(model)
		id = fmt.Sprintf("sage-loop-%s", fp[:10])
		_, err = l.reg.Publish(model, promote.Meta{ID: id, Provenance: "sage-loop", TrainStep: l.cfg.CRR.Steps})
		if err != nil && !strings.Contains(err.Error(), "already published") {
			return err
		}
		if err := l.commit(loopRecord{T: "published", N: l.round, ID: id}); err != nil {
			return err
		}
		l.cfg.Metrics.Counter(MetricPublished).Inc()
		l.cfg.Events.Emit(map[string]any{"event": "feedback_published", "round": l.round, "id": id})
		l.kill(StagePublished)
	}
	if cand == nil {
		m, err := l.reg.Load(id)
		if err != nil {
			return err
		}
		cand = m
	}
	return l.decide(cand, id)
}

// decide runs the shadow replay + dominance gate and applies the verdict.
func (l *Loop) decide(cand *core.Model, id string) error {
	inc, _, err := l.reg.LoadIncumbent()
	if errors.Is(err, promote.ErrNoIncumbent) {
		// Empty registry: there is nothing to dominate, and serving needs
		// *some* incumbent. First candidate wins by default.
		return l.finishVerdict(id, true, "first candidate: no incumbent to compare against")
	}
	if err != nil {
		return err
	}
	sh := promote.NewShadow(cand, promote.ShadowConfig{Metrics: l.cfg.Metrics})
	l.in.ReplayShadow(sh)
	stats := sh.Stats()
	g := l.cfg.Gate
	g.Shadow = &stats
	g.Events = l.cfg.Events
	v := promote.RunGate(inc, cand, g)
	return l.finishVerdict(id, v.Promote, v.Reason)
}

// finishVerdict applies the gate decision to the registry (idempotently:
// a candidate already transitioned by a pre-crash run reads as done),
// journals the verdict, and retires the round's artifacts.
func (l *Loop) finishVerdict(id string, promoted bool, reason string) error {
	var err error
	if promoted {
		err = l.reg.Promote(id, reason)
	} else {
		err = l.reg.Reject(id, reason)
	}
	if err != nil && !strings.Contains(err.Error(), "not a candidate") {
		return err
	}
	if err := l.commit(loopRecord{T: "verdict", N: l.round, ID: id, Promote: promoted, Reason: reason}); err != nil {
		return err
	}
	if promoted {
		l.cfg.Metrics.Counter(MetricPromoted).Inc()
	} else {
		l.cfg.Metrics.Counter(MetricRejected).Inc()
	}
	l.cfg.Events.Emit(map[string]any{"event": "feedback_verdict", "round": l.round, "id": id, "promote": promoted, "reason": reason})
	l.kill(StageVerdict)
	CleanupRound(l.cfg.StateDir, l.round)
	return nil
}

// Run steps the loop every interval until ctx is done. Poll errors are
// returned (they mean the spool or a journal is corrupt — the daemon
// should die loudly, not spin).
func (l *Loop) Run(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		if _, err := l.Step(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}
