// Package sentinel is the training-time counterpart of internal/guard: a
// divergence watchdog around the offline CRR learner. The guardian
// protects the serving path from a policy that has already gone bad; the
// sentinel stops the training path from producing one in the first place.
//
// It drives the learner step by step and inspects every TrainStats record
// before the optimizer is allowed to apply the batch:
//
//   - a batch whose loss or gradients are non-finite (NaN rewards from a
//     crashed collector worker, an overflowed activation) or whose
//     gradient norm explodes past a ceiling is rejected outright — the
//     gradients are discarded and the weights never see them;
//   - a finite critic loss spiking past spikeFactor× its EMA is treated
//     the same way (the early signature of divergence CRR shares with the
//     Aurora-style trainers);
//   - a periodic parameter sweep catches corruption that slipped past the
//     batch gate (bit flips, a poisoned hot-swap): the sentinel rolls the
//     learner back to the last good checkpoint (bitwise-exact resume,
//     including RNG streams and Adam moments), halves the learning rate
//     under a cooldown, and deterministically skips the offending batch;
//   - after maxRollbacks consecutive rollbacks — or maxSkipStreak
//     consecutive rejected batches — training aborts with a diagnostic
//     bundle (trip log, recent stats window, offending batch ids, and a
//     parameter histogram) instead of burning hours on a doomed run.
//
// Every decision is recorded through internal/telemetry: sentinel.*
// counters in an optional Registry plus an in-memory event log
// exportable as JSONL.
package sentinel

import (
	"context"
	"fmt"
	"math"

	"sage/internal/rl"
	"sage/internal/telemetry"
)

// The divergence thresholds. No caller has ever needed another value, so
// they are constants rather than Config fields.
const (
	// spikeFactor k: a finite critic loss above k× its EMA counts as a
	// divergence spike and the batch is skipped (generous, because
	// per-batch CRR losses are noisy).
	spikeFactor = 25.0
	// emaDecay is the critic-loss EMA decay.
	emaDecay = 0.99
	// warmup is how many applied steps the EMA must see before spike
	// detection arms.
	warmup = 50
	// gradCeil is the absolute pre-clip gradient-norm ceiling; a finite
	// norm above it is treated as an explosion and the batch is skipped.
	gradCeil = 1e4
	// maxRollbacks is how many consecutive rollbacks (with no clean
	// cooldown between them) the sentinel tolerates before aborting with
	// a diagnostic bundle.
	maxRollbacks = 4
	// lrBackoff is the learning-rate multiplier applied on every rollback,
	// floored at lrFloor× the configured rate. After cooldownSteps clean
	// applied steps the rate recovers one backoff notch at a time.
	lrBackoff = 0.5
	lrFloor   = 1.0 / 64
	// statsWindow is how many recent TrainStats the diagnostic bundle
	// retains.
	statsWindow = 64
	// diagSuffix names the abort bundle, written next to the checkpoint.
	diagSuffix = ".diag.json"
	// paramSweepEvery is the period, in applied steps, of the non-finite
	// parameter sweep.
	paramSweepEvery = 25
	// maxSkipStreak is how many consecutive rejected batches the sentinel
	// tolerates before concluding the pool itself is garbage.
	maxSkipStreak = 64
	// cooldownSteps is how many consecutive clean applied steps reset the
	// rollback streak and recover one LR notch.
	cooldownSteps = 200
)

// Config tunes the sentinel. The zero value of every field except
// CheckpointPath (required) is a conservative default.
type Config struct {
	// CheckpointPath anchors rollback: the sentinel saves rotating known-
	// good checkpoints there every CheckpointEvery applied steps (default
	// 500), keeping CheckpointKeep rotations (default 2). Required.
	CheckpointPath  string
	CheckpointEvery int
	CheckpointKeep  int

	// Metrics, when non-nil, receives the sentinel.* counters. Nil costs
	// nothing (telemetry counters are nil-safe).
	Metrics *telemetry.Registry
}

func (c Config) fill() Config {
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 500
	}
	if c.CheckpointKeep == 0 {
		c.CheckpointKeep = 2
	}
	return c
}

// Trip/skip reasons and metric names.
const (
	ReasonNonFiniteLoss   = "non-finite loss"
	ReasonNonFiniteGrad   = "non-finite gradient"
	ReasonGradExplosion   = "gradient explosion"
	ReasonLossSpike       = "loss spike"
	ReasonNonFiniteParams = "non-finite parameters"

	KindSkip       = "skip"
	KindRollback   = "rollback"
	KindLRBackoff  = "lr_backoff"
	KindLRRecover  = "lr_recover"
	KindCheckpoint = "checkpoint"
	KindAbort      = "abort"

	MetricTrips           = "sentinel.trips"
	MetricSkips           = "sentinel.batch_skips"
	MetricRollbacks       = "sentinel.rollbacks"
	MetricLRBackoffs      = "sentinel.lr_backoffs"
	MetricLRRecoveries    = "sentinel.lr_recoveries"
	MetricNonFiniteLoss   = "sentinel.nonfinite_loss"
	MetricNonFiniteGrad   = "sentinel.nonfinite_grad"
	MetricLossSpikes      = "sentinel.loss_spikes"
	MetricGradExplosions  = "sentinel.grad_explosions"
	MetricNonFiniteParams = "sentinel.nonfinite_params"
	MetricCheckpoints     = "sentinel.checkpoints"
	MetricAborts          = "sentinel.aborts"
)

// Event is one sentinel decision, in JSONL-friendly form.
type Event struct {
	Step       int     `json:"step"`
	Kind       string  `json:"event"`                 // skip | rollback | lr_backoff | lr_recover | checkpoint | abort
	Reason     string  `json:"reason,omitempty"`      // what tripped ("" for checkpoints/recoveries)
	BatchID    uint64  `json:"batch_id,omitempty"`    // sampler position of the offending batch
	CriticLoss float64 `json:"critic_loss,omitempty"` // loss that tripped (skip events)
	LossEMA    float64 `json:"loss_ema,omitempty"`
	LRScale    float64 `json:"lr_scale,omitempty"`  // LR multiplier in effect after the event
	FromStep   int     `json:"from_step,omitempty"` // rollback: step rolled back from
	ToStep     int     `json:"to_step,omitempty"`   // rollback: checkpoint step resumed at
}

// Sentinel owns the divergence state machine for one training run. Not
// safe for concurrent use; one instance per Run.
type Sentinel struct {
	cfg Config

	learner *rl.CRR
	basePi  float64
	baseQ   float64
	lrScale float64

	ema     float64
	emaN    int // applied steps folded into the EMA
	pending string

	skipStreak     int
	rollbackStreak int
	cleanStreak    int

	trips     int
	skips     int
	rollbacks int

	events   []Event
	statsWin []rl.TrainStats
	offend   []uint64
}

// New builds a sentinel for one training run.
func New(cfg Config) *Sentinel {
	return &Sentinel{cfg: cfg.fill(), lrScale: 1}
}

// Train is a whole guarded run: a fresh sentinel built from cfg drives the
// remaining steps of learner (see Run), then appends its decision log to
// events (nil = none). The sentinel comes back for its trip counters.
func Train(ctx context.Context, learner *rl.CRR, ds *rl.Dataset, cfg Config, events *telemetry.JSONL, progress func(step int, criticLoss, policyLoss float64)) (*rl.CRR, *Sentinel, error) {
	s := New(cfg)
	trained, err := s.Run(ctx, learner, ds, progress)
	// A failed write is sticky in the emitter: it surfaces when the owner
	// closes it, and must not cost the caller its trained learner here.
	_ = s.EmitEvents(events)
	return trained, s, err
}

// Run drives learner.Cfg.Steps gradient steps under guard and returns the
// learner that finished them — not necessarily the one passed in, because
// a rollback reconstructs the learner from the last good checkpoint (the
// OnStep hook and learning-rate scale are carried over). progress
// (optional) receives a run-local step counter with each applied or
// skipped step; after a rollback the replayed steps are reported again.
// Cancelling ctx returns the current learner cleanly (nil error) so the
// caller's checkpoint-and-exit path works unchanged.
func (s *Sentinel) Run(ctx context.Context, learner *rl.CRR, ds *rl.Dataset, progress func(step int, criticLoss, policyLoss float64)) (*rl.CRR, error) {
	if s.cfg.CheckpointPath == "" {
		return learner, fmt.Errorf("sentinel: Config.CheckpointPath is required (rollback anchor)")
	}
	if err := ds.CheckSeqLen(learner.Cfg.SeqLen); err != nil {
		return learner, fmt.Errorf("sentinel: %w", err)
	}
	s.learner = learner
	s.basePi, s.baseQ = learner.LearningRates()
	target := learner.StepsDone() + learner.Cfg.Steps

	// Anchor: a rollback must always have somewhere to land, including on
	// the very first step.
	if err := s.checkpoint(); err != nil {
		return learner, err
	}

	s.learner.GradGate = s.gate
	defer func() { s.learner.GradGate = nil }()

	local := 0
	for s.learner.StepsDone() < target {
		if ctx != nil && ctx.Err() != nil {
			return s.learner, nil
		}
		s.pending = ""
		st := s.learner.TrainStep(ds)
		local++
		if progress != nil {
			progress(local, st.CriticLoss, st.PolicyLoss)
		}

		if st.Skipped {
			s.skips++
			s.skipStreak++
			s.cleanStreak = 0
			if s.skipStreak >= maxSkipStreak {
				return s.learner, s.abort(fmt.Sprintf(
					"%d consecutive batches rejected (%s last) — the pool itself looks poisoned; run the data-quality gate (sage-train -sanitize)",
					s.skipStreak, s.pending))
			}
			continue
		}

		// Applied step: fold the loss into the EMA, sweep parameters.
		s.foldEMA(st.CriticLoss)
		due := s.learner.StepsDone()%paramSweepEvery == 0
		if due && !s.learner.ParamsFinite() {
			s.cfg.Metrics.Counter(MetricNonFiniteParams).Inc()
			if err := s.rollback(ds, ReasonNonFiniteParams, st); err != nil {
				return s.learner, err
			}
			continue
		}

		s.skipStreak = 0
		s.cleanStreak++
		if s.cleanStreak >= cooldownSteps {
			s.rollbackStreak = 0
			if s.lrScale < 1 {
				s.recoverLR(st.Step)
				s.cleanStreak = 0
			}
		}
		if s.learner.StepsDone()%s.cfg.CheckpointEvery == 0 {
			if err := s.checkpoint(); err != nil {
				return s.learner, err
			}
		}
	}
	return s.learner, nil
}

// gate is the CRR.GradGate hook: it sees every batch's stats before the
// optimizer and decides whether the batch may apply.
func (s *Sentinel) gate(st rl.TrainStats) bool {
	reason := ""
	switch {
	case !finite(st.CriticLoss) || !finite(st.PolicyLoss):
		reason = ReasonNonFiniteLoss
		s.cfg.Metrics.Counter(MetricNonFiniteLoss).Inc()
	case !finite(st.GradNormPi) || !finite(st.GradNormQ):
		reason = ReasonNonFiniteGrad
		s.cfg.Metrics.Counter(MetricNonFiniteGrad).Inc()
	case st.GradNormPi > gradCeil || st.GradNormQ > gradCeil:
		reason = ReasonGradExplosion
		s.cfg.Metrics.Counter(MetricGradExplosions).Inc()
	case s.emaN >= warmup && s.ema > 1e-12 && st.CriticLoss > spikeFactor*s.ema:
		reason = ReasonLossSpike
		s.cfg.Metrics.Counter(MetricLossSpikes).Inc()
	}
	s.record(st)
	if reason == "" {
		return true
	}
	s.pending = reason
	s.trips++
	s.cfg.Metrics.Counter(MetricTrips).Inc()
	s.cfg.Metrics.Counter(MetricSkips).Inc()
	s.offend = append(s.offend, st.BatchID)
	s.event(Event{
		Step: st.Step, Kind: KindSkip, Reason: reason, BatchID: st.BatchID,
		CriticLoss: st.CriticLoss, LossEMA: s.ema, LRScale: s.lrScale,
	})
	return false
}

// rollback reconstructs the learner from the last good checkpoint, halves
// the learning rate, and deterministically skips the batch that tripped.
func (s *Sentinel) rollback(ds *rl.Dataset, reason string, st rl.TrainStats) error {
	s.trips++
	s.rollbacks++
	s.rollbackStreak++
	s.cleanStreak = 0
	s.cfg.Metrics.Counter(MetricTrips).Inc()
	s.cfg.Metrics.Counter(MetricRollbacks).Inc()
	s.offend = append(s.offend, st.BatchID)

	fromStep := s.learner.StepsDone()
	if s.rollbackStreak > maxRollbacks {
		return s.abort(fmt.Sprintf("%d consecutive rollbacks (%s at step %d)",
			s.rollbackStreak, reason, fromStep))
	}
	restored, steps, _, err := rl.LoadCheckpointAuto(s.cfg.CheckpointPath, ds)
	if err != nil {
		s.event(Event{Step: fromStep, Kind: KindRollback, Reason: reason, LRScale: s.lrScale})
		return s.abort(fmt.Sprintf("rollback from step %d failed: %v", fromStep, err))
	}
	restored.OnStep = s.learner.OnStep
	restored.Cfg.Steps = s.learner.Cfg.Steps
	restored.GradGate = s.gate
	s.learner = restored

	s.backoffLR(fromStep)
	s.learner.SkipBatch()
	s.event(Event{
		Step: fromStep, Kind: KindRollback, Reason: reason, BatchID: st.BatchID,
		LRScale: s.lrScale, FromStep: fromStep, ToStep: steps,
	})
	return nil
}

func (s *Sentinel) backoffLR(step int) {
	next := s.lrScale * lrBackoff
	if next < lrFloor {
		next = lrFloor
	}
	if next != s.lrScale {
		s.lrScale = next
		s.cfg.Metrics.Counter(MetricLRBackoffs).Inc()
		s.event(Event{Step: step, Kind: KindLRBackoff, LRScale: s.lrScale})
	}
	s.learner.SetLearningRates(s.basePi*s.lrScale, s.baseQ*s.lrScale)
}

func (s *Sentinel) recoverLR(step int) {
	s.lrScale /= lrBackoff
	if s.lrScale > 1 {
		s.lrScale = 1
	}
	s.learner.SetLearningRates(s.basePi*s.lrScale, s.baseQ*s.lrScale)
	s.cfg.Metrics.Counter(MetricLRRecoveries).Inc()
	s.event(Event{Step: step, Kind: KindLRRecover, LRScale: s.lrScale})
}

// checkpoint saves a known-good rollback anchor. The parameter sweep runs
// first: checkpointing corrupt weights would poison the anchor the whole
// mechanism depends on.
func (s *Sentinel) checkpoint() error {
	if !s.learner.ParamsFinite() {
		return s.abort(fmt.Sprintf("refusing to checkpoint non-finite weights at step %d", s.learner.StepsDone()))
	}
	if err := s.learner.SaveCheckpointRotate(s.cfg.CheckpointPath, s.learner.StepsDone(), s.cfg.CheckpointKeep); err != nil {
		return fmt.Errorf("sentinel: %w", err)
	}
	s.cfg.Metrics.Counter(MetricCheckpoints).Inc()
	s.event(Event{Step: s.learner.StepsDone(), Kind: KindCheckpoint, LRScale: s.lrScale})
	return nil
}

func (s *Sentinel) foldEMA(loss float64) {
	if !finite(loss) {
		return
	}
	if s.emaN == 0 {
		s.ema = loss
	} else {
		// 1-d in float64, as when the decay was a field: the constant
		// expression 1-emaDecay would round differently.
		d := float64(emaDecay)
		s.ema = d*s.ema + (1-d)*loss
	}
	s.emaN++
}

func (s *Sentinel) record(st rl.TrainStats) {
	s.statsWin = append(s.statsWin, st)
	if n := len(s.statsWin) - statsWindow; n > 0 {
		s.statsWin = append(s.statsWin[:0], s.statsWin[n:]...)
	}
}

// event appends to the decision log, clamping non-finite floats to zero
// (JSON cannot carry NaN/Inf; the Reason field already names the trip).
func (s *Sentinel) event(e Event) {
	if !finite(e.CriticLoss) {
		e.CriticLoss = 0
	}
	if !finite(e.LossEMA) {
		e.LossEMA = 0
	}
	s.events = append(s.events, e)
}

// Trips returns how many batches the sentinel flagged (skips + rollbacks).
func (s *Sentinel) Trips() int { return s.trips }

// Skips returns how many batches were rejected without a rollback.
func (s *Sentinel) Skips() int { return s.skips }

// Rollbacks returns how many checkpoint rollbacks were performed.
func (s *Sentinel) Rollbacks() int { return s.rollbacks }

// LRScale returns the learning-rate multiplier currently in effect.
func (s *Sentinel) LRScale() float64 { return s.lrScale }

// Events returns a copy of the decision log.
func (s *Sentinel) Events() []Event {
	return append([]Event(nil), s.events...)
}

// EmitEvents writes every sentinel event to the JSONL emitter (one line
// per event, the telemetry wire format).
func (s *Sentinel) EmitEvents(j *telemetry.JSONL) error {
	for _, e := range s.events {
		if err := j.Emit(e); err != nil {
			return err
		}
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
