// Command sage-loop closes the continual-learning loop: it tails the
// trace spool a sage-serve daemon writes (-trace-spool), gates and admits
// live decision windows into a regime-balanced experience pool, retrains
// the incumbent incrementally when enough fresh experience accumulates,
// publishes the candidate into the model registry, and runs the shadow
// replay + dominance gate that decides promotion. A promoted candidate
// becomes the incumbent sage-serve hot-swaps to on its next SIGHUP — the
// full serve → spool → gate → retrain → publish → shadow → promote →
// hot-swap cycle with no human in it.
//
// Usage:
//
//	sage-loop -spool /var/lib/sage/spool -state /var/lib/sage/loop \
//	          -registry /var/lib/sage/registry -pool offline.gob.gz
//	sage-loop ... -once            # one poll/round step, then exit
//	sage-loop ... -interval 30s    # daemon mode polling cadence
//
// Every stage journals its progress before the next starts: SIGKILL at
// any point and a restarted sage-loop resumes the open round at the first
// uncommitted stage, with no trajectory lost, duplicated, or counted
// twice (spooled == admitted + quarantined + skipped always balances).
// Retraining is deterministic per round, so even a kill between "model
// published" and "journal written" converges to the same fingerprint and
// the duplicate publish is recognized as already done.
//
// Exit codes: the repo-wide table (README "Exit codes"). A journal, spool
// segment, pool file or registry model corrupt beyond the torn-tail repair
// is exit 3; 137 is the crash-injection exit (SAGE_LOOP_KILL_STAGE, test
// harness only).
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"sage/internal/cli"
	"sage/internal/collector"
	"sage/internal/feedback"
	"sage/internal/gr"
	"sage/internal/promote"
	"sage/internal/rl"
	"sage/internal/safeio"
	"sage/internal/sim"
	"sage/internal/telemetry"
)

// A failure in any journal, spool segment, pool file or registry model that
// is past the torn-tail repair is an integrity failure (exit 3): restarting
// cannot repair it.
func main() {
	cli.Main(func(ctx context.Context, f *cli.Flags) error {
		return cli.Integrity(run(ctx, f),
			safeio.ErrLogCorrupt, safeio.ErrCorrupt, safeio.ErrTruncated, promote.ErrNoIncumbent)
	})
}

func run(ctx context.Context, f *cli.Flags) error {
	var (
		spoolDir    = f.String("spool", "", "trace spool dir written by sage-serve -trace-spool (required)")
		stateDir    = f.String("state", "", "loop state dir: ingest + loop journals, round artifacts (required)")
		registryDir = f.String("registry", "", "model registry dir shared with sage-serve (required)")
		poolPath    = f.String("pool", "", "offline experience pool mixed into every round (empty = train on live experience alone)")
		mix         = f.Float64("mix", 0.5, "live fraction of each round's training mix")

		quota       = f.Int("quota", 64, "admitted windows retained per traffic regime")
		minAdmitted = f.Int("min-admitted", 8, "fresh admitted windows that trigger a retraining round")
		minRegimes  = f.Int("min-regimes", 1, "distinct regimes required in the pool before a round starts")
		maxFallback = f.Float64("max-fallback", 0.5, "skip windows whose fallback-decision share exceeds this")

		tr        = f.Train("", "checkpoint", "log-every")
		warmStart = f.Bool("warm-start", true, "seed each round's learner from the incumbent's weights")

		gateLevel = f.Level("gate-level", "promotion gate replay suite: tiny|small|full")
		gateDur   = f.Duration("gate-duration", 10*time.Second, "per-scenario gate rollout duration (simulated time)")
		gateSeed  = f.Int64("gate-seed", 1, "gate replay seed")
		maxDiv    = f.Float64("max-shadow-div", 1.0, "reject candidates whose mean live action divergence exceeds this")

		interval = f.Duration("interval", 10*time.Second, "daemon polling cadence")
		once     = f.Bool("once", false, "run a single step (poll + at most one round) and exit")
		events   = f.Sink("events", "append loop events (rounds/publishes/verdicts) to this JSONL file")
	)
	f.Respell("steps", "CRR gradient steps per round", "")
	f.Respell("seed", "seed (drives the round mix and training determinism)", "")
	f.Respell("checkpoint-every", "round checkpoint period in steps", "500")
	f.Respell("checkpoint-keep", "previous checkpoint generations kept", "2")
	f.Pprof("serve pprof + /debug/vars on this addr")
	if err := f.Parse(); err != nil {
		return err
	}
	if *spoolDir == "" || *stateDir == "" || *registryDir == "" {
		return cli.Exitf(cli.ExitUsage, "sage-loop: -spool, -state, and -registry are all required")
	}
	if err := f.Open(); err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	reg.PublishExpvar("sage-loop")

	grc := gr.Config{}.Fill()
	var offline *collector.Pool
	if *poolPath != "" {
		p, err := collector.Load(*poolPath)
		if err != nil {
			return fmt.Errorf("sage-loop: %w", err)
		}
		offline = p
		grc = p.GR
		fmt.Fprintf(os.Stderr, "sage-loop: offline ballast: %d trajectories\n", len(p.Trajs))
	}

	cfg := feedback.LoopConfig{
		SpoolDir:        *spoolDir,
		StateDir:        *stateDir,
		RegistryDir:     *registryDir,
		Offline:         offline,
		LiveFrac:        *mix,
		Mask:            tr.Mask,
		GR:              grc,
		QuotaPerRegime:  *quota,
		MaxFallbackFrac: *maxFallback,
		MinAdmitted:     *minAdmitted,
		MinRegimes:      *minRegimes,
		CRR:             rl.CRRConfig{Policy: tr.Policy(), Steps: tr.Steps, Seed: tr.Seed},
		WarmStart:       *warmStart,
		CheckpointEvery: tr.CheckpointEvery,
		CheckpointKeep:  tr.CheckpointKeep,
		Gate: promote.GateConfig{
			Level:               *gateLevel,
			Duration:            sim.FromSeconds(gateDur.Seconds()),
			Seed:                *gateSeed,
			MaxShadowDivergence: *maxDiv,
		},
		Metrics: reg,
		Events:  events.JSONL,
		Kill:    killSeam(),
	}

	lp, err := feedback.OpenLoop(cfg)
	if err != nil {
		return fmt.Errorf("sage-loop: %w", err)
	}
	defer lp.Close()
	fmt.Fprintf(os.Stderr, "sage-loop: rounds train critic naf hidden=%d\n", cfg.CRR.NAF.Fill().Hidden)
	if n, open := lp.Round(); open {
		fmt.Fprintf(os.Stderr, "sage-loop: resuming open round %d\n", n)
	}

	if *once {
		verdict, err := lp.Step(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return cli.Exitf(cli.ExitSignal, "sage-loop: interrupted; round state journaled for resume")
			}
			return fmt.Errorf("sage-loop: %w", err)
		}
		c := lp.Ingester().Counts()
		fmt.Fprintf(os.Stderr, "sage-loop: ingested %d (admitted %d, quarantined %d, skipped %d), verdict=%v\n",
			c.Ingested, c.Admitted, c.Quarantined, c.Skipped, verdict)
		return nil
	}

	fmt.Fprintf(os.Stderr, "sage-loop: watching %s every %s\n", *spoolDir, *interval)
	err = lp.Run(ctx, *interval)
	if errors.Is(err, context.Canceled) {
		return cli.Exitf(cli.ExitSignal, "sage-loop: stopping\n%s", reg)
	}
	if err != nil {
		return fmt.Errorf("sage-loop: %w", err)
	}
	return nil
}

// killSeam wires SAGE_LOOP_KILL_STAGE: when set, the loop exits 137
// (SIGKILL's code) immediately after that stage's durable record commits.
// Every journal append is fsynced before the stage boundary, so os.Exit
// here is indistinguishable from a real kill -9 landing at the boundary —
// which is exactly what the integration tests exercise.
func killSeam() func(string) {
	target := os.Getenv("SAGE_LOOP_KILL_STAGE")
	if target == "" {
		return nil
	}
	return func(stage string) {
		if stage == target {
			fmt.Fprintf(os.Stderr, "sage-loop: SAGE_LOOP_KILL_STAGE=%s hit, dying\n", stage)
			os.Exit(137)
		}
	}
}
