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
// Exit codes (the repo-wide daemon table):
//
//	0    clean exit (-once complete, or idle daemon stopped)
//	1    fatal runtime error
//	2    usage error
//	3    state integrity failure: a journal, spool segment, or registry
//	     model is corrupt beyond the torn-tail repair — operator
//	     intervention, not a restart, fixes this
//	130  signal-initiated graceful stop
//	137  crash-injection exit (SAGE_LOOP_KILL_STAGE, test harness only)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sage/internal/collector"
	"sage/internal/feedback"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/promote"
	"sage/internal/rl"
	"sage/internal/safeio"
	"sage/internal/sim"
	"sage/internal/telemetry"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		spoolDir    = flag.String("spool", "", "trace spool dir written by sage-serve -trace-spool (required)")
		stateDir    = flag.String("state", "", "loop state dir: ingest + loop journals, round artifacts (required)")
		registryDir = flag.String("registry", "", "model registry dir shared with sage-serve (required)")
		poolPath    = flag.String("pool", "", "offline experience pool mixed into every round (empty = train on live experience alone)")
		mix         = flag.Float64("mix", 0.5, "live fraction of each round's training mix")
		maskName    = flag.String("mask", "full", "input mask: "+gr.MaskNames)

		quota       = flag.Int("quota", 64, "admitted windows retained per traffic regime")
		minAdmitted = flag.Int("min-admitted", 8, "fresh admitted windows that trigger a retraining round")
		minRegimes  = flag.Int("min-regimes", 1, "distinct regimes required in the pool before a round starts")
		maxFallback = flag.Float64("max-fallback", 0.5, "skip windows whose fallback-decision share exceeds this")

		steps     = flag.Int("steps", 2000, "CRR gradient steps per round")
		enc       = flag.Int("enc", 32, "encoder width")
		gru       = flag.Int("gru", 16, "GRU width")
		kMix      = flag.Int("gmm", 3, "GMM components")
		seed      = flag.Int64("seed", 1, "seed (drives the round mix and training determinism)")
		warmStart = flag.Bool("warm-start", true, "seed each round's learner from the incumbent's weights")
		ckptEvery = flag.Int("checkpoint-every", 500, "round checkpoint period in steps")
		ckptKeep  = flag.Int("checkpoint-keep", 2, "previous checkpoint generations kept")

		gateLevel = flag.String("gate-level", "tiny", "promotion gate replay suite: tiny|small|full")
		gateDur   = flag.Duration("gate-duration", 10*time.Second, "per-scenario gate rollout duration (simulated time)")
		gateSeed  = flag.Int64("gate-seed", 1, "gate replay seed")
		maxDiv    = flag.Float64("max-shadow-div", 1.0, "reject candidates whose mean live action divergence exceeds this")

		interval   = flag.Duration("interval", 10*time.Second, "daemon polling cadence")
		once       = flag.Bool("once", false, "run a single step (poll + at most one round) and exit")
		eventsPath = flag.String("events", "", "append loop events (rounds/publishes/verdicts) to this JSONL file")
		pprofAddr  = flag.String("pprof", "", "serve pprof + /debug/vars on this addr")
	)
	flag.Parse()
	if *spoolDir == "" || *stateDir == "" || *registryDir == "" {
		fmt.Fprintln(os.Stderr, "sage-loop: -spool, -state, and -registry are all required")
		return 2
	}
	mask, err := gr.MaskByName(*maskName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sage-loop:", err)
		return 2
	}
	lvl, ok := map[string]netem.GridLevel{"tiny": netem.GridTiny, "small": netem.GridSmall, "full": netem.GridFull}[*gateLevel]
	if !ok {
		fmt.Fprintf(os.Stderr, "sage-loop: unknown -gate-level %q\n", *gateLevel)
		return 2
	}

	reg := telemetry.NewRegistry()
	reg.PublishExpvar("sage-loop")
	if *pprofAddr != "" {
		if _, err := telemetry.ServeDebug(*pprofAddr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	var events *telemetry.JSONL
	if *eventsPath != "" {
		j, err := telemetry.CreateJSONL(*eventsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer j.Close()
		events = j
	}

	grc := gr.Config{}.Fill()
	var offline *collector.Pool
	if *poolPath != "" {
		p, err := collector.Load(*poolPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sage-loop:", err)
			return stateExitCode(err)
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
		Mask:            mask,
		GR:              grc,
		QuotaPerRegime:  *quota,
		MaxFallbackFrac: *maxFallback,
		MinAdmitted:     *minAdmitted,
		MinRegimes:      *minRegimes,
		CRR: rl.CRRConfig{
			Policy: nn.PolicyConfig{Enc: *enc, Hidden: *gru, ResBlocks: 2, K: *kMix},
			Steps:  *steps,
			Seed:   *seed,
		},
		WarmStart:       *warmStart,
		CheckpointEvery: *ckptEvery,
		CheckpointKeep:  *ckptKeep,
		Gate: promote.GateConfig{
			Level:               lvl,
			Duration:            sim.FromSeconds(gateDur.Seconds()),
			Seed:                *gateSeed,
			MaxShadowDivergence: *maxDiv,
		},
		Metrics: reg,
		Events:  events,
		Kill:    killSeam(),
	}

	lp, err := feedback.OpenLoop(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sage-loop:", err)
		return stateExitCode(err)
	}
	defer lp.Close()
	fmt.Fprintf(os.Stderr, "sage-loop: rounds train critic naf hidden=%d\n", cfg.CRR.NAF.Fill().Hidden)
	if n, open := lp.Round(); open {
		fmt.Fprintf(os.Stderr, "sage-loop: resuming open round %d\n", n)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *once {
		verdict, err := lp.Step(ctx)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "sage-loop: interrupted; round state journaled for resume")
				return 130
			}
			fmt.Fprintln(os.Stderr, "sage-loop:", err)
			return stateExitCode(err)
		}
		c := lp.Ingester().Counts()
		fmt.Fprintf(os.Stderr, "sage-loop: ingested %d (admitted %d, quarantined %d, skipped %d), verdict=%v\n",
			c.Ingested, c.Admitted, c.Quarantined, c.Skipped, verdict)
		return 0
	}

	fmt.Fprintf(os.Stderr, "sage-loop: watching %s every %s\n", *spoolDir, *interval)
	err = lp.Run(ctx, *interval)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "sage-loop: stopping\n%s", reg)
		return 130
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sage-loop:", err)
		return stateExitCode(err)
	}
	return 0
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

// stateExitCode classifies failures per the exit-code table: integrity
// problems in any journal, spool segment, pool file, or registry model
// are exit 3 — restarting cannot repair them.
func stateExitCode(err error) int {
	switch {
	case errors.Is(err, safeio.ErrLogCorrupt),
		errors.Is(err, safeio.ErrCorrupt),
		errors.Is(err, safeio.ErrTruncated),
		errors.Is(err, promote.ErrNoIncumbent):
		return 3
	default:
		return 1
	}
}
