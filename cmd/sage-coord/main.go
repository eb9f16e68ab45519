// Command sage-coord is the distributed control plane: it shards a
// collection campaign across remote sage-collect agents, or drives
// data-parallel CRR training across sage-train workers, over one small
// RPC protocol (internal/dist).
//
// Usage:
//
//	sage-coord -listen :7070 -out pool.gob.gz -level small -seti-dur 10s
//	sage-coord -mode train -listen :7070 -pool pool.gob.gz -out sage.model \
//	    -train-workers 2 -steps 20000 -checkpoint train.ckpt
//
// Collection mode owns the campaign: agents connect, lease (scheme, env)
// cells under a heartbeat-renewed TTL, and ship back checksummed pool
// shards; dead or stalled agents are evicted and their cells reassigned.
// Shards persist through internal/safeio next to a manifest journal, so a
// killed coordinator rerun with -resume re-admits verified cells and the
// final pool is byte-identical to an uninterrupted single-process
// sage-collect run.
//
// Train mode holds the master learner: per step every worker pushes its
// gradient shard, the coordinator all-reduces them in worker order,
// steps the optimizer, and broadcasts fresh parameters. The result is
// bitwise-identical to in-process -workers N training, and checkpoints
// carry the remote sampler positions, so worker or coordinator restarts
// resume exactly.
//
// SIGINT/SIGTERM drain: collection leaves the manifest and shards for
// -resume; training checkpoints the current step. Both exit 130.
//
// The coordinator also journals lease grants, shard completions, and
// committed barrier steps to a write-ahead log (<out>.wal in collect
// mode, <checkpoint>.wal in train mode) so even a SIGKILL'd coordinator
// restarted with -resume re-adopts in-flight leases instead of
// re-collecting them. With -hedge-factor, cells leased far longer than
// the fleet's typical completion time are speculatively re-leased to
// idle agents; the first checksummed shard wins. With -chaos, a seeded
// fault-injecting transport wraps every agent connection (drops,
// duplicated and truncated frames, latency, partitions) for soak
// testing the recovery machinery; see the README's chaos section.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sage/internal/cc"
	"sage/internal/chaos"
	"sage/internal/collector"
	"sage/internal/core"
	"sage/internal/dist"
	"sage/internal/gr"
	"sage/internal/nn"
	"sage/internal/rl"
	"sage/internal/telemetry"
)

func main() {
	var (
		mode      = flag.String("mode", "collect", "service: collect|train")
		listen    = flag.String("listen", ":7070", "listen address (host:port or unix:/path)")
		leaseTTL  = flag.Duration("lease-ttl", 30*time.Second, "cell lease TTL; agents heartbeat at TTL/3")
		progress  = flag.Bool("progress", false, "print a live progress line")
		pprofAddr = flag.String("pprof", "", "serve pprof+expvar on this address (e.g. :6060)")
		chaosFlag = flag.String("chaos", "", "soak testing: inject seeded transport faults on every agent connection (key=value spec, e.g. seed=7,drop=0.02,dup=0.05,trunc=0.01,part-every=10s,part-for=1s)")
		hedge     = flag.Float64("hedge-factor", 0, "collect: speculatively re-lease a cell held longer than factor x the fleet's p75 completion time to an idle agent (0 disables; 3 is a sane start)")

		// Collection mode.
		out      = flag.String("out", "pool.gob.gz", "collect: output pool file")
		level    = flag.String("level", "tiny", "collect: grid density: tiny|small|full")
		setIDur  = flag.Duration("seti-dur", 10*time.Second, "collect: Set I scenario duration")
		setIIDur = flag.Duration("setii-dur", 30*time.Second, "collect: Set II scenario duration")
		schemes  = flag.String("schemes", "", "collect: comma-separated schemes (default: the 13-scheme pool)")
		window   = flag.Int("window", 0, "collect: uniform observation window (0 = default 10/200/1000)")
		seed     = flag.Int64("seed", 1, "seed")
		resume   = flag.Bool("resume", false, "collect: re-admit cells finished by a previous coordinator (reads <out>.shards + <out>.manifest)")
		quality  = flag.Bool("quality", true, "collect: quarantine bad trajectories before saving (report: <out>.quarantine.jsonl)")

		// Train mode.
		poolPath  = flag.String("pool", "pool.gob.gz", "train: input pool file")
		modelOut  = flag.String("model-out", "sage.model", "train: output model file")
		steps     = flag.Int("steps", 2000, "train: total CRR gradient steps")
		enc       = flag.Int("enc", 32, "train: encoder width")
		gru       = flag.Int("gru", 16, "train: GRU width")
		kMix      = flag.Int("gmm", 3, "train: GMM components")
		mask      = flag.String("mask", "full", "train: input mask: "+gr.MaskNames)
		nWorkers  = flag.Int("train-workers", 2, "train: data-parallel worker count")
		ckpt      = flag.String("checkpoint", "", "train: checkpoint file (written every checkpoint-every steps; resumed from if present)")
		ckptEvery = flag.Int("checkpoint-every", 1000, "train: checkpoint period in steps")
		ckptKeep  = flag.Int("checkpoint-keep", 3, "train: previous checkpoint generations kept")
		logEvery  = flag.Int("log-every", 100, "train: progress period in steps")
	)
	flag.Parse()

	// A bad listen address or fault spec must fail in microseconds,
	// before any state is touched.
	if _, _, err := dist.ParseAddr(*listen); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var faultSpec chaos.FaultSpec
	if *chaosFlag != "" {
		var err error
		if faultSpec, err = chaos.ParseFaultSpec(*chaosFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *pprofAddr != "" {
		if _, err := telemetry.ServeDebug(*pprofAddr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("pprof: http://%s/debug/pprof/\n", *pprofAddr)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	switch *mode {
	case "collect":
		os.Exit(runCollect(ctx, collectOpts{
			listen: *listen, out: *out, level: *level,
			setIDur: *setIDur, setIIDur: *setIIDur,
			schemes: *schemes, window: *window, seed: *seed,
			leaseTTL: *leaseTTL, resume: *resume, quality: *quality,
			progress: *progress, hedge: *hedge, chaos: faultSpec,
		}))
	case "train":
		os.Exit(runTrain(ctx, trainOpts{
			listen: *listen, poolPath: *poolPath, modelOut: *modelOut,
			steps: *steps, enc: *enc, gru: *gru, kMix: *kMix,
			mask: *mask, workers: *nWorkers, seed: *seed,
			ckpt: *ckpt, ckptEvery: *ckptEvery, ckptKeep: *ckptKeep,
			logEvery: *logEvery, progress: *progress, chaos: faultSpec,
		}))
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q (want collect|train)\n", *mode)
		os.Exit(2)
	}
}

// listenAnnounce binds the listen address and prints the bound address
// (meaningful with ":0" in tests and scripts).
func listenAnnounce(spec string) (net.Listener, error) {
	network, addr, err := dist.ParseAddr(spec)
	if err != nil {
		return nil, err
	}
	if network == "unix" {
		os.Remove(addr)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("listening on %s\n", ln.Addr())
	return ln, nil
}

// wrapChaos puts the fault-injecting transport in front of ln when a
// -chaos spec is active; every injected fault is counted and logged so a
// soak run's report can correlate faults with retries and hedges.
func wrapChaos(ln net.Listener, spec chaos.FaultSpec, reg *telemetry.Registry) net.Listener {
	if !spec.Active() {
		return ln
	}
	tr := chaos.NewTransport(spec)
	faults := reg.Counter("chaos.faults")
	tr.OnEvent = func(ev chaos.FaultEvent) {
		faults.Inc()
		logf("chaos: conn %d %s %s (%d bytes)", ev.Conn, ev.Dir, ev.Kind, ev.Bytes)
	}
	fmt.Printf("chaos: injecting transport faults on every agent connection (seed %d)\n", spec.Seed)
	return tr.Listener(ln)
}

type collectOpts struct {
	listen, out, level, schemes string
	setIDur, setIIDur           time.Duration
	window                      int
	seed                        int64
	leaseTTL                    time.Duration
	resume, quality, progress   bool
	hedge                       float64
	chaos                       chaos.FaultSpec
}

func runCollect(ctx context.Context, o collectOpts) int {
	names := cc.PoolNames()
	if o.schemes != "" {
		names = strings.Split(o.schemes, ",")
	}
	campaign := &dist.Campaign{
		Schemes:    names,
		Level:      o.level,
		SetIDurSec: o.setIDur.Seconds(),
		SetIIDur:   o.setIIDur.Seconds(),
		Seed:       o.seed,
		Window:     o.window,
	}
	reg := telemetry.NewRegistry()
	reg.PublishExpvar("sage-coord")
	fleet := telemetry.NewFleet()
	fleet.PublishExpvar("sage-coord.fleet")
	coord, err := dist.NewCoordinator(dist.CoordConfig{
		Campaign:     campaign,
		ShardDir:     o.out + ".shards",
		ManifestPath: o.out + ".manifest",
		WALPath:      o.out + ".wal",
		LeaseTTL:     o.leaseTTL,
		Resume:       o.resume,
		HedgeFactor:  o.hedge,
		Metrics:      reg,
		Fleet:        fleet,
		Logf:         logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if coord.Resumed() > 0 {
		fmt.Printf("resume: re-admitted %d finished cells\n", coord.Resumed())
	}
	ln, err := listenAnnounce(o.listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var meter *telemetry.Progress
	if o.progress {
		meter = telemetry.NewProgress(os.Stdout, "cells", int64(coord.TotalCells()), time.Second)
		meter.Add(int64(coord.Resumed()))
	}
	go coord.Serve(wrapChaos(ln, o.chaos, reg))
	fmt.Printf("campaign: %d cells (%d schemes x %s grid), lease TTL %s\n",
		coord.TotalCells(), len(names), o.level, o.leaseTTL)

	waitErr := coord.Wait(ctx)
	if waitErr == nil {
		// Let connected agents hear the campaign-done verdict and hang up
		// before the listener goes away, so they exit cleanly.
		coord.DrainAgents(10 * time.Second)
	}
	coord.Shutdown()
	meter.Finish()
	if waitErr != nil {
		_, _, done, failed := coord.Tracker().Counts()
		fmt.Printf("interrupted: %d/%d cells done (%d failed); manifest and shards kept\n",
			done+failed, coord.TotalCells(), failed)
		fmt.Printf("rerun with -resume to continue\n")
		return 130
	}

	pool, err := coord.MergedPool()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, f := range pool.Failed {
		fmt.Fprintf(os.Stderr, "failed cell: %s/%s: %s\n", f.Scheme, f.Env, f.Err)
	}
	if o.quality {
		sane, rep := collector.Sanitize(pool, collector.QualityConfig{})
		if rep.Quarantined > 0 {
			sidecar := o.out + ".quarantine.jsonl"
			if err := rep.WriteSidecar(sidecar); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Printf("quality: quarantined %d/%d trajectories (report: %s)\n",
				rep.Quarantined, rep.Total, sidecar)
			pool = sane
		}
	}
	if err := pool.Save(o.out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	coord.CleanupResumeState()
	fmt.Printf("pool: %d trajectories, %d transitions\n", len(pool.Trajs), pool.Transitions())
	fmt.Printf("wrote %s\n", o.out)
	return 0
}

type trainOpts struct {
	listen, poolPath, modelOut, mask string
	steps, enc, gru, kMix            int
	workers                          int
	seed                             int64
	ckpt                             string
	ckptEvery, ckptKeep, logEvery    int
	progress                         bool
	chaos                            chaos.FaultSpec
}

func runTrain(ctx context.Context, o trainOpts) int {
	if o.workers < 2 {
		fmt.Fprintln(os.Stderr, "train mode needs -train-workers >= 2 (use sage-train for single-process training)")
		return 2
	}
	m, err := gr.MaskByName(o.mask)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pool, err := collector.Load(o.poolPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("pool: %d trajectories, %d transitions\n", len(pool.Trajs), pool.Transitions())
	ds := rl.BuildDataset(pool, m)
	crrCfg := rl.CRRConfig{
		Policy:  nn.PolicyConfig{Enc: o.enc, Hidden: o.gru, ResBlocks: 2, K: o.kMix},
		Steps:   o.steps,
		Workers: o.workers,
		Seed:    o.seed,
	}
	if err := ds.CheckSeqLen(crrCfg.Fill().SeqLen); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var learner *rl.CRR
	done := 0
	if o.ckpt != "" {
		resumed, steps, from, err := rl.LoadCheckpointAuto(o.ckpt, ds)
		switch {
		case err == nil:
			learner = resumed
			done = steps
			fmt.Printf("resumed %s at step %d\n", from, steps)
		case rl.IsNotExist(err):
			// Fresh start.
		default:
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if learner == nil {
		learner = rl.NewCRR(ds, crrCfg)
	}

	reg := telemetry.NewRegistry()
	reg.PublishExpvar("sage-coord")
	var meter *telemetry.Progress
	if o.progress {
		remaining := o.steps - done
		if remaining < 0 {
			remaining = 0
		}
		meter = telemetry.NewProgress(os.Stdout, "train", int64(remaining), time.Second)
	}
	start := time.Now()
	stepCtr := reg.Counter("steps")
	onStep := func(s rl.TrainStats) {
		stepCtr.Inc()
		meter.Add(1)
		if o.ckpt != "" && s.Step%o.ckptEvery == 0 {
			if err := learner.SaveCheckpointRotate(o.ckpt, s.Step, o.ckptKeep); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
		if s.Step%o.logEvery == 0 && !o.progress {
			fmt.Printf("step %6d  critic %.4f  policy %.4f  (%s)\n",
				s.Step, s.CriticLoss, s.PolicyLoss, time.Since(start).Round(time.Second))
		}
	}
	coordCfg := dist.CoordConfig{
		Train: &dist.TrainConfig{
			Learner:    learner,
			Workers:    o.workers,
			StepsTotal: o.steps,
			Mask:       m,
			OnStep:     onStep,
		},
		Metrics: reg,
		Logf:    logf,
	}
	if o.ckpt != "" {
		// The barrier WAL rides next to the checkpoint: on a crash-restart
		// it tells the operator which step the fleet had actually
		// committed, versus the (possibly older) step the checkpoint
		// resumes from.
		coordCfg.WALPath = o.ckpt + ".wal"
		coordCfg.Resume = done > 0
	}
	coord, err := dist.NewCoordinator(coordCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if coordCfg.Resume && coord.LastEpoch() > done {
		fmt.Printf("wal: fleet had committed step %d; checkpoint resumes at %d, steps in between recompute\n",
			coord.LastEpoch(), done)
	}
	ln, err := listenAnnounce(o.listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	go coord.Serve(wrapChaos(ln, o.chaos, reg))
	fmt.Printf("training: %d workers, %d total steps (resumed at %d), critic naf hidden=%d\n", o.workers, o.steps, done, learner.NAF.Cfg.Hidden)

	waitErr := coord.Wait(ctx)
	if waitErr == nil {
		// Let workers receive the Done broadcast and hang up before the
		// listener goes away, so supervised workers exit 0.
		coord.DrainAgents(10 * time.Second)
	}
	coord.Shutdown()
	meter.Finish()
	if waitErr != nil {
		if o.ckpt != "" {
			if err := learner.SaveCheckpointRotate(o.ckpt, learner.StepsDone(), o.ckptKeep); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Printf("interrupted at step %d; checkpoint saved to %s — rerun to resume\n",
				learner.StepsDone(), o.ckpt)
		} else {
			fmt.Printf("interrupted at step %d (no -checkpoint set; progress lost)\n", learner.StepsDone())
		}
		return 130
	}
	model := &core.Model{Policy: learner.Policy, Mask: m, GR: pool.GR.Fill()}
	if err := model.Save(o.modelOut); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("wrote %s (policy: %d params)\n", o.modelOut, nn.ParamCount(model.Policy))
	return 0
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
