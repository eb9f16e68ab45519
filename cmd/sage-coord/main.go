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
// Shards persist through internal/safeio, and each cell's outcome goes to
// a write-ahead log (<out>.wal) after its shard, so a killed coordinator
// rerun with -resume re-admits verified cells and the final pool is
// byte-identical to an uninterrupted single-process sage-collect run.
//
// Train mode holds the master learner: per step every worker pushes its
// gradient shard, the coordinator all-reduces them in worker order,
// steps the optimizer, and broadcasts fresh parameters. The result is
// bitwise-identical to in-process -workers N training, and checkpoints
// carry the remote sampler positions, so worker or coordinator restarts
// resume exactly.
//
// SIGINT/SIGTERM drain: collection leaves the WAL and shards for -resume;
// training checkpoints the current step. Both exit 130.
//
// The WAL also journals lease grants, so even a SIGKILL'd coordinator
// restarted with -resume re-adopts in-flight leases instead of
// re-collecting them; train mode journals committed barrier steps to
// <checkpoint>.wal. With -hedge-factor, cells leased far longer than
// the fleet's typical completion time are speculatively re-leased to
// idle agents; the first checksummed shard wins. With -chaos, a seeded
// fault-injecting transport wraps every agent connection (drops,
// duplicated and truncated frames, latency, partitions) for soak
// testing the recovery machinery; see the README's chaos section.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"sage/internal/chaos"
	"sage/internal/cli"
	"sage/internal/collector"
	"sage/internal/core"
	"sage/internal/dist"
	"sage/internal/nn"
	"sage/internal/rl"
	"sage/internal/telemetry"
	"sage/internal/wire"
)

func main() { cli.Main(run) }

func run(ctx context.Context, f *cli.Flags) error {
	var (
		mode      = f.String("mode", "collect", "service: collect|train")
		listen    = f.String("listen", ":7070", "listen address (host:port or unix:/path)")
		leaseTTL  = f.Duration("lease-ttl", 30*time.Second, "cell lease TTL; agents heartbeat at TTL/3")
		progress  = f.Bool("progress", false, "print a live progress line")
		chaosFlag = f.String("chaos", "", "soak testing: inject seeded transport faults on every agent connection (key=value spec, e.g. seed=7,drop=0.02,dup=0.05,trunc=0.01,part-every=10s,part-for=1s)")
		hedge     = f.Float64("hedge-factor", 0, "collect: speculatively re-lease a cell held longer than factor x the fleet's p75 completion time to an idle agent (0 disables; 3 is a sane start)")

		// Collection mode.
		out     = f.String("out", "pool.gob.gz", "collect: output pool file")
		grid    = f.Scenarios("collect: ")
		resume  = f.Bool("resume", false, "collect: re-admit cells finished by a previous coordinator (reads <out>.shards + <out>.wal)")
		quality = f.Bool("quality", true, "collect: quarantine bad trajectories before saving (report: <out>.quarantine.jsonl)")

		// Train mode.
		poolPath = f.String("pool", "pool.gob.gz", "train: input pool file")
		modelOut = f.String("model-out", "sage.model", "train: output model file")
		tr       = f.Train("train: ")
		nWorkers = f.Int("train-workers", 2, "train: data-parallel worker count")
	)
	f.Respell("window", "collect: uniform observation window (0 = default 10/200/1000)", "")
	f.Respell("steps", "train: total CRR gradient steps", "")
	f.Respell("seed", "seed", "")
	f.Pprof("serve pprof+expvar on this address (e.g. :6060)")
	if err := f.Parse(); err != nil {
		return err
	}
	// A bad listen address or fault spec must fail in microseconds,
	// before any state is touched.
	network, addr, err := dist.ParseAddr(*listen)
	if err != nil {
		return cli.Exit(cli.ExitUsage, err)
	}
	var faultSpec chaos.FaultSpec
	if *chaosFlag != "" {
		if faultSpec, err = chaos.ParseFaultSpec(*chaosFlag); err != nil {
			return cli.Exit(cli.ExitUsage, err)
		}
	}
	if *mode != "collect" && *mode != "train" {
		return cli.Exitf(cli.ExitUsage, "unknown mode %q (want collect|train)", *mode)
	}
	if *mode == "train" && *nWorkers < 2 {
		return cli.Exitf(cli.ExitUsage, "train mode needs -train-workers >= 2 (use sage-train for single-process training)")
	}
	if err := f.Open(); err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	reg.PublishExpvar("sage-coord")
	c := coordOpts{network: network, addr: addr, progress: *progress, chaos: faultSpec, reg: reg}
	if *mode == "train" {
		return runTrain(ctx, c, tr, *poolPath, *modelOut, *nWorkers)
	}
	return runCollect(ctx, c, grid, *out, tr.Seed, *leaseTTL, *resume, *quality, *hedge)
}

// coordOpts is what both services need.
type coordOpts struct {
	network, addr string // the parsed -listen
	progress      bool
	chaos         chaos.FaultSpec
	reg           *telemetry.Registry
}

// serve binds the listen address, prints the bound address (meaningful with
// ":0" in tests and scripts) and serves coord on it in the background. With
// a -chaos spec the fault-injecting transport sits in front: every injected
// fault is counted and logged so a soak run's report can correlate faults
// with retries and hedges.
func (c coordOpts) serve(coord *dist.Coordinator) error {
	ln, err := wire.Listen(c.network, c.addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening on %s\n", ln.Addr())
	if c.chaos.Active() {
		tr := chaos.NewTransport(c.chaos)
		faults := c.reg.Counter("chaos.faults")
		tr.OnEvent = func(ev chaos.FaultEvent) {
			faults.Inc()
			cli.Logf("chaos: conn %d %s %s (%d bytes)", ev.Conn, ev.Dir, ev.Kind, ev.Bytes)
		}
		fmt.Printf("chaos: injecting transport faults on every agent connection (seed %d)\n", c.chaos.Seed)
		ln = tr.Listener(ln)
	}
	go coord.Serve(ln)
	return nil
}

// wait blocks until the campaign or run completes or a signal interrupts
// it, then shuts the coordinator down. On completion the connected agents
// or workers first hear the done verdict and hang up before the listener
// goes away, so supervised ones exit 0; drain bounds how long that may take.
func wait(ctx context.Context, coord *dist.Coordinator, meter *telemetry.Progress, drain time.Duration) error {
	err := coord.Wait(ctx)
	if err == nil {
		coord.DrainAgents(drain)
	}
	coord.Shutdown()
	meter.Finish()
	return err
}

func runCollect(ctx context.Context, c coordOpts, grid *cli.Scenarios, out string, seed int64, leaseTTL time.Duration, resume, quality bool, hedge float64) error {
	fleet := telemetry.NewFleet()
	fleet.PublishExpvar("sage-coord.fleet")
	coord, err := dist.NewCoordinator(dist.CoordConfig{
		Campaign: &dist.Campaign{
			Schemes:    grid.Schemes,
			Level:      grid.LevelName,
			SetIDurSec: grid.SetIDur.Seconds(),
			SetIIDur:   grid.SetIIDur.Seconds(),
			Seed:       seed,
			Window:     grid.Window,
		},
		ShardDir:    out + ".shards",
		WALPath:     out + ".wal",
		LeaseTTL:    leaseTTL,
		Resume:      resume,
		HedgeFactor: hedge,
		Metrics:     c.reg,
		Fleet:       fleet,
		Logf:        cli.Logf,
	})
	if err != nil {
		return cli.Exit(cli.ExitUsage, err)
	}
	if coord.Resumed() > 0 {
		fmt.Printf("resume: re-admitted %d finished cells\n", coord.Resumed())
	}
	if err := c.serve(coord); err != nil {
		return err
	}
	var meter *telemetry.Progress
	if c.progress {
		meter = telemetry.NewProgress(os.Stdout, "cells", int64(coord.TotalCells()), time.Second)
		meter.Add(int64(coord.Resumed()))
	}
	fmt.Printf("campaign: %d cells (%d schemes x %s grid), lease TTL %s\n",
		coord.TotalCells(), len(grid.Schemes), grid.LevelName, leaseTTL)

	// An agent that has not said Bye may be retrying a swallowed reply; one
	// silent for a lease TTL would have lost its lease anyway.
	if wait(ctx, coord, meter, max(10*time.Second, leaseTTL)) != nil {
		_, _, done, failed := coord.Tracker().Counts()
		return cli.Exitf(cli.ExitSignal, "interrupted: %d/%d cells done (%d failed); WAL and shards kept\nrerun with -resume to continue",
			done+failed, coord.TotalCells(), failed)
	}

	pool, err := coord.MergedPool()
	if err != nil {
		return err
	}
	pool.ReportFailed(os.Stderr)
	if quality {
		if pool, _, err = collector.Quarantine(pool, out+".quarantine.jsonl", "quality", os.Stdout); err != nil {
			return err
		}
	}
	if err := pool.Save(out); err != nil {
		return err
	}
	coord.CleanupResumeState()
	fmt.Printf("pool: %d trajectories, %d transitions\n", len(pool.Trajs), pool.Transitions())
	fmt.Printf("wrote %s\n", out)
	return nil
}

func runTrain(ctx context.Context, c coordOpts, tr *cli.Train, poolPath, modelOut string, workers int) error {
	pool, err := collector.Load(poolPath)
	if err != nil {
		return err
	}
	fmt.Printf("pool: %d trajectories, %d transitions\n", len(pool.Trajs), pool.Transitions())
	ds := rl.BuildDataset(pool, tr.Mask)
	learner, from, err := rl.OpenRun(tr.Checkpoint, ds, rl.CRRConfig{
		Policy:  tr.Policy(),
		Steps:   tr.Steps,
		Workers: workers,
		Seed:    tr.Seed,
	}, nil)
	if err != nil {
		return err
	}
	done := learner.StepsDone()
	if from != "" {
		fmt.Printf("resumed %s at step %d\n", from, done)
	}

	var meter *telemetry.Progress
	if c.progress {
		meter = telemetry.NewProgress(os.Stdout, "train", int64(learner.Cfg.Steps), time.Second)
	}
	start := time.Now()
	stepCtr := c.reg.Counter("steps")
	onStep := func(s rl.TrainStats) {
		stepCtr.Inc()
		meter.Add(1)
		if tr.Checkpoint != "" && s.Step%tr.CheckpointEvery == 0 {
			if err := learner.SaveCheckpointRotate(tr.Checkpoint, s.Step, tr.CheckpointKeep); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
		if s.Step%tr.LogEvery == 0 && !c.progress {
			fmt.Printf("step %6d  critic %.4f  policy %.4f  (%s)\n",
				s.Step, s.CriticLoss, s.PolicyLoss, time.Since(start).Round(time.Second))
		}
	}
	coordCfg := dist.CoordConfig{
		Train: &dist.TrainConfig{
			Learner:    learner,
			Workers:    workers,
			StepsTotal: tr.Steps,
			Mask:       tr.Mask,
			OnStep:     onStep,
		},
		Metrics: c.reg,
		Logf:    cli.Logf,
	}
	if tr.Checkpoint != "" {
		// The barrier WAL rides next to the checkpoint: on a crash-restart
		// it tells the operator which step the fleet had actually
		// committed, versus the (possibly older) step the checkpoint
		// resumes from.
		coordCfg.WALPath = tr.Checkpoint + ".wal"
		coordCfg.Resume = done > 0
	}
	coord, err := dist.NewCoordinator(coordCfg)
	if err != nil {
		return cli.Exit(cli.ExitUsage, err)
	}
	if coordCfg.Resume && coord.LastEpoch() > done {
		fmt.Printf("wal: fleet had committed step %d; checkpoint resumes at %d, steps in between recompute\n",
			coord.LastEpoch(), done)
	}
	if err := c.serve(coord); err != nil {
		return err
	}
	fmt.Printf("training: %d workers, %d total steps (resumed at %d), critic naf hidden=%d\n", workers, tr.Steps, done, learner.NAF.Cfg.Hidden)

	if wait(ctx, coord, meter, 10*time.Second) != nil {
		return learner.Interrupted(tr.Checkpoint, tr.CheckpointKeep)
	}
	model := &core.Model{Policy: learner.Policy, Mask: tr.Mask, GR: pool.GR.Fill()}
	if err := model.Save(modelOut); err != nil {
		return err
	}
	fmt.Printf("wrote %s (policy: %d params)\n", modelOut, nn.ParamCount(model.Policy))
	return nil
}
