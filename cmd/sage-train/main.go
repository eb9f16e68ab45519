// Command sage-train runs the Core Learning block: offline CRR training on
// a collected pool (phase 2 of Fig. 3). No network environment is touched.
//
// Usage:
//
//	sage-train -pool pool.gob.gz -out sage.model -steps 20000 -enc 128 -gru 128
//	sage-train -pool pool.gob.gz -metrics train.jsonl -progress -pprof :6060
//
// With -metrics, every gradient step emits one JSON line (step, losses,
// filter acceptance, advantage stats, gradient norms, steps/sec); with
// -progress, a throttled progress/ETA line is printed; with -pprof, the
// Go profiling endpoints and /debug/vars are served for the run.
//
// With -worker, the process is one data-parallel training worker
// instead: it connects to a sage-coord coordinator (mode train), builds
// its dataset from -pool with the coordinator's announced mask and
// config, and loops compute-shard → submit → install-broadcast until the
// run completes.
//
// Exit codes: the repo-wide table (README "Exit codes"). A worker whose
// slot the coordinator gave to a replacement exits 4.
package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"sage/internal/cli"
	"sage/internal/collector"
	"sage/internal/core"
	"sage/internal/dist"
	"sage/internal/nn"
	"sage/internal/promote"
	"sage/internal/rl"
	"sage/internal/sentinel"
	"sage/internal/telemetry"
)

// stepRecord is the JSONL schema of -metrics (documented in README's
// Observability section).
type stepRecord struct {
	Step           int     `json:"step"`
	CriticLoss     float64 `json:"critic_loss"`
	PolicyLoss     float64 `json:"policy_loss"`
	MeanFilter     float64 `json:"mean_filter"`
	FilterAccept   float64 `json:"filter_accept"`
	AdvMean        float64 `json:"adv_mean"`
	AdvStd         float64 `json:"adv_std"`
	GradNormPi     float64 `json:"grad_norm_pi"`
	GradNormQ      float64 `json:"grad_norm_q"`
	GradNormPiClip float64 `json:"grad_norm_pi_clip,omitempty"` // post-clip (0 when skipped)
	GradNormQClip  float64 `json:"grad_norm_q_clip,omitempty"`
	LRPolicy       float64 `json:"lr_policy,omitempty"` // in effect this step (sentinel backoff visible here)
	LRCritic       float64 `json:"lr_critic,omitempty"`
	Skipped        bool    `json:"skipped,omitempty"` // sentinel rejected the batch pre-optimizer
	Workers        int     `json:"workers"`
	WorkerUtil     float64 `json:"worker_util,omitempty"` // mean busy / slowest busy
	StepsPerSec    float64 `json:"steps_per_sec"`
	ElapsedSec     float64 `json:"elapsed_s"`
}

func main() { cli.Main(run) }

func run(ctx context.Context, f *cli.Flags) error {
	var (
		poolPath  = f.String("pool", "pool.gob.gz", "input pool file")
		out       = f.String("out", "sage.model", "output model file")
		tr        = f.Train("")
		workers   = f.Int("workers", 1, "data-parallel training workers")
		emit      = f.Sink("metrics", "write per-step training metrics as JSONL to this file")
		progress  = f.Bool("progress", false, "print a live progress/ETA line")
		sanitize  = f.Bool("sanitize", false, "quarantine bad trajectories (non-finite/out-of-range/frozen/truncated) before training; report goes to <pool>.quarantine.jsonl")
		useSent   = f.Bool("sentinel", true, "train under the divergence sentinel (batch gating, checkpoint rollback, LR backoff)")
		publish   = f.String("publish", "", "also publish the trained model as a candidate in this model registry dir (see sage-serve -registry)")
		worker    = f.String("worker", "", "run as a distributed training worker against the sage-coord coordinator at this address (host:port or unix:/path)")
		workerIdx = f.Int("worker-index", 0, "with -worker: this worker's slot [0, train-workers)")
		redials   = f.Int("redial-attempts", 0, "with -worker: consecutive failed dials tolerated before giving up (0 = default 10); raise to ride out coordinator restarts")
	)
	f.Respell("checkpoint-keep", "previous checkpoint generations kept for corruption fallback", "")
	f.Pprof("serve pprof+expvar on this address (e.g. :6060)")
	if err := f.Parse(); err != nil {
		return err
	}
	if *worker != "" {
		// Validate the address before loading a multi-GB pool.
		if _, _, err := dist.ParseAddr(*worker); err != nil {
			return cli.Exit(cli.ExitUsage, err)
		}
		return runWorker(ctx, *worker, *workerIdx, *poolPath, tr.LogEvery, *redials)
	}
	if err := f.Open(); err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	reg.PublishExpvar("sage-train")

	pool, err := collector.Load(*poolPath)
	if err != nil {
		return err
	}
	fmt.Printf("pool: %d trajectories, %d transitions\n", len(pool.Trajs), pool.Transitions())
	if *sanitize {
		var rep collector.QualityReport
		if pool, rep, err = collector.Quarantine(pool, *poolPath+".quarantine.jsonl", "sanitize", os.Stdout); err != nil {
			return err
		}
		if rep.Quarantined == 0 {
			fmt.Println("sanitize: pool is clean")
		}
	}

	start := time.Now()
	ds := rl.BuildDataset(pool, tr.Mask)
	learner, from, err := rl.OpenRun(tr.Checkpoint, ds, rl.CRRConfig{
		Policy:  tr.Policy(),
		Steps:   tr.Steps,
		Workers: *workers,
		Seed:    tr.Seed,
	}, nil)
	if err != nil {
		return err
	}
	done := learner.StepsDone()
	if from != "" {
		if from != tr.Checkpoint {
			fmt.Printf("checkpoint %s unreadable; fell back to %s\n", tr.Checkpoint, from)
		}
		fmt.Printf("resumed %s at step %d\n", from, done)
	}
	fmt.Printf("learner: policy %d params, critic naf hidden=%d\n", nn.ParamCount(learner.Policy), learner.NAF.Cfg.Hidden)

	var meter *telemetry.Progress
	if *progress {
		meter = telemetry.NewProgress(os.Stdout, "train", int64(learner.Cfg.Steps), time.Second)
	}
	stepCtr := reg.Counter("steps")
	criticG := reg.Gauge("critic_loss")
	policyG := reg.Gauge("policy_loss")
	stepHist := reg.Histogram("step_seconds")
	lastStep := start
	learner.OnStep = func(s rl.TrainStats) {
		now := time.Now()
		stepHist.Observe(now.Sub(lastStep).Seconds())
		lastStep = now
		stepCtr.Inc()
		criticG.Set(s.CriticLoss)
		policyG.Set(s.PolicyLoss)
		meter.Add(1)
		if emit.JSONL == nil {
			return
		}
		elapsed := now.Sub(start).Seconds()
		// s.Step is already absolute (stepIdx survives checkpoint resume),
		// unlike the Train progress callback's run-local step.
		rec := stepRecord{
			Step:           s.Step,
			CriticLoss:     s.CriticLoss,
			PolicyLoss:     s.PolicyLoss,
			MeanFilter:     s.MeanFilter,
			FilterAccept:   s.FilterAccept,
			AdvMean:        s.AdvMean,
			AdvStd:         s.AdvStd,
			GradNormPi:     s.GradNormPi,
			GradNormQ:      s.GradNormQ,
			GradNormPiClip: s.GradNormPiClip,
			GradNormQClip:  s.GradNormQClip,
			LRPolicy:       s.LRPolicy,
			LRCritic:       s.LRCritic,
			Skipped:        s.Skipped,
			Workers:        s.Workers,
			StepsPerSec:    float64(s.Step-done) / elapsed,
			ElapsedSec:     elapsed,
		}
		if len(s.WorkerBusy) > 0 {
			sum, slowest := 0.0, 0.0
			for _, b := range s.WorkerBusy {
				sum += b
				if b > slowest {
					slowest = b
				}
			}
			if slowest > 0 {
				rec.WorkerUtil = sum / (float64(len(s.WorkerBusy)) * slowest)
			}
		}
		// A gated batch can carry NaN losses/norms; JSON cannot. The
		// skipped flag plus zeroed floats keeps the line parseable.
		for _, f := range []*float64{
			&rec.CriticLoss, &rec.PolicyLoss, &rec.MeanFilter, &rec.FilterAccept,
			&rec.AdvMean, &rec.AdvStd, &rec.GradNormPi, &rec.GradNormQ,
		} {
			if math.IsNaN(*f) || math.IsInf(*f, 0) {
				*f = 0
			}
		}
		if err := emit.Emit(rec); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}

	logProgress := func(step int, cl, pl float64) {
		abs := done + step
		if abs%tr.LogEvery == 0 && !*progress {
			fmt.Printf("step %6d  critic %.4f  policy %.4f  (%s)\n",
				abs, cl, pl, time.Since(start).Round(time.Second))
		}
	}
	if *useSent {
		// The sentinel owns checkpointing: its rotations double as the
		// resume points of PR 2 (same path, same format) and as rollback
		// anchors, so the plain-save in the progress callback is disabled.
		ckptPath := tr.Checkpoint
		if ckptPath == "" {
			ckptPath = *out + ".sentinel-ckpt"
		}
		var sn *sentinel.Sentinel
		learner, sn, err = sentinel.Train(ctx, learner, ds, sentinel.Config{
			CheckpointPath:  ckptPath,
			CheckpointEvery: tr.CheckpointEvery,
			CheckpointKeep:  tr.CheckpointKeep,
			Metrics:         reg,
		}, emit.JSONL, logProgress)
		if sn.Trips() > 0 {
			fmt.Printf("sentinel: %d trips (%d batch skips, %d rollbacks), final lr scale %g\n",
				sn.Trips(), sn.Skips(), sn.Rollbacks(), sn.LRScale())
		}
	} else {
		learner.Train(ctx, ds, func(step int, cl, pl float64) {
			logProgress(step, cl, pl)
			abs := done + step
			if tr.Checkpoint != "" && abs%tr.CheckpointEvery == 0 {
				if err := learner.SaveCheckpointRotate(tr.Checkpoint, abs, tr.CheckpointKeep); err != nil {
					fmt.Fprintln(os.Stderr, err)
				}
			}
		})
	}
	meter.Finish()
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return learner.Interrupted(tr.Checkpoint, tr.CheckpointKeep)
	}
	model := &core.Model{Policy: learner.Policy, Mask: tr.Mask, GR: pool.GR.Fill()}
	if err := model.Save(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s (policy: %d params)\n", *out, nn.ParamCount(model.Policy))
	if *publish != "" {
		// The registry write is the candidate's birth certificate: the
		// checkpoint lands under the registry before the journal records
		// it, so a crash here leaves at worst an orphan file, never a
		// half-registered candidate. Promotion stays a separate,
		// gate-controlled step (promote.RunGate / the serving daemon).
		r, err := promote.OpenRegistry(*publish)
		if err != nil {
			return err
		}
		id, err := r.Publish(model, promote.Meta{
			Provenance: "sage-train",
			TrainStep:  learner.StepsDone(),
		})
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("published candidate %s to %s\n", id, *publish)
	}
	return nil
}

// runWorker is the -worker mode: one data-parallel shard worker driven
// by a sage-coord coordinator. The coordinator announces the training
// config and mask, so only the pool and worker slot are local decisions.
func runWorker(ctx context.Context, coordAddr string, index int, poolPath string, logEvery, redials int) error {
	pool, err := collector.Load(poolPath)
	if err != nil {
		return err
	}
	id := cli.SessionID("worker")
	fmt.Printf("worker %d (%s): joining coordinator %s\n", index, id, coordAddr)
	err = dist.RunTrainWorker(ctx, dist.TrainWorkerConfig{
		Coordinator:    coordAddr,
		ID:             id,
		Index:          index,
		Pool:           pool,
		RedialAttempts: redials,
		Logf:           cli.Logf,
		OnStep: func(step int) {
			if step%logEvery == 0 {
				fmt.Printf("worker %d: step %6d applied\n", index, step)
			}
		},
	})
	if err == nil {
		fmt.Printf("worker %d: run complete\n", index)
	}
	return cli.Session(ctx, fmt.Sprintf("worker %d", index), err, dist.ErrRevoked)
}
