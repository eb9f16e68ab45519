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
// run completes. Exit status (shared with sage-collect -agent): 0 run
// complete, 4 lease lost / fenced off (the coordinator replaced this
// session — relaunch for a fresh one), 130 signal drain, 2 usage error,
// 1 fatal error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sage/internal/collector"
	"sage/internal/core"
	"sage/internal/dist"
	"sage/internal/gr"
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

func main() {
	var (
		poolPath  = flag.String("pool", "pool.gob.gz", "input pool file")
		out       = flag.String("out", "sage.model", "output model file")
		steps     = flag.Int("steps", 2000, "CRR gradient steps")
		enc       = flag.Int("enc", 32, "encoder width")
		gru       = flag.Int("gru", 16, "GRU width")
		kMix      = flag.Int("gmm", 3, "GMM components")
		mask      = flag.String("mask", "full", "input mask: "+gr.MaskNames)
		workers   = flag.Int("workers", 1, "data-parallel training workers")
		seed      = flag.Int64("seed", 1, "seed")
		logEvery  = flag.Int("log-every", 100, "progress period in steps")
		ckpt      = flag.String("checkpoint", "", "checkpoint file (written every checkpoint-every steps; resumed from if present)")
		ckptEvery = flag.Int("checkpoint-every", 1000, "checkpoint period in steps")
		ckptKeep  = flag.Int("checkpoint-keep", 3, "previous checkpoint generations kept for corruption fallback")
		metrics   = flag.String("metrics", "", "write per-step training metrics as JSONL to this file")
		progress  = flag.Bool("progress", false, "print a live progress/ETA line")
		pprofAddr = flag.String("pprof", "", "serve pprof+expvar on this address (e.g. :6060)")
		sanitize  = flag.Bool("sanitize", false, "quarantine bad trajectories (non-finite/out-of-range/frozen/truncated) before training; report goes to <pool>.quarantine.jsonl")
		useSent   = flag.Bool("sentinel", true, "train under the divergence sentinel (batch gating, checkpoint rollback, LR backoff)")
		publish   = flag.String("publish", "", "also publish the trained model as a candidate in this model registry dir (see sage-serve -registry)")
		worker    = flag.String("worker", "", "run as a distributed training worker against the sage-coord coordinator at this address (host:port or unix:/path)")
		workerIdx = flag.Int("worker-index", 0, "with -worker: this worker's slot [0, train-workers)")
		redials   = flag.Int("redial-attempts", 0, "with -worker: consecutive failed dials tolerated before giving up (0 = default 10); raise to ride out coordinator restarts")
	)
	flag.Parse()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *worker != "" {
		os.Exit(runWorker(ctx, *worker, *workerIdx, *poolPath, *logEvery, *redials))
	}

	if *pprofAddr != "" {
		if _, err := telemetry.ServeDebug(*pprofAddr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("pprof: http://%s/debug/pprof/\n", *pprofAddr)
	}
	reg := telemetry.NewRegistry()
	reg.PublishExpvar("sage-train")

	var emit *telemetry.JSONL
	if *metrics != "" {
		var err error
		emit, err = telemetry.CreateJSONL(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer emit.Close()
	}

	pool, err := collector.Load(*poolPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("pool: %d trajectories, %d transitions\n", len(pool.Trajs), pool.Transitions())
	if *sanitize {
		clean, rep := collector.Sanitize(pool, collector.QualityConfig{})
		if rep.Quarantined > 0 {
			sidecar := *poolPath + ".quarantine.jsonl"
			if err := rep.WriteSidecar(sidecar); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("sanitize: quarantined %d/%d trajectories (report: %s)\n",
				rep.Quarantined, rep.Total, sidecar)
		} else {
			fmt.Println("sanitize: pool is clean")
		}
		pool = clean
	}

	m, err := gr.MaskByName(*mask)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := core.Config{
		GR:   pool.GR,
		Mask: m,
		CRR: rl.CRRConfig{
			Policy:  nn.PolicyConfig{Enc: *enc, Hidden: *gru, ResBlocks: 2, K: *kMix},
			Steps:   *steps,
			Workers: *workers,
			Seed:    *seed,
		},
	}
	start := time.Now()
	ds := rl.BuildDataset(pool, m)
	if err := ds.CheckSeqLen(cfg.CRR.Fill().SeqLen); err != nil {
		fmt.Fprintf(os.Stderr, "pool cannot be trained on (trajectories empty, truncated, or quarantined?): %v\n", err)
		os.Exit(1)
	}
	var learner *rl.CRR
	done := 0
	if *ckpt != "" {
		resumed, steps, from, err := rl.LoadCheckpointAuto(*ckpt, ds)
		switch {
		case err == nil:
			learner = resumed
			done = steps
			if from != *ckpt {
				fmt.Printf("checkpoint %s unreadable; fell back to %s\n", *ckpt, from)
			}
			fmt.Printf("resumed %s at step %d\n", from, steps)
		case rl.IsNotExist(err):
			// No checkpoint yet: fresh start.
		default:
			// Checkpoints exist but none loads: refuse to silently retrain
			// from scratch over hours of prior work.
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if learner == nil {
		crr := cfg.CRR
		learner = rl.NewCRR(ds, crr)
	}
	fmt.Printf("learner: policy %d params, critic naf hidden=%d\n", nn.ParamCount(learner.Policy), learner.NAF.Cfg.Hidden)
	remaining := *steps - done
	if remaining < 0 {
		remaining = 0
	}
	learner.Cfg.Steps = remaining

	var meter *telemetry.Progress
	if *progress {
		meter = telemetry.NewProgress(os.Stdout, "train", int64(remaining), time.Second)
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
		if emit == nil {
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
		if abs%*logEvery == 0 && !*progress {
			fmt.Printf("step %6d  critic %.4f  policy %.4f  (%s)\n",
				abs, cl, pl, time.Since(start).Round(time.Second))
		}
	}
	if *useSent {
		// The sentinel owns checkpointing: its rotations double as the
		// resume points of PR 2 (same path, same format) and as rollback
		// anchors, so the plain-save in the progress callback is disabled.
		ckptPath := *ckpt
		if ckptPath == "" {
			ckptPath = *out + ".sentinel-ckpt"
		}
		sn := sentinel.New(sentinel.Config{
			CheckpointPath:  ckptPath,
			CheckpointEvery: *ckptEvery,
			CheckpointKeep:  *ckptKeep,
			Metrics:         reg,
		})
		trained, serr := sn.Run(ctx, learner, ds, logProgress)
		learner = trained
		if emit != nil {
			if err := sn.EmitEvents(emit); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
		if sn.Trips() > 0 {
			fmt.Printf("sentinel: %d trips (%d batch skips, %d rollbacks), final lr scale %g\n",
				sn.Trips(), sn.Skips(), sn.Rollbacks(), sn.LRScale())
		}
		if serr != nil {
			meter.Finish()
			if emit != nil {
				emit.Flush()
			}
			fmt.Fprintln(os.Stderr, serr)
			os.Exit(1)
		}
	} else {
		learner.Train(ctx, ds, func(step int, cl, pl float64) {
			logProgress(step, cl, pl)
			abs := done + step
			if *ckpt != "" && abs%*ckptEvery == 0 {
				if err := learner.SaveCheckpointRotate(*ckpt, abs, *ckptKeep); err != nil {
					fmt.Fprintln(os.Stderr, err)
				}
			}
		})
	}
	meter.Finish()
	if emit != nil {
		if err := emit.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	if ctx.Err() != nil {
		// Interrupted: persist exactly where training stopped, so a rerun
		// resumes with a bitwise-identical loss curve.
		if *ckpt != "" {
			if err := learner.SaveCheckpointRotate(*ckpt, learner.StepsDone(), *ckptKeep); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("interrupted at step %d; checkpoint saved to %s — rerun to resume\n",
				learner.StepsDone(), *ckpt)
		} else {
			fmt.Printf("interrupted at step %d (no -checkpoint set; progress lost)\n", learner.StepsDone())
		}
		os.Exit(130)
	}
	model := &core.Model{Policy: learner.Policy, Mask: cfg.Mask, GR: cfg.GR.Fill()}
	if err := model.Save(*out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
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
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		id, err := r.Publish(model, promote.Meta{
			Provenance: "sage-train",
			TrainStep:  learner.StepsDone(),
		})
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("published candidate %s to %s\n", id, *publish)
	}
}

// runWorker is the -worker mode: one data-parallel shard worker driven
// by a sage-coord coordinator. The coordinator announces the training
// config and mask, so only the pool and worker slot are local decisions.
func runWorker(ctx context.Context, coordAddr string, index int, poolPath string, logEvery, redials int) int {
	// Validate the address before loading a multi-GB pool.
	if _, _, err := dist.ParseAddr(coordAddr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pool, err := collector.Load(poolPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	id := fmt.Sprintf("%s:%d", host, os.Getpid())
	fmt.Printf("worker %d (%s): joining coordinator %s\n", index, id, coordAddr)
	err = dist.RunTrainWorker(ctx, dist.TrainWorkerConfig{
		Coordinator:    coordAddr,
		ID:             id,
		Index:          index,
		Pool:           pool,
		RedialAttempts: redials,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
		OnStep: func(step int) {
			if logEvery > 0 && step%logEvery == 0 {
				fmt.Printf("worker %d: step %6d applied\n", index, step)
			}
		},
	})
	switch {
	case err == nil:
		fmt.Printf("worker %d: run complete\n", index)
		return 0
	case errors.Is(err, dist.ErrRevoked):
		// Same contract as sage-collect -agent: the coordinator fenced
		// this session off (a replacement Hello took the worker slot, or
		// the lease lapsed). The host is healthy — a supervisor should
		// relaunch rather than alert.
		fmt.Fprintf(os.Stderr, "worker %d: %v\n", index, err)
		return 4
	case ctx.Err() != nil:
		fmt.Printf("worker %d: drained on signal\n", index)
		return 130
	default:
		fmt.Fprintf(os.Stderr, "worker %d: %v\n", index, err)
		return 1
	}
}
