package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"sage/internal/collector"
	"sage/internal/gr"
	"sage/internal/rl"
)

// trainer is the train_crr system under test from a saved pool onward:
// load, build the dataset, construct the default CRR learner (default
// policy, NAF critic, two workers) and warm it up. All of it is set-up.
type trainer struct {
	ds      *rl.Dataset
	learner *rl.CRR
}

func newTrainer(poolPath string, seed int64, warmup int) (*trainer, error) {
	pool, err := collector.Load(poolPath)
	if err != nil {
		return nil, err
	}
	ds := rl.BuildDataset(pool, gr.MaskFull())
	t := &trainer{ds: ds, learner: rl.NewCRR(ds, rl.CRRConfig{Workers: 2, Seed: seed})}
	for i := 0; i < warmup; i++ {
		t.learner.TrainStep(ds)
	}
	return t, nil
}

type trainChunk struct {
	rep              // ops = steps, latUs = step times
	busy     float64 // Σ TrainStats.WorkerBusy, seconds
	skipped  int
	problems []string
}

// steps runs n timed TrainSteps, one span each when traced.
func (t *trainer) steps(n int, tr *tracer, parent int) trainChunk {
	var out trainChunk
	out.ops, out.latUs = int64(n), make([]float64, 0, n)
	out.wall, out.mallocs, out.bytes = timed(func() { t.stepsInto(&out, n, tr, parent) })
	return out
}

func (t *trainer) stepsInto(out *trainChunk, n int, tr *tracer, parent int) {
	last := time.Now()
	for i := 0; i < n; i++ {
		s := tr.begin("rl.train_step", parent, int64(t.learner.StepsDone()+1))
		st := t.learner.TrainStep(t.ds)
		tr.end(s)
		now := time.Now()
		out.latUs = append(out.latUs, float64(now.Sub(last).Nanoseconds())/1e3)
		last = now
		for _, b := range st.WorkerBusy {
			out.busy += b
		}
		if st.Skipped {
			out.skipped++
		}
		if st.Skipped || math.IsNaN(st.CriticLoss+st.PolicyLoss) || math.IsInf(st.CriticLoss+st.PolicyLoss, 0) {
			out.problems = append(out.problems, fmt.Sprintf("train_crr: step %d skipped=%v critic=%g policy=%g", st.Step, st.Skipped, st.CriticLoss, st.PolicyLoss))
		}
	}
}

// fingerprint hashes every policy parameter.
func (t *trainer) fingerprint() string {
	d := newDigest()
	for _, p := range t.learner.Policy.Params() {
		d.f64s(p.Data)
	}
	return d.sum()
}

func runTrainCRR(e *env) (*outcome, error) {
	o := newOutcome()
	// The input is a pool collected from the seed: Set I only, every scheme.
	path := filepath.Join(e.tmp, "train-pool.gob.gz")
	if in, _ := newGrid(e.seed, e.gridSchemes(), e.sz.trainPoolDur, 0).run(path); len(in.problems) > 0 {
		return nil, fmt.Errorf("train_crr: collecting the input pool: %v", in.problems)
	}
	var (
		t      *trainer
		setupS []float64
	)
	for i := 0; i < e.sz.setups; i++ {
		t0 := time.Now()
		var err error
		if t, err = newTrainer(path, e.seed, e.sz.trainWarmup); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		// Every set-up must leave the learner in the same state.
		o.sameHash("train_crr policy after warm-up", t.fingerprint())
	}
	if e.trace {
		e.traceTrainCRR(o, t)
		return o, nil
	}
	var reps []rep
	for t0 := time.Now(); len(reps) == 0 || time.Since(t0).Seconds() < e.seconds; {
		c := t.steps(e.sz.trainChunk, nil, 0)
		o.attempted += c.ops
		o.problems = append(o.problems, c.problems...)
		reps = append(reps, c.rep)
		if len(reps) == 1 {
			o.hashes["train_crr policy after first repetition"] = t.fingerprint()
		}
	}
	o.endToEnd(e, setupS, reps)
	return o, nil
}

// traceTrainCRR alternates untraced and traced chunks of steps.
func (e *env) traceTrainCRR(o *outcome, t *trainer) {
	tr := newTracer()
	root := tr.begin("rl.train", 0, 0)
	var plainBest, tracedBest, tracedWall, busy float64
	skipped := 0
	for i := 0; i < 4; i++ {
		for _, traced := range []bool{false, true} {
			var c trainChunk
			if traced {
				c = t.steps(e.sz.trainChunk, tr, root)
				tracedWall += c.wall.Seconds()
				busy += c.busy
			} else {
				c = t.steps(e.sz.trainChunk, nil, 0)
			}
			o.attempted += c.ops
			o.problems = append(o.problems, c.problems...)
			skipped += c.skipped
			rate := float64(c.ops) / c.wall.Seconds()
			if traced {
				tracedBest = max(tracedBest, rate)
			} else {
				plainBest = max(plainBest, rate)
			}
		}
	}
	tr.end(root)
	o.spans = tr.spans
	steps := summarize(durations(o.spans, "rl.train_step", 1e6))
	fmt.Fprintf(e.log, "train_crr step ms: %v\n", steps)
	m := o.metrics
	m["rl.train_step_ms_p50"] = steps.P50
	m["rl.train_step_ms_p95"] = pct(durations(o.spans, "rl.train_step", 1e6), 0.95)
	m["rl.worker_util"] = busy / (2 * tracedWall)
	m["rl.skipped_steps"] = float64(skipped)
	m["rl.train_steps_per_s"] = plainBest
	m["rl.peak_rss_mb"] = peakRSSMB()
	m["trace.overhead_frac"] = plainBest/tracedBest - 1

	pol := seededPolicy(e.seed)
	m["nn.forward_ns_row_b1"], _ = probeForward(pol, 1, e.sz.probeForwardRows/8)
	m["nn.forward_ns_row_b32"], _ = probeForward(pol, 32, e.sz.probeForwardRows)
	m["nn.flops_per_row"] = flopsPerRow(pol)
	fmt.Fprintf(e.log, "nn.flops_per_row = %.0f is computed from the layer sizes (2 per weight), not measured\n", m["nn.flops_per_row"])
}
