package rl

import (
	"fmt"

	"sage/internal/nn"
)

// This file is the learner's surface for cross-process data-parallel
// training (internal/dist): a ShardWorker computes gradient shards in a
// trainer process, the coordinator's master learner sums them with
// ApplyShards, and parameter snapshots flow back. A remote worker is the
// in-process one (parallel.go: same stream, same shard split, same run)
// around a replica instead of a clone, and ApplyShards ends in the same
// reduceShards as stepParallel — so an N-process distributed step is
// bitwise-identical to an in-process Workers=N step, and everything the
// checkpoint machinery already persists (Adam moments, RNG positions, step
// index) keeps working across restarts.

// GradShard is one worker's contribution to one data-parallel step: the
// accumulated gradients of its shard, the raw batch-statistic sums, and
// its sampler positions before/after the shard (before feeds the batch
// identity fold; after is what a checkpoint must persist so a resumed
// worker redraws the same future batches).
type GradShard struct {
	Worker    int
	Step      int // 1-based step this shard was computed for
	Sums      ShardSums
	Grads     [][]float64
	RNGBefore uint64
	RNGAfter  uint64
	BusySec   float64
}

func (l *CRR) paramModules() []nn.Module { return l.nets.modules() }

func (l *CRR) targetModules() []nn.Module { return []nn.Module{l.targetPolicy, l.targetNAF} }

// SnapshotParams copies the online networks' parameters (policy, then
// critic) — the payload the coordinator broadcasts after each step.
func (l *CRR) SnapshotParams() [][]float64 { return nn.DumpParams(l.paramModules()...) }

// SnapshotTargets copies the target networks' parameters. Only needed
// when a worker (re)joins mid-run: between syncs the targets are a pure
// function of the step schedule, which workers replicate locally.
func (l *CRR) SnapshotTargets() [][]float64 { return nn.DumpParams(l.targetModules()...) }

// InstallParams overwrites the online networks from a SnapshotParams
// payload.
func (l *CRR) InstallParams(data [][]float64) error {
	return nn.LoadParams(data, l.paramModules()...)
}

// InstallTargets overwrites the target networks from a SnapshotTargets
// payload.
func (l *CRR) InstallTargets(data [][]float64) error {
	return nn.LoadParams(data, l.targetModules()...)
}

// SetStepIndex forces the absolute step counter — used when installing a
// coordinator's state into a joining worker replica.
func (l *CRR) SetStepIndex(n int) { l.stepIdx = n }

// WorkerRNGStates returns the per-worker sampler positions this learner
// knows about: live worker streams when in-process workers exist,
// otherwise the positions staged for checkpointing (a distributed
// coordinator tracks remote workers' streams through SetWorkerRNGStates).
func (l *CRR) WorkerRNGStates() []uint64 {
	if l.workerSet != nil {
		out := make([]uint64, len(l.workerSet))
		for i, w := range l.workerSet {
			out[i] = w.src.State()
		}
		return out
	}
	return append([]uint64(nil), l.resumeWorkerRNG...)
}

// SetWorkerRNGStates records per-worker sampler positions so the next
// SaveCheckpoint persists them. The distributed coordinator calls this
// after every applied step with the RNGAfter of each shard; on resume the
// states flow back out through WorkerRNGStates to re-seed remote workers.
func (l *CRR) SetWorkerRNGStates(states []uint64) {
	l.resumeWorkerRNG = append(l.resumeWorkerRNG[:0], states...)
}

// InitialWorkerRNGStates returns the sampler positions fresh workers
// start from under cfg — what a coordinator hands out when no checkpoint
// has recorded positions yet: the streams every worker, remote or
// in-process, is built with.
func InitialWorkerRNGStates(cfg CRRConfig) []uint64 {
	cfg = cfg.Fill()
	out := make([]uint64, cfg.Workers)
	for i := range out {
		out[i] = workerStream(cfg.Seed, i).State()
	}
	return out
}

// ApplyShards runs one coordinator-side optimizer step from the workers'
// gradient shards: once every shard has been checked it is stepParallel's
// reduction (reduceShards) and TrainStep's target sync, so results are
// bitwise-comparable to in-process parallel training. Every worker must
// contribute exactly one shard per step.
func (l *CRR) ApplyShards(shards []GradShard) (TrainStats, error) {
	n := l.Cfg.Workers
	if n < 2 {
		return TrainStats{}, fmt.Errorf("rl: ApplyShards needs Cfg.Workers >= 2, have %d", n)
	}
	if len(shards) != n {
		return TrainStats{}, fmt.Errorf("rl: got %d shards, want %d (one per worker)", len(shards), n)
	}
	bySlot := make([]*GradShard, n)
	for i := range shards {
		sh := &shards[i]
		if sh.Worker < 0 || sh.Worker >= n {
			return TrainStats{}, fmt.Errorf("rl: shard worker index %d out of range [0,%d)", sh.Worker, n)
		}
		if bySlot[sh.Worker] != nil {
			return TrainStats{}, fmt.Errorf("rl: duplicate shard from worker %d", sh.Worker)
		}
		bySlot[sh.Worker] = sh
	}
	want := l.nets.grads
	for w, sh := range bySlot {
		if len(sh.Grads) != len(want) {
			return TrainStats{}, fmt.Errorf("rl: worker %d shard has %d grad tensors, want %d", w, len(sh.Grads), len(want))
		}
		for i, g := range want {
			if len(sh.Grads[i]) != len(g) {
				return TrainStats{}, fmt.Errorf("rl: worker %d grad tensor %d size mismatch (%d vs %d)", w, i, len(sh.Grads[i]), len(g))
			}
		}
	}
	l.reduceShards(bySlot)
	l.syncTargets()
	// Stage the post-shard sampler positions for the next checkpoint.
	states := make([]uint64, n)
	for w, sh := range bySlot {
		states[w] = sh.RNGAfter
	}
	l.SetWorkerRNGStates(states)
	return l.LastStats, nil
}

// ShardWorker computes gradient shards in a trainer process. It holds a
// full learner replica (the replica's own optimizer is never stepped —
// moments live on the coordinator) and runs the in-process worker with the
// same index over the replica's networks, so the batches it draws are
// exactly the in-process worker's batches.
type ShardWorker struct {
	learner *CRR
	*worker
}

// NewShardWorker builds the replica for worker idx of total. The config
// must be the coordinator's (including Workers=total); the dataset must
// be built from the same pool with the same mask.
func NewShardWorker(ds *Dataset, cfg CRRConfig, idx, total int) (*ShardWorker, error) {
	cfg = cfg.Fill()
	if total < 2 {
		return nil, fmt.Errorf("rl: shard worker needs total >= 2, have %d", total)
	}
	if idx < 0 || idx >= total {
		return nil, fmt.Errorf("rl: shard worker index %d out of range [0,%d)", idx, total)
	}
	if cfg.Workers != total {
		return nil, fmt.Errorf("rl: config Workers=%d but %d shard workers (the counts must agree for deterministic shard splits)", cfg.Workers, total)
	}
	if err := ds.CheckSeqLen(cfg.SeqLen); err != nil {
		return nil, err
	}
	l := NewCRR(ds, cfg)
	return &ShardWorker{learner: l, worker: newWorker(l.nets, cfg.Seed, idx)}, nil
}

// Join installs a full coordinator state into the replica: online and
// target parameters, the absolute step index, and this worker's sampler
// position. Called once at connect (and again after a coordinator-led
// resync, e.g. when the worker restarted mid-run).
func (w *ShardWorker) Join(step int, params, targets [][]float64, rngState uint64) error {
	if err := w.learner.InstallParams(params); err != nil {
		return err
	}
	if err := w.learner.InstallTargets(targets); err != nil {
		return err
	}
	w.learner.SetStepIndex(step)
	w.src.SetState(rngState)
	return nil
}

// Sync installs the coordinator's post-step broadcast: the new online
// parameters and the step they resulted from. The worker replicates the
// target-sync schedule locally — the targets are copies of the online
// nets at scheduled steps, so no target payload is needed between joins.
func (w *ShardWorker) Sync(step int, params [][]float64) error {
	if err := w.learner.InstallParams(params); err != nil {
		return err
	}
	w.learner.SetStepIndex(step)
	w.learner.syncTargets()
	return nil
}

// ComputeShard draws this worker's share of the next batch and runs
// forward/backward over it, returning a copy of the accumulated gradients.
// The replica's parameters are untouched (no optimizer step); gradients are
// zeroed first so shards never bleed into each other.
func (w *ShardWorker) ComputeShard(ds *Dataset) GradShard {
	ds.buildEventIndex()
	w.run(w.learner, ds)
	sh := w.shard
	sh.Grads = make([][]float64, len(w.shard.Grads))
	for i, g := range w.shard.Grads {
		sh.Grads[i] = append([]float64(nil), g...)
	}
	return sh
}
