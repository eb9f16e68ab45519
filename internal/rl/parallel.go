package rl

import (
	"math/rand"
	"sync"
	"time"

	"sage/internal/nn"
)

// worker is one slot of a data-parallel step: the networks it accumulates
// gradients into, its own sampler stream, and the shard it produces. In
// process the networks are clones of the learner's (refreshed every step);
// in a trainer process they are a ShardWorker replica's own.
type worker struct {
	nets netSet
	rng  *rand.Rand
	src  *rngSource // rng's source, snapshot-able for checkpoints
	// shard.Grads are views of nets' gradient accumulators, so the
	// in-process reduction reads them in place.
	shard GradShard
}

func newWorker(nets netSet, seed int64, idx int) *worker {
	src := workerStream(seed, idx)
	return &worker{
		nets: nets, rng: rand.New(src), src: src,
		shard: GradShard{Worker: idx, Grads: nets.grads},
	}
}

// workerStream is worker idx's sampler stream under a learner seed — the
// same whether the worker is a goroutine or a trainer process.
func workerStream(seed int64, idx int) *rngSource { return newRNG(seed + int64(idx)*7907 + 11) }

// shardSeqs is how many of a batch's sequences worker idx of total draws:
// an even split, the first workers taking the remainder.
func shardSeqs(batch, total, idx int) int {
	n := batch / total
	if idx < batch%total {
		n++
	}
	return n
}

// run draws the worker's share of one batch from its stream and leaves the
// gradients in its networks and the sums, stream positions and busy time in
// its shard. The busy time is what telemetry reports utilization from: with
// an even shard split, its spread directly exposes stragglers.
func (w *worker) run(l *CRR, ds *Dataset) {
	start := time.Now()
	w.nets.zeroGrads()
	w.shard.Step = l.stepIdx + 1
	w.shard.RNGBefore = w.src.State()
	w.shard.Sums = l.processSeqs(w.nets, ds, w.rng, shardSeqs(l.Cfg.Batch, l.Cfg.Workers, w.shard.Worker))
	w.shard.RNGAfter = w.src.State()
	w.shard.BusySec = time.Since(start).Seconds()
}

func (l *CRR) workers() []*worker {
	if l.workerSet != nil {
		return l.workerSet
	}
	ws := make([]*worker, l.Cfg.Workers)
	for i := range ws {
		ws[i] = newWorker(newNetSet(nn.ClonePolicy(l.Policy), nn.CloneNAF(l.NAF)), l.Cfg.Seed, i)
	}
	// A checkpoint taken mid-parallel-training recorded each worker's
	// sampler position; restore them so the resumed run draws the same
	// per-worker batch sequences.
	if len(l.resumeWorkerRNG) == len(ws) {
		for i, s := range l.resumeWorkerRNG {
			ws[i].src.SetState(s)
		}
	}
	l.resumeWorkerRNG = nil
	l.workerSet = ws
	return ws
}

// stepParallel shards the batch across Workers goroutines, each computing
// gradients on its own clone of the networks; the gradients are summed into
// the main networks before the optimizer step. This is synchronous
// data-parallel SGD — the general-purpose-cluster analogue the paper's
// training phase leans on, scaled to cores.
func (l *CRR) stepParallel(ds *Dataset) {
	ds.buildEventIndex() // before fan-out: the lazy index must not race
	ws := l.workers()
	shards := make([]*GradShard, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		nn.CopyParams(w.nets.policy, l.Policy)
		nn.CopyParams(w.nets.naf, l.NAF)
		shards[i] = &w.shard
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(l, ds)
		}()
	}
	wg.Wait()
	l.reduceShards(shards)
}

// reduceShards is the one reduction of a data-parallel step, whether the
// shards come from goroutines (stepParallel) or trainer processes
// (ApplyShards): in worker order, fold the pre-shard sampler positions into
// the batch identity (the main stream is not consumed), sum the gradients
// into the main networks and the raw statistics into one record, then
// finish the step. The fixed order is what makes an N-process step
// bitwise-identical to an in-process Workers=N one. shards holds one
// shape-checked shard per worker, indexed by worker; the main networks'
// gradients must be zero on entry, as every finished step leaves them.
func (l *CRR) reduceShards(shards []*GradShard) {
	dst := l.nets.grads
	id := l.rngSrc.State()
	var st ShardSums
	busy := make([]float64, len(shards))
	for w, sh := range shards {
		id = id*31 + sh.RNGBefore
		for i, g := range sh.Grads {
			d := dst[i][:len(g)]
			for j, v := range g {
				d[j] += v
			}
		}
		st.add(sh.Sums)
		busy[w] = sh.BusySec
	}
	l.lastBatchID = id
	l.finishStep(st, busy)
}
