package rl

import (
	"math/rand"
	"sync"
	"time"

	"sage/internal/nn"
)

// worker is one slot of a data-parallel step: the networks it accumulates
// gradients into, its own sampler stream, and the shard it produces. In
// process the networks are clones of the learner's whose weights are views
// of the learner's own; in a trainer process they are a ShardWorker
// replica's own.
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
		pol, naf := nn.ClonePolicy(l.Policy), nn.CloneNAF(l.NAF)
		// Views, not copies: every step's forward reads the learner's
		// weights as the previous step's optimizer left them.
		nn.ShareParams(pol, l.Policy)
		nn.ShareParams(naf, l.NAF)
		ws[i] = newWorker(newNetSet(pol, naf), l.Cfg.Seed, i)
		l.tail.local = append(l.tail.local, &ws[i].shard)
	}
	l.tail.split(len(ws))
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

// stepParallel shards the batch across Workers goroutines — worker 0 on the
// calling one — each computing gradients on its own networks over the
// learner's weights; the gradients are summed into the main networks before
// the optimizer step. This is synchronous data-parallel SGD — the
// general-purpose-cluster analogue the paper's training phase leans on,
// scaled to cores. The other workers' goroutines stay on for the step's
// element-wise tail (stepTail) and return when the step is done.
func (l *CRR) stepParallel(ds *Dataset) {
	ds.buildEventIndex() // before fan-out: the lazy index must not race
	ws, tl := l.workers(), &l.tail
	defer l.endTail() // however the step ends, the goroutines return
	tl.done.Add(len(ws) - 1)
	for _, w := range ws[1:] {
		go func() {
			w.run(l, ds)
			tl.done.Done()
			l.serveTail(w.shard.Worker)
		}()
	}
	ws[0].run(l, ds)
	tl.done.Wait()
	tl.live = true
	l.reduceShards(tl.local)
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
	id := l.rngSrc.State()
	var st ShardSums
	busy := make([]float64, len(shards))
	for w, sh := range shards {
		id = id*31 + sh.RNGBefore
		st.add(sh.Sums)
		busy[w] = sh.BusySec
	}
	l.tail.shards = shards
	l.runTail(tailSum)
	l.tail.shards = nil
	l.lastBatchID = id
	l.finishStep(st, busy)
}

// stepTail is the element-wise end of a step — the shard sum, the clip
// scale and the Adam update — split by parameter tensor into one part per
// worker. During a data-parallel step the calling goroutine runs part 0 and
// worker i's goroutine part i; otherwise (serial steps, trainer-process
// shards) the calling goroutine runs every part. Only element-wise work
// splits, so each element sees the same operations in the same order
// whichever goroutine runs it; sums across elements (the gradient norms)
// stay on the calling goroutine, in tensor order.
type stepTail struct {
	params []*nn.Param   // the learner's, in netSet.grads order: policy, then critic
	nPi    int           // params[:nPi] are the policy's
	parts  [][]int       // tensor indices of each part
	local  []*GradShard  // the in-process workers' shards, in worker order
	ops    []chan tailOp // ops[i-1] feeds part i's goroutine while live
	done   sync.WaitGroup
	live   bool

	// Operands of the op in flight.
	shards []*GradShard
	clip   [2]float64 // policy, critic gradient factors; 1 (not clipped) is skipped
}

type tailOp uint8

const (
	tailSum  tailOp = iota // add the shards' gradients, in worker order
	tailClip               // scale each module's gradients by its clip factor
	tailAdam               // the optimizer update (Advance already ran)
	tailStop               // the step is over: the goroutine returns
)

// init lists the learner's tensors as a single part.
func (t *stepTail) init(nets netSet) {
	t.nPi = len(nets.policy.Params())
	t.parts = [][]int{nil}
	for _, m := range nets.modules() {
		for _, p := range m.Params() {
			t.parts[0] = append(t.parts[0], len(t.params))
			t.params = append(t.params, p)
		}
	}
}

// split re-cuts the tensors into n contiguous parts of about equal element
// counts — a tensor goes to the part its middle element falls in — and makes
// the channels of parts 1…n−1.
func (t *stepTail) split(n int) {
	total := 0
	for _, p := range t.params {
		total += len(p.Data)
	}
	t.parts = make([][]int, n)
	at := 0
	for i, p := range t.params {
		k := min((at+len(p.Data)/2)*n/total, n-1)
		t.parts[k] = append(t.parts[k], i)
		at += len(p.Data)
	}
	for range t.parts[1:] {
		t.ops = append(t.ops, make(chan tailOp))
	}
}

// runTail runs op over every part and returns when all are done.
func (l *CRR) runTail(op tailOp) {
	tl := &l.tail
	if !tl.live {
		for _, part := range tl.parts {
			l.tailPart(op, part)
		}
		return
	}
	tl.done.Add(len(tl.ops))
	for _, c := range tl.ops {
		c <- op
	}
	l.tailPart(op, tl.parts[0])
	tl.done.Wait()
}

// serveTail is worker i's goroutine for the rest of a data-parallel step.
func (l *CRR) serveTail(i int) {
	tl := &l.tail
	for op := range tl.ops[i-1] {
		if op == tailStop {
			return
		}
		l.tailPart(op, tl.parts[i])
		tl.done.Done()
	}
}

func (l *CRR) endTail() {
	l.tail.live = false
	for _, c := range l.tail.ops {
		c <- tailStop
	}
}

func (l *CRR) tailPart(op tailOp, part []int) {
	tl := &l.tail
	for _, i := range part {
		p, critic := tl.params[i], i >= tl.nPi
		switch op {
		case tailSum:
			for _, sh := range tl.shards {
				g := sh.Grads[i]
				d := p.Grad[:len(g)]
				for j, v := range g {
					d[j] += v
				}
			}
		case tailClip:
			f := tl.clip[0]
			if critic {
				f = tl.clip[1]
			}
			if f != 1 {
				for j := range p.Grad {
					p.Grad[j] *= f
				}
			}
		case tailAdam:
			if critic {
				l.optQ.Update(p)
			} else {
				l.optPi.Update(p)
			}
		}
	}
}
