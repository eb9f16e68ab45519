package rl

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"sage/internal/nn"
)

// CRRConfig tunes the Critic-Regularized-Regression learner (Wang et al.
// 2020), the algorithm beneath Sage's Core Learning block.
type CRRConfig struct {
	Policy nn.PolicyConfig
	// NAF sizes the critic: the normalized-advantage quadratic Q function,
	// immune to the dataset's action/return confounding (see nn.NAFCritic).
	NAF nn.NAFConfig

	Gamma        float64 // discount (default 0.99)
	Batch        int     // sequences per step (default 16)
	SeqLen       int     // BPTT segment length (default 8)
	Steps        int     // gradient steps
	LRPolicy     float64 // default 1e-3
	LRCritic     float64 // default 1e-3
	TargetEvery  int     // hard target sync period (default 100)
	ActionSample int     // π-samples for the advantage baseline (default 4)
	// NStep is the n-step return length for the TD target
	// (default 5): per-20 ms micro-actions need multi-step credit for the
	// critic to see the consequences of sustained window moves.
	NStep int
	// EventFrac is the fraction of sampled sequences anchored around large
	// window moves (default 0.5): backoffs are <1% of the pool but carry
	// the congestion response the policy must learn.
	EventFrac float64
	// ClipNorm is the global L2 gradient-clip threshold applied to both
	// networks before each optimizer step (default 10).
	ClipNorm float64
	// Workers shards each batch across goroutines with per-worker network
	// clones (gradients are summed before the optimizer step) — the
	// repository's analogue of the paper's general-purpose-cluster
	// training. 0/1 = serial.
	Workers int
	Seed    int64
}

// Fill applies defaults.
func (c CRRConfig) Fill() CRRConfig {
	if c.Gamma == 0 {
		c.Gamma = 0.99
	}
	if c.Batch == 0 {
		c.Batch = 16
	}
	if c.SeqLen == 0 {
		c.SeqLen = 8
	}
	if c.Steps == 0 {
		c.Steps = 1000
	}
	if c.LRPolicy == 0 {
		c.LRPolicy = 1e-3
	}
	if c.LRCritic == 0 {
		c.LRCritic = 1e-3
	}
	if c.TargetEvery == 0 {
		c.TargetEvery = 100
	}
	if c.ActionSample == 0 {
		c.ActionSample = 4
	}
	if c.NStep == 0 {
		c.NStep = 5
	}
	if c.EventFrac == 0 {
		c.EventFrac = 0.5
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 10
	}
	return c
}

// CRR holds the learner's networks.
type CRR struct {
	Cfg          CRRConfig
	Policy       *nn.Policy
	NAF          *nn.NAFCritic
	targetPolicy *nn.Policy
	targetNAF    *nn.NAFCritic

	nets      netSet // the learner's own trainable pair, and the serial step's arena
	rng       *rand.Rand
	rngSrc    *rngSource // rng's source, snapshot-able for checkpoints
	optPi     *nn.Adam
	optQ      *nn.Adam
	tail      stepTail
	workerSet []*worker
	// resumeWorkerRNG holds checkpointed per-worker RNG positions until the
	// worker set is (lazily) built.
	resumeWorkerRNG []uint64
	stepIdx         int
	lastBatchID     uint64 // sampler stream position before the current batch
	// Diagnostics updated each Train step.
	LastCriticLoss float64
	LastPolicyLoss float64
	LastMeanFilter float64
	// LastStats is the full diagnostic record of the most recent step.
	LastStats TrainStats
	// OnStep, when set, receives every step's TrainStats — the training
	// telemetry hook (sage-train wires it to the -metrics JSONL stream).
	// It runs on the training goroutine after the optimizer step;
	// mutating the learner from it is not supported.
	OnStep func(TrainStats)
	// GradGate, when set, inspects each step's stats after gradients are
	// accumulated but before clipping and the optimizer step. Returning
	// false discards the batch: gradients are zeroed, the parameters are
	// untouched, and the step is recorded with Skipped=true. This is the
	// sentinel's hook for rejecting batches whose loss or gradients have
	// gone non-finite before they can poison the weights.
	GradGate func(TrainStats) bool
}

// TrainStats is the per-gradient-step diagnostic record: losses, the
// CRR filter acceptance rate, the advantage distribution the filter saw,
// pre-clip gradient norms, and (under Workers>1) per-worker busy time
// for utilization accounting.
type TrainStats struct {
	Step           int       // 1-based step index within this learner
	CriticLoss     float64   // mean TD loss per transition
	PolicyLoss     float64   // mean filtered −logπ per transition
	MeanFilter     float64   // mean CRR filter weight f
	FilterAccept   float64   // fraction of transitions with f > 0
	AdvMean        float64   // mean advantage Q(s,a) − V̂(s)
	AdvStd         float64   // advantage standard deviation
	GradNormPi     float64   // policy gradient L2 norm, before clipping
	GradNormQ      float64   // critic gradient L2 norm, before clipping
	GradNormPiClip float64   // policy gradient L2 norm after clipping (0 when skipped)
	GradNormQClip  float64   // critic gradient L2 norm after clipping (0 when skipped)
	LRPolicy       float64   // policy learning rate in effect this step
	LRCritic       float64   // critic learning rate in effect this step
	BatchID        uint64    // sampler stream position that produced this batch
	Skipped        bool      // true when GradGate rejected the batch (no optimizer step)
	Workers        int       // goroutines that produced the gradients (≥1)
	WorkerBusy     []float64 // per-worker busy seconds (nil when serial)
}

// ShardSums accumulates one batch shard's raw sums; shards from parallel
// workers — goroutines or trainer processes — add element-wise before
// finishStep normalizes them.
type ShardSums struct {
	CLoss, PLoss           float64
	FSum, AdvSum, AdvSqSum float64
	FCnt, Accepted         int
}

func (a *ShardSums) add(b ShardSums) {
	a.CLoss += b.CLoss
	a.PLoss += b.PLoss
	a.FSum += b.FSum
	a.AdvSum += b.AdvSum
	a.AdvSqSum += b.AdvSqSum
	a.FCnt += b.FCnt
	a.Accepted += b.Accepted
}

// NewCRR builds the learner for a dataset: network input sizes and
// normalizers come from the data.
func NewCRR(ds *Dataset, cfg CRRConfig) *CRR {
	cfg = cfg.Fill()
	cfg.Policy.InDim = ds.InDim()
	cfg.Policy.Seed = cfg.Seed
	cfg.NAF.InDim = ds.InDim()
	cfg.NAF.Seed = cfg.Seed
	src := newRNG(cfg.Seed + 101)
	l := &CRR{
		Cfg:    cfg,
		Policy: nn.NewPolicy(cfg.Policy),
		NAF:    nn.NewNAFCritic(cfg.NAF),
		rng:    rand.New(src),
		rngSrc: src,
	}
	l.Policy.Norm = ds.Norm
	l.NAF.Norm = ds.Norm
	l.nets = newNetSet(l.Policy, l.NAF)
	l.tail.init(l.nets)
	l.targetPolicy = nn.ClonePolicy(l.Policy)
	l.targetNAF = nn.CloneNAF(l.NAF)
	l.optPi = nn.NewAdam(cfg.LRPolicy)
	l.optQ = nn.NewAdam(cfg.LRCritic)
	return l
}

// QValue evaluates the learner's Q function.
func (l *CRR) QValue(s []float64, a float64) float64 { return l.NAF.Q(s, a) }

// Train runs cfg.Steps gradient steps over the dataset, stopping early
// (after completing the in-flight step) when ctx is cancelled — the
// SIGINT path saves a checkpoint at that point and resumes later. A nil
// ctx trains to completion. The progress callback (optional) receives
// (step, criticLoss, policyLoss).
func (l *CRR) Train(ctx context.Context, ds *Dataset, progress func(step int, criticLoss, policyLoss float64)) {
	for step := 1; step <= l.Cfg.Steps; step++ {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		st := l.TrainStep(ds)
		if progress != nil {
			progress(step, st.CriticLoss, st.PolicyLoss)
		}
	}
}

// TrainStep runs exactly one gradient step (including any due target
// sync) and returns its stats. Train is a loop over TrainStep; the
// divergence sentinel drives TrainStep directly so it can inspect every
// step and roll back between them.
func (l *CRR) TrainStep(ds *Dataset) TrainStats {
	l.step(ds)
	l.syncTargets()
	return l.LastStats
}

// syncTargets hard-copies the online networks into the targets when the
// step just applied is a sync step. The schedule runs on the absolute step
// index (stepIdx survives checkpoint resume), so a resumed run — and a
// remote worker's replica — syncs at the same global steps as an
// uninterrupted one.
func (l *CRR) syncTargets() {
	if l.stepIdx%l.Cfg.TargetEvery == 0 {
		nn.CopyParams(l.targetPolicy, l.Policy)
		nn.CopyParams(l.targetNAF, l.NAF)
	}
}

// StepsDone returns the absolute number of gradient steps this learner has
// applied, including steps restored from a checkpoint.
func (l *CRR) StepsDone() int { return l.stepIdx }

// netSet is one worker's view of the trainable networks (the targets are
// shared and only read) and the arena its share of a step runs in.
type netSet struct {
	policy *nn.Policy
	naf    *nn.NAFCritic
	// grads are views of the gradient accumulators, in modules order.
	grads [][]float64
	arena *stepArena
}

func newNetSet(policy *nn.Policy, naf *nn.NAFCritic) netSet {
	n := netSet{policy: policy, naf: naf, arena: &stepArena{}}
	for _, m := range n.modules() {
		for _, p := range m.Params() {
			n.grads = append(n.grads, p.Grad)
		}
	}
	return n
}

// modules lists the pair in the canonical tensor order of snapshots,
// checkpoints and GradShard.Grads: policy first, then critic.
func (n netSet) modules() []nn.Module { return []nn.Module{n.policy, n.naf} }

func (n netSet) zeroGrads() {
	nn.ZeroGrads(n.policy)
	nn.ZeroGrads(n.naf)
}

// step performs one combined policy-evaluation + policy-improvement update
// on a batch of sampled subsequences.
func (l *CRR) step(ds *Dataset) {
	if l.Cfg.Workers > 1 {
		l.stepParallel(ds)
		return
	}
	l.lastBatchID = l.rngSrc.State()
	l.finishStep(l.processSeqs(l.nets, ds, l.rng, l.Cfg.Batch), nil)
}

// stepArena is the reusable memory of one worker's share of a step: the
// draw plan, the TD bookkeeping and the two tapes. It is sized on the first
// step and nothing is allocated afterwards. Transition (b, i) — sequence b,
// timestep i — is row b·SeqLen+i of the critic tape and of the per-transition
// slices, and row tape.Row(b, i) of the (time-major) policy tape.
type stepArena struct {
	seqs       []seqDraw
	tdRows     []int     // the transitions with a TD target: all but a window's last when its trajectory ends there
	tdU, tdZ   []float64 // the TD target action's draws, per transition
	actU, actZ []float64 // the baseline actions' draws, ActionSample per transition
	discount   []float64 // γⁿ of each transition's n-step return
	pol        nn.PolicyTape
	naf        nn.NAFTape
}

// seqDraw is one sampled subsequence: SeqLen states from start, with horizon
// states after start available — SeqLen+NStep at most, SeqLen−1 at least
// (then the window's last transition has no next state and no TD target).
type seqDraw struct {
	tr             *Traj
	start, horizon int
}

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func (a *stepArena) resize(nSeqs, seqLen, actionSample int) {
	if cap(a.seqs) < nSeqs {
		a.seqs = make([]seqDraw, nSeqs)
	}
	a.seqs = a.seqs[:nSeqs]
	n := nSeqs * seqLen
	if cap(a.tdRows) < n {
		a.tdRows = make([]int, 0, n)
	}
	a.tdRows = a.tdRows[:0]
	a.tdU, a.tdZ, a.discount = grow(a.tdU, n), grow(a.tdZ, n), grow(a.discount, n)
	a.actU, a.actZ = grow(a.actU, n*actionSample), grow(a.actZ, n*actionSample)
}

// processSeqs runs nSeqs sampled subsequences through policy evaluation and
// improvement, accumulating gradients into nets. It is three phases over
// the arena: a draw plan, batched forwards, batched backwards (see
// DESIGN.md §11). Every output — gradients, sums, the stream's final
// position — is bitwise what running the sequences one at a time, one
// timestep at a time would produce; internal/rl/golden_test.go pins it.
func (l *CRR) processSeqs(nets netSet, ds *Dataset, rng *rand.Rand, nSeqs int) (st ShardSums) {
	cfg, a := l.Cfg, nets.arena
	L, inDim := cfg.SeqLen, ds.InDim()
	gmm := nets.policy.GMM
	a.resize(nSeqs, L, cfg.ActionSample)

	// --- Draw plan. The stream is consumed in the order a sequence-at-a-time
	// learner consumes it: sequence b's window, then one GMM sample per
	// transition that has a next state for the TD target actions (i
	// ascending), then ActionSample per transition for the advantage baseline
	// (i descending). How far a
	// draw advances the stream never depends on a network output, so all of
	// a batch's draws can be taken before any forward pass runs.
	for b := range a.seqs {
		tr, start := ds.sampleSeqPrioritized(rng, L, cfg.EventFrac)
		horizon := min(L+cfg.NStep, len(tr.Steps)-1-start)
		if horizon < L-1 {
			panic(fmt.Sprintf("rl: sampled a window of %d states, SeqLen is %d (Dataset.CheckSeqLen guards this)", horizon+1, L))
		}
		a.seqs[b] = seqDraw{tr: tr, start: start, horizon: horizon}
		for i := 0; i < min(L, horizon); i++ {
			r := b*L + i
			a.tdRows = append(a.tdRows, r)
			a.tdU[r] = rng.Float64()
			a.tdZ[r] = rng.NormFloat64()
		}
		for i := L - 1; i >= 0; i-- {
			for k := (b*L + i) * cfg.ActionSample; k < (b*L+i+1)*cfg.ActionSample; k++ {
				a.actU[k] = rng.Float64()
				a.actZ[k] = rng.NormFloat64()
			}
		}
	}

	// --- Target policy over every window plus its n-step lookahead (for the
	// TD target actions at s_{t+n}). Transition i reads the head of step
	// i+min(NStep, horizon−i): never past L−1+NStep, and never before
	// min(NStep, L−1), the first step whose head is computed. A window cut
	// short by its trajectory's end is padded with the last state; padded
	// heads are never read.
	pol, naf := &a.pol, &a.naf
	pol.Reset(nSeqs, L+cfg.NStep, inDim)
	for b, sq := range a.seqs {
		for j := 0; j < pol.T; j++ {
			ds.row(pol.X.Row(pol.Row(b, j)), sq.tr, sq.start+min(j, sq.horizon))
		}
	}
	l.targetPolicy.ForwardTapeFrom(pol, min(cfg.NStep, L-1))

	// --- Policy evaluation (Eq. 5): n-step TD targets from the target
	// networks. Until the target critic has run, Y holds the discounted
	// reward sum and A the target policy's action at s_{t+n}.
	naf.Reset(nSeqs*L, inDim)
	for b, sq := range a.seqs {
		for i := 0; i < L; i++ {
			r, idx := b*L+i, sq.start+i
			n := min(cfg.NStep, sq.horizon-i)
			if n < 1 {
				// The trajectory ends here: no next state, no TD target.
				// The row is evaluated on its own state and never read.
				ds.row(naf.X.Row(r), sq.tr, idx)
				continue
			}
			rSum, g := 0.0, 1.0
			for k := 0; k < n; k++ {
				rSum += float64(g * sq.tr.Steps[idx+k].Reward)
				g *= cfg.Gamma
			}
			naf.Y[r], a.discount[r] = rSum, g
			naf.A[r] = clampU(gmm.SampleWith(pol.Heads.Row(pol.Row(b, i+n)), a.tdU[r], a.tdZ[r]))
			ds.row(naf.X.Row(r), sq.tr, idx+n)
		}
	}
	l.targetNAF.BatchForward(naf)
	for _, r := range a.tdRows {
		naf.Y[r] += float64(a.discount[r] * naf.Q(r, naf.A[r]))
	}

	// --- Online networks over the windows themselves. The critic's
	// state-only terms are computed once per transition and serve the TD
	// backward here and every Q(s, ·) of the improvement step below.
	pol.Reset(nSeqs, L, inDim)
	for b, sq := range a.seqs {
		for i := 0; i < L; i++ {
			ds.row(pol.X.Row(pol.Row(b, i)), sq.tr, sq.start+i)
			ds.row(naf.X.Row(b*L+i), sq.tr, sq.start+i)
			naf.A[b*L+i] = sq.tr.Actions[sq.start+i]
		}
	}
	nets.naf.BatchForward(naf)
	st.CLoss = nets.naf.TDBackward(naf, a.tdRows, 1/float64(cfg.Batch*cfg.SeqLen))

	// --- Policy improvement (Eq. 6): advantage-filtered regression, each
	// sequence from its last transition to its first.
	nets.policy.ForwardTape(pol)
	for b := range a.seqs {
		for i := L - 1; i >= 0; i-- {
			r := b*L + i
			head, act := pol.Heads.Row(pol.Row(b, i)), naf.A[r]
			q := naf.Q(r, act)
			baseline := 0.0
			for k := r * cfg.ActionSample; k < (r+1)*cfg.ActionSample; k++ {
				baseline += naf.Q(r, clampU(gmm.SampleWith(head, a.actU[k], a.actZ[k])))
			}
			baseline /= float64(cfg.ActionSample)
			adv := q - baseline
			var f float64
			if adv > 0 {
				f = 1 // binary CRR: regress only onto better-than-policy actions
			}
			st.FSum += f
			st.FCnt++
			st.AdvSum += adv
			st.AdvSqSum += float64(adv * adv)
			if f > 0 {
				st.Accepted++
			}
			dp := pol.DHeads.Row(pol.Row(b, i))
			st.PLoss += float64(-f * gmm.LogProbGrad(head, act, dp))
			w := -f / float64(cfg.Batch*cfg.SeqLen)
			for k := range dp {
				dp[k] *= w
			}
		}
	}
	nets.policy.BackwardTape(pol)
	return st
}

// finishStep clips, applies the optimizer (unless GradGate rejects the
// batch), and updates diagnostics. workerBusy carries per-worker busy
// seconds under parallel training.
func (l *CRR) finishStep(st ShardSums, workerBusy []float64) {
	cfg := l.Cfg
	gradQ := nn.GradNorm(l.NAF)
	gradPi := nn.GradNorm(l.Policy)

	n := float64(cfg.Batch * cfg.SeqLen)
	l.LastCriticLoss = st.CLoss / n
	l.LastPolicyLoss = st.PLoss / n
	if st.FCnt > 0 {
		l.LastMeanFilter = st.FSum / float64(st.FCnt)
	}
	l.stepIdx++
	stats := TrainStats{
		Step:       l.stepIdx,
		CriticLoss: l.LastCriticLoss,
		PolicyLoss: l.LastPolicyLoss,
		MeanFilter: l.LastMeanFilter,
		GradNormPi: gradPi,
		GradNormQ:  gradQ,
		LRPolicy:   l.optPi.LR,
		LRCritic:   l.optQ.LR,
		BatchID:    l.lastBatchID,
		Workers:    1,
		WorkerBusy: workerBusy,
	}
	if cfg.Workers > 1 {
		stats.Workers = cfg.Workers
	}
	if st.FCnt > 0 {
		fn := float64(st.FCnt)
		stats.FilterAccept = float64(st.Accepted) / fn
		stats.AdvMean = st.AdvSum / fn
		variance := st.AdvSqSum/fn - float64(stats.AdvMean*stats.AdvMean)
		if variance > 0 {
			stats.AdvStd = math.Sqrt(variance)
		}
	}
	if l.GradGate != nil && !l.GradGate(stats) {
		// Rejected: drop the accumulated gradients on the floor so the
		// parameters (and Adam's moments) never see them.
		stats.Skipped = true
		l.nets.zeroGrads()
	} else {
		fPi, clipPi := nn.ClipScale(gradPi, cfg.ClipNorm)
		fQ, clipQ := nn.ClipScale(gradQ, cfg.ClipNorm)
		// A module left unscaled still has the norm just taken, bit for bit.
		stats.GradNormPiClip, stats.GradNormQClip = gradPi, gradQ
		if clipPi || clipQ {
			l.tail.clip = [2]float64{fPi, fQ}
			l.runTail(tailClip)
			if clipQ {
				stats.GradNormQClip = nn.GradNorm(l.NAF)
			}
			if clipPi {
				stats.GradNormPiClip = nn.GradNorm(l.Policy)
			}
		}
		l.optQ.Advance(l.NAF)
		l.optPi.Advance(l.Policy)
		l.runTail(tailAdam)
	}
	l.LastStats = stats
	if l.OnStep != nil {
		l.OnStep(stats)
	}
}

// LearningRates returns the optimizers' current step sizes (policy, critic).
func (l *CRR) LearningRates() (pi, q float64) { return l.optPi.LR, l.optQ.LR }

// SetLearningRates overrides the optimizers' step sizes — the sentinel's
// backoff/recovery lever. Adam's moments are preserved.
func (l *CRR) SetLearningRates(pi, q float64) {
	l.optPi.LR = pi
	l.optQ.LR = q
}

// ParamsFinite reports whether every parameter of the online networks is
// finite — the sentinel's corruption sweep. (The targets are periodic
// copies of the online networks, so they cannot be corrupt while the
// online ones are clean.)
func (l *CRR) ParamsFinite() bool {
	return nn.FiniteParams(l.Policy) && nn.FiniteParams(l.NAF)
}

// SkipBatch deterministically advances every batch-sampler stream by one
// draw, changing the composition of the next sampled batch without
// consuming a gradient step — the sentinel's "skip the offending batch"
// primitive after a rollback. The shift is a pure function of the stream
// state, so a run that rolls back and skips is itself reproducible.
func (l *CRR) SkipBatch() {
	l.rngSrc.Uint64()
	for _, w := range l.workerSet {
		w.src.Uint64()
	}
	// Workers not built yet (fresh from a checkpoint): advance the
	// checkpointed positions they will be built from.
	for i, s := range l.resumeWorkerRNG {
		src := &rngSource{s: s}
		src.Uint64()
		l.resumeWorkerRNG[i] = src.State()
	}
}

func clampU(u float64) float64 {
	if u > 1 {
		return 1
	}
	if u < -1 {
		return -1
	}
	return u
}

// finite reports whether x is a usable number (not NaN, not ±Inf).
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
