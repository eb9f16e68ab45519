package rl

import (
	"math/rand"

	"sage/internal/gr"
	"sage/internal/nn"
	"sage/internal/sim"
	"sage/internal/tcp"
)

// Stepper is the one per-flow inference step every B = 1 site shares — the
// controller below, promote.Shadow's candidate mirror, serve.Engine.Swap's
// re-prime: project the raw GR state through the mask, run the policy's
// batched forward on one reusable row, advance the caller's hidden vector in
// place. After the first Step it allocates nothing. A Stepper belongs to one
// goroutine; the hidden vectors it advances belong to its callers.
type Stepper struct {
	Policy *nn.Policy
	Mask   []int

	x, h    nn.Mat // one-row views: the masked state, the caller's hidden vector
	scratch nn.PolicyBatchScratch
}

// Step runs one timestep on the raw state, overwrites hidden with the new
// recurrent state and returns the GMM head — a view valid until the next
// Step.
func (s *Stepper) Step(state, hidden []float64) (head []float64) {
	gr.ApplyMaskInto(s.x.Reset(1, len(s.Mask)).Data, state, s.Mask)
	s.h = nn.Mat{Rows: 1, Cols: len(hidden), Data: hidden}
	heads, hNew := s.Policy.BatchForward(&s.x, &s.h, &s.scratch)
	copy(hidden, hNew.Data)
	return heads.Data
}

// HeadAction is the one place a GMM head becomes a window move: u is a draw
// from the mixture (stochastic), the highest-weight component's mean
// (useMode) or the mixture mean, and ratio = 2^clamp(u, −1, 1) the cwnd
// multiplier. meanBuf is the mixture mean's scratch (len ≥ K); rng is read
// only when stochastic.
func HeadAction(g nn.GMM, head, meanBuf []float64, stochastic, useMode bool, rng *rand.Rand) (u, ratio float64) {
	switch {
	case stochastic:
		u = g.Sample(head, rng)
	case useMode:
		u = g.Mode(head)
	default:
		u = g.MeanInto(head, meanBuf)
	}
	return u, UToRatio(u)
}

// PolicyController drives a connection's cwnd from a policy network: every
// GR interval it reads the state vector and multiplies cwnd by 2^u,
// u ∈ [−1, 1]. It is both the trainer-side controller and the deployment
// agent (core.Agent), and implements rollout.Controller.
type PolicyController struct {
	Policy     *nn.Policy
	Mask       []int
	Stochastic bool // sample from the GMM instead of taking its mean
	UseMode    bool // act on the highest-weight component instead of the mixture mean

	MaxCwnd float64 // cwnd ceiling in packets (0 = none); the floor is tcp.MinCwnd

	step    Stepper
	hidden  []float64
	meanBuf []float64 // scratch for GMM weight normalization
	rng     *rand.Rand

	// Recorded u-space actions (for online learners; the states are the
	// rollout's steps).
	Record  bool
	Actions []float64
}

// NewPolicyController returns a controller with fresh recurrent state and
// no cwnd ceiling.
func NewPolicyController(pol *nn.Policy, mask []int, stochastic bool, seed int64) *PolicyController {
	if mask == nil {
		mask = gr.MaskFull()
	}
	return &PolicyController{
		Policy:     pol,
		Mask:       mask,
		Stochastic: stochastic,
		step:       Stepper{Policy: pol, Mask: mask},
		hidden:     pol.InitHidden(),
		meanBuf:    make([]float64, pol.GMM.K),
		rng:        rand.New(rand.NewSource(seed + 991)),
	}
}

// Reset clears the recurrent state (call between flows, or when the
// runtime guardian re-admits the policy after a fallback episode).
func (pc *PolicyController) Reset() { clear(pc.hidden) }

// Control implements rollout.Controller. After the first call the decision
// path allocates nothing (but the growth of Actions when recording).
func (pc *PolicyController) Control(now sim.Time, conn *tcp.Conn, state []float64) {
	head := pc.step.Step(state, pc.hidden)
	u, ratio := HeadAction(pc.Policy.GMM, head, pc.meanBuf, pc.Stochastic, pc.UseMode, pc.rng)
	if pc.Record {
		pc.Actions = append(pc.Actions, clampU(u))
	}
	conn.SetCwnd(tcp.ClampCwnd(conn.Cwnd*ratio, tcp.MinCwnd, pc.MaxCwnd))
}

// LastHiddenEmbedding runs the policy on a state (stateful) and returns the
// last hidden layer activation — the embedding Fig. 16 visualizes.
func (pc *PolicyController) LastHiddenEmbedding(state []float64) []float64 {
	pc.step.Step(state, pc.hidden)
	return append([]float64(nil), pc.step.scratch.LastHidden().Data...)
}
