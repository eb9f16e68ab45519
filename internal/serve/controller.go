package serve

import (
	"sage/internal/sim"
	"sage/internal/tcp"
)

// Controller adapts one flow onto a shared Engine: it implements
// rollout.Controller and rollout.BatchFlusher, so a RunMulti fleet where
// every FlowSpec carries its own serve.NewController(eng) transparently
// serves all flows from one batched forward pass per interval.
//
// Control only enqueues the flow's state; rollout calls FlushBatch after
// the whole control sweep, which runs the batch and applies every cwnd
// decision (SetCwnd + Kick) in enqueue order. Several controllers share
// one engine; the first FlushBatch of an interval serves everyone and the
// rest are no-ops on an empty queue.
//
// In deterministic mode the decisions are those of giving each flow its
// own rl.PolicyController, bit for bit. Both sides run the batched kernel,
// so the proof is internal/nn's TestPolicyBatchForwardMatchesSequential
// (every row against the scalar oracle, at every batch size);
// TestEngineMatchesSequential checks the engine's plumbing on top of it.
// For guarded deployments wrap it with guard.NewBatched, which preserves
// the flush path and resets only this flow's session on re-admission.
type Controller struct {
	eng *Engine
	sid uint64
}

// NewController binds a fresh engine session to a new per-flow controller.
func NewController(eng *Engine) *Controller {
	return &Controller{eng: eng, sid: eng.NewSessionID()}
}

// Control implements rollout.Controller by deferring the decision into
// the engine's current batch.
func (c *Controller) Control(now sim.Time, conn *tcp.Conn, state []float64) {
	c.eng.Enqueue(c.sid, conn, state)
}

// FlushBatch implements rollout.BatchFlusher.
func (c *Controller) FlushBatch(now sim.Time) { c.eng.Flush(now) }

// Reset clears this flow's recurrent state (guard re-admission, or reuse
// across runs). It also clears the hot-swap degraded pin, so a guardian
// restore after a swap re-admits the flow against the current model.
func (c *Controller) Reset() { c.eng.ResetSession(c.sid) }

// Degraded reports that a hot-swap failed to migrate this flow's recurrent
// state (re-priming produced non-finite values) and the session is pinned
// to fallback decisions. guard.GuardedController polls this and trips such
// a flow to its heuristic path.
func (c *Controller) Degraded() bool { return c.eng.SessionDegraded(c.sid) }

// BrownedOut reports that the shared engine's overload ladder has reached
// ModeDegraded or beyond, so this flow's decisions are being served by the
// cheap ratio-1.0 path instead of the learned policy. The guardian polls
// this and trips the flow to its Cubic heuristic — during brownout a real
// heuristic controls the window rather than a frozen one — and re-admits
// it after probation once the engine recovers.
func (c *Controller) BrownedOut() bool { return c.eng.OverloadMode() >= ModeDegraded }
