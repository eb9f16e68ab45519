// Package serve is the batched policy-serving engine: one inference
// service multiplexing any number of concurrent flows onto shared batched
// forward passes.
//
// A per-flow controller (rl.PolicyController, which core.Agent is) runs one
// one-row network forward per flow per control interval; at fleet scale that
// is thousands of passes that each stream every weight matrix through the
// cache for a single flow. The Engine instead keeps one session per flow —
// just the recurrent hidden state plus bookkeeping — and folds all flows due
// for a decision into one pass of the same kernel (nn.Policy.BatchForward),
// whose rows do not depend on the batch size, bit for bit, and which is
// several times faster per row in aggregate.
//
// Three ways in:
//
//   - serve.Controller implements rollout.Controller + rollout.BatchFlusher,
//     so fairness/friendliness RunMulti experiments transparently share one
//     engine: each flow's Control enqueues its state into the interval's
//     batched pass, whose 16-row tiles helper goroutines (up to one per
//     extra core) start forwarding while the sweep is still enqueuing; the
//     end-of-interval flush finishes the pass and applies every cwnd
//     decision in enqueue order on the calling goroutine.
//   - The sage-serve daemon (cmd/sage-serve) serves decisions over a Unix
//     socket: binary bodies in internal/wire's length-prefixed frames
//     (proto.go, server.go).
//     Its workers pull straight off the request queue: each pass takes
//     every request already waiting, so batches form under load and an
//     idle engine answers a lone request with no hold. A worker's pass is
//     the same pass as the flush's, but the worker forwards every tile of
//     it itself: it starts no helper.
//   - Direct library use: Engine.Decide (async, after Start) or the
//     enqueue/Flush pair (synchronous, deterministic).
//
// Safety: a session whose state vector or inferred action is non-finite
// falls back to a no-op decision (ratio 1.0, hidden state untouched) and
// increments serve.fallbacks — one poisoned flow never stalls or corrupts
// the rest of its batch. Guard integration: wrap each flow's Controller
// with guard.NewBatched; a tripped guard stops enqueuing (its flow simply
// contributes no row) and re-admission resets only that flow's session.
//
// Overload: the engine carries an always-on protection layer (overload.go)
// — a global in-flight admission cap with typed rejection (OverloadError /
// the wire OVERLOAD status, both carrying a jittered retry-after hint) and
// a brownout ladder (full → shed-shadow → degraded → draining) that sheds
// the cheapest work first and keeps producing explicit decisions at every
// rung; recovery to full service is hysteretic and time-bounded. Health()
// exposes a readiness document, served over the wire by the health verb.
package serve
