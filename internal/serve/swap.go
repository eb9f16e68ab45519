package serve

import (
	"errors"
	"fmt"
	"time"

	"sage/internal/gr"
	"sage/internal/nn"
	"sage/internal/rl"
)

// ErrSwapClosed reports a Swap on an engine that already drained.
var ErrSwapClosed = errors.New("serve: swap on closed engine")

// SwapStats reports one hot-swap's session migration outcome.
type SwapStats struct {
	Sessions int // resident sessions at swap time
	Reprimed int // hidden state rebuilt by replaying the trace window
	Fresh    int // no decided states yet: restarted from the new model's initial hidden state
	Degraded int // re-prime produced non-finite state: pinned to fallback until reset
}

func (s SwapStats) String() string {
	return fmt.Sprintf("sessions=%d reprimed=%d fresh=%d degraded=%d",
		s.Sessions, s.Reprimed, s.Fresh, s.Degraded)
}

// Swap replaces the engine's policy with pol/mask without dropping a single
// decision: it blocks new async requests, waits for every queued and
// in-flight batch to complete under the old model, then migrates each
// resident session onto the new one. A session's recurrent hidden state is
// re-primed by replaying its recent trace window (the last
// Config.ReprimeWindow decided states) through the new network — the same
// observations that shaped its behaviour under the incumbent — so a
// long-lived flow resumes with context instead of restarting cold. If
// re-priming yields non-finite state the session is pinned to fallback
// (ratio-1) decisions and reported Degraded; a guard-wrapped flow then
// trips to the heuristic path and is re-admitted fresh after probation.
//
// Decisions already enqueued on the synchronous path but not yet flushed
// are carried across: the next Flush serves them with the new model and the
// migrated hidden states, discarding whatever of their pass was forwarded
// under the old one.
// Decisions blocked in Decide during the swap are served by the new model
// once it completes; none are dropped.
//
// Swap must not run concurrently with Flush (both belong to the engine's
// single synchronous caller); it is safe against concurrent Decide. A nil
// mask means the full state vector.
func (e *Engine) Swap(pol *nn.Policy, mask []int) (SwapStats, error) {
	if pol == nil {
		return SwapStats{}, errors.New("serve: Swap with nil policy")
	}
	if mask == nil {
		mask = gr.MaskFull()
	}

	// Stop the world: no new Decide can enter (closeMu held exclusively),
	// and every request that did enter has incremented queued before
	// releasing its read lock — so queued draining to zero means every
	// in-flight batch has completed under the old model.
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.closed {
		return SwapStats{}, ErrSwapClosed
	}
	if e.started {
		for e.queued.Load() != 0 {
			time.Sleep(20 * time.Microsecond)
		}
	}

	var stats SwapStats
	e.mu.Lock()
	e.polMu.Lock()
	e.cfg.Policy = pol
	e.cfg.Mask = mask
	e.polMu.Unlock()
	// The open synchronous pass read the outgoing model and hidden states:
	// Flush forwards it again. No tile of it is running once Swap returns,
	// so nothing reads the outgoing policy after that.
	if len(e.pending) > 0 {
		e.passStale = true
	}
	e.tiles.quiesce()

	stats.Sessions = len(e.sessions)
	step := rl.Stepper{Policy: pol, Mask: mask}
	for _, s := range e.sessions {
		// The acting model is changing: flush the window accumulated under
		// the old model whole, so no exported trajectory ever mixes two
		// models' actions. The drain above guarantees the window is final.
		e.exportTrace(s, TraceReasonSwap)
		s.degraded = false
		trace := s.windowOrdered()
		if len(trace) == 0 {
			s.hidden = pol.InitHidden()
			stats.Fresh++
			continue
		}
		h := pol.InitHidden()
		for _, st := range trace {
			step.Step(st, h)
		}
		if finiteVec(h) {
			s.hidden = h
			stats.Reprimed++
		} else {
			s.hidden = pol.InitHidden()
			s.degraded = true
			s.clearWindow()
			stats.Degraded++
		}
	}
	e.mu.Unlock()

	e.cfg.Metrics.Counter(MetricSwaps).Inc()
	e.cfg.Metrics.Counter(MetricReprimed).Add(int64(stats.Reprimed))
	e.cfg.Metrics.Counter(MetricSwapDegrade).Add(int64(stats.Degraded))
	return stats, nil
}
