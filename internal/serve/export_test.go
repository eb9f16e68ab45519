package serve

import "sync"

// HoldShadow is a ShadowObserver that parks the worker serving the first
// decision it sees until Release: the seam tests use to hold requests in
// flight and in the queue, now that no timer holds them. Later decisions
// pass straight through.
type HoldShadow struct {
	held    chan struct{}
	release chan struct{}
	once    sync.Once
}

// HoldWorker installs a HoldShadow on e (before or after Start).
func HoldWorker(e *Engine) *HoldShadow {
	h := &HoldShadow{held: make(chan struct{}), release: make(chan struct{})}
	e.SetShadow(h)
	return h
}

func (h *HoldShadow) Observe(sid uint64, state []float64, ratio float64, fallback bool) {
	h.once.Do(func() { close(h.held) })
	<-h.release
}

// Held is closed once a worker is parked.
func (h *HoldShadow) Held() <-chan struct{} { return h.held }

// Release lets the parked worker, and every later decision, proceed.
func (h *HoldShadow) Release() { close(h.release) }

// QueueLen is how many admitted requests are waiting for a worker.
func (e *Engine) QueueLen() int { return len(e.reqCh) }

// HealthyEvals is the brownout ladder's per-rung hysteresis, for tests
// that count calm windows from outside the package.
const HealthyEvals = healthyEvals
