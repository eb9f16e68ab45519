package serve

import (
	"container/list"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sage/internal/gr"
	"sage/internal/nn"
	"sage/internal/rl"
	"sage/internal/sim"
	"sage/internal/tcp"
	"sage/internal/telemetry"
)

// Engine errors.
var (
	// ErrSessionBusy reports a Decide for a session that already has a
	// request in flight. One outstanding request per session is the
	// concurrency contract that keeps recurrent state single-writer.
	ErrSessionBusy = errors.New("serve: session busy")
	// ErrClosed reports a Decide after Close started draining.
	ErrClosed = errors.New("serve: engine closed")
)

// Metric names the engine publishes (nil Registry costs nothing).
const (
	MetricDecisions   = "serve.decisions"
	MetricFallbacks   = "serve.fallbacks"
	MetricBatches     = "serve.batches"
	MetricBatchSize   = "serve.batch_size"
	MetricBatchWaitUs = "serve.batch_wait_us"
	MetricQueueDepth  = "serve.queue_depth"
	MetricSessions    = "serve.sessions"
	MetricSessOpened  = "serve.sessions_opened"
	MetricSessEvicted = "serve.sessions_evicted"
	MetricSessReset   = "serve.sessions_reset"
	MetricSwaps       = "serve.swaps"
	MetricReprimed    = "serve.swap_reprimed"
	MetricSwapDegrade = "serve.swap_degraded"
)

// ShadowObserver mirrors served decisions to a candidate model without
// affecting them: the engine calls Observe after each decision is final
// (internal/promote's shadow evaluator implements this). state is the raw
// (unmasked) observation and is only valid for the duration of the call;
// ratio is the cwnd multiplier the incumbent actually applied. Observe runs
// on the engine's batch path, before the decision is released to its caller
// (the state slice is the session's reusable slot), and must not block.
type ShadowObserver interface {
	Observe(sid uint64, state []float64, ratio float64, fallback bool)
}

// Config tunes an Engine. The zero value of every field but Policy is
// usable.
type Config struct {
	Policy *nn.Policy
	Mask   []int // input subset (nil = full 69-signal vector)

	// Stochastic samples actions from the GMM instead of taking its mean.
	// Deterministic mode decides what a per-flow rl.PolicyController
	// decides, bit for bit (see Controller); stochastic mode draws from
	// per-worker RNG streams, so individual draws differ from any per-flow
	// sequence.
	Stochastic bool
	Seed       int64

	MaxCwnd float64 // cwnd ceiling in packets (default 0 = none); the floor is tcp.MinCwnd

	// MaxSessions caps resident sessions; beyond it the least-recently
	// used idle session is evicted and a later request for its id starts
	// from a fresh hidden state (default 4096).
	MaxSessions int
	// MaxBatch bounds one pass (default 256): Flush gathers a larger
	// backlog chunk by chunk, and an async worker stops taking queued
	// requests when its pass is full.
	MaxBatch int
	// BatchDeadline is no timer — the async batcher never holds a request
	// while a worker idles. It is the unit of the overload ladder's
	// batch-wait budget (50×BatchDeadline): the queue wait a deployment
	// considers normal (default 200µs).
	BatchDeadline time.Duration
	// Workers is the async pool size (default GOMAXPROCS). Each worker
	// owns one pass, starts no helper and forwards every tile of it itself.
	// Flush does not read it: its pass is forwarded by the sim goroutine
	// and at most GOMAXPROCS−1 helpers (see tilePass).
	Workers int

	// Overload, when non-nil, enables admission control and the brownout
	// degradation ladder (see OverloadConfig). Nil preserves historical
	// behavior: unbounded queues, no shedding, shadow always on.
	Overload *OverloadConfig

	// Trace, when non-nil, receives every session's completed decision
	// window (see TraceSink): the export side of the closed learning loop.
	// Nil disables tracing entirely at zero cost.
	Trace TraceSink
	// TraceWindowSteps caps one trace window's length; a window that fills
	// is flushed with reason "rotate" and a fresh one starts (default 256).
	TraceWindowSteps int

	// ReprimeWindow is how many recent decided states each session retains
	// for hot-swap hidden-state migration (default 8): Swap replays the
	// window through the incoming model so a long-lived flow's recurrent
	// state reflects its recent behaviour instead of restarting cold.
	// Negative disables retention (swapped sessions restart from a fresh
	// hidden state).
	ReprimeWindow int

	// Metrics, when non-nil, receives the serve.* counters above.
	Metrics *telemetry.Registry
}

func (c Config) fill() Config {
	if c.Mask == nil {
		c.Mask = gr.MaskFull()
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 4096
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 256
	}
	if c.BatchDeadline == 0 {
		c.BatchDeadline = 200 * time.Microsecond
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.TraceWindowSteps <= 0 {
		c.TraceWindowSteps = 256
	}
	if c.ReprimeWindow == 0 {
		c.ReprimeWindow = 8
	} else if c.ReprimeWindow < 0 {
		c.ReprimeWindow = 0
	}
	return c
}

// session is one flow's resident state: the recurrent hidden vector plus
// lifecycle bookkeeping. Sessions are created on first use, reset on
// guard re-admission, and LRU-evicted past Config.MaxSessions.
type session struct {
	id     uint64
	hidden []float64
	// stateBuf holds the raw state between enqueue and Flush on the
	// synchronous path (the monitor's slice is not ours to keep), and
	// between Decide and the worker's pass on the async one.
	stateBuf []float64
	busy     bool // one outstanding async request per session
	elem     *list.Element
	// inPass is the epoch of the synchronous pass that gathered this
	// session's row; a write to the row's inputs while that pass is open
	// makes the pass stale.
	inPass uint64

	// The async request slot. busy admits one outstanding Decide per
	// session, so the session itself is the queued request: stateBuf carries
	// the input, done the reply, admit the admission time.
	done  chan asyncResult // 1-buffered, made on the first Decide
	admit time.Time

	// window is a ring of the last Config.ReprimeWindow raw states that
	// produced a policy decision, oldest first from window[wpos]: the trace
	// Swap replays through an incoming model to migrate this session's
	// recurrent state. Fallback decisions are excluded — they never touched
	// the hidden state.
	window [][]float64
	wpos   int

	// degraded pins the session to fallback decisions (ratio 1) after a
	// hot-swap re-prime produced non-finite hidden state. Cleared by
	// ResetSession, so a guard trip/restore cycle re-admits the flow
	// against the new model from a fresh hidden state.
	degraded bool

	// pendingReset records a ResetSession that arrived while a worker owned
	// this session's state (busy); applied when the in-flight decision
	// releases it.
	pendingReset bool

	// trace is the open decision window exported to Config.Trace when this
	// session's story ends (close/evict/reset/drain/swap) or the window
	// fills. Nil when tracing is off.
	trace []TraceStep
}

// recordWindow appends a decided state to the re-prime ring (copying it).
// The ring's rows are carved once, on the first record, from one flat
// limit × len(state) buffer; a state of another length gets a row of its
// own.
func (s *session) recordWindow(state []float64, limit int) {
	if limit <= 0 {
		return
	}
	if cap(s.window) < limit {
		d := len(state)
		flat := make([]float64, limit*d)
		s.window = make([][]float64, limit)
		for i := range s.window {
			s.window[i] = flat[i*d : (i+1)*d : (i+1)*d]
		}
		s.window = s.window[:0]
	}
	i := s.wpos
	if len(s.window) < limit {
		i = len(s.window)
		s.window = s.window[:i+1]
	} else {
		s.wpos = (s.wpos + 1) % limit
	}
	if len(s.window[i]) != len(state) {
		s.window[i] = make([]float64, len(state))
	}
	copy(s.window[i], state)
}

// windowOrdered returns the ring oldest-first (aliasing the ring's slices).
func (s *session) windowOrdered() [][]float64 {
	if s.wpos == 0 {
		return s.window
	}
	out := make([][]float64, 0, len(s.window))
	out = append(out, s.window[s.wpos:]...)
	return append(out, s.window[:s.wpos]...)
}

func (s *session) clearWindow() {
	s.window = s.window[:0]
	s.wpos = 0
}

// pendingDecision is one enqueued synchronous decision.
type pendingDecision struct {
	sess *session
	conn *tcp.Conn
}

// asyncResult is a worker's reply to one Decide.
type asyncResult struct {
	ratio    float64
	fallback bool
}

// Engine multiplexes flows onto shared batched forward passes.
type Engine struct {
	cfg Config

	mu       sync.Mutex
	sessions map[uint64]*session
	lru      list.List // front = most recently used
	pending  []pendingDecision
	// The open synchronous pass: its epoch, which every session it gathered
	// carries in inPass, and whether a row it gathered went stale before
	// Flush (Swap, ResetSession, a second Enqueue of one session). Flush
	// forwards a stale pass again from the sessions as they are then.
	passEpoch uint64
	passStale bool

	nextID atomic.Uint64

	// The synchronous path's pass (Enqueue gathers, Flush decides); single
	// caller, the sim loop.
	tiles *tilePass

	// polMu guards the hot-swappable parts of cfg (Policy, Mask) plus the
	// shadow observer. Passes snapshot them under a read lock; Swap mutates
	// them only after draining every in-flight batch.
	polMu  sync.RWMutex
	shadow ShadowObserver

	// Async machinery (Start/Decide/Close).
	closeMu sync.RWMutex
	closed  bool
	started bool
	reqCh   chan *session // busy sessions awaiting a worker (see session.done)
	passes  []*tilePass   // each worker's own
	wg      sync.WaitGroup
	queued  atomic.Int64

	// Overload protection (nil when Config.Overload is nil).
	ov     *overload
	ovStop chan struct{}
}

// NewEngine builds an engine around a policy. Panics if cfg.Policy is nil.
func NewEngine(cfg Config) *Engine {
	if cfg.Policy == nil {
		panic("serve: Config.Policy is required")
	}
	cfg = cfg.fill()
	e := &Engine{cfg: cfg, sessions: make(map[uint64]*session)}
	if cfg.Overload != nil {
		e.ov = newOverload(*cfg.Overload, cfg.MaxBatch, cfg.BatchDeadline, cfg.Metrics)
	}
	e.tiles = newTilePass(cfg.MaxBatch, cfg.Seed+7919, false)
	e.passEpoch = 1
	return e
}

// NewSessionID allocates a session id no other caller holds. Sessions
// themselves materialize lazily on first use; ids chosen by external
// clients (the daemon protocol) work the same way.
func (e *Engine) NewSessionID() uint64 { return e.nextID.Add(1) }

// sessionLocked returns the session for id, creating it (and evicting the
// LRU idle session past the cap) as needed. Caller holds e.mu.
func (e *Engine) sessionLocked(id uint64) *session {
	if s, ok := e.sessions[id]; ok {
		e.lru.MoveToFront(s.elem)
		return s
	}
	for len(e.sessions) >= e.cfg.MaxSessions {
		if !e.evictLocked() {
			break // everything is busy; admit over cap rather than deadlock
		}
	}
	s := &session{id: id, hidden: e.cfg.Policy.InitHidden()}
	s.elem = e.lru.PushFront(s)
	e.sessions[id] = s
	e.cfg.Metrics.Counter(MetricSessOpened).Inc()
	e.cfg.Metrics.Gauge(MetricSessions).Set(float64(len(e.sessions)))
	return s
}

// evictLocked removes the least-recently-used non-busy session. Returns
// false when every resident session is busy.
func (e *Engine) evictLocked() bool {
	for el := e.lru.Back(); el != nil; el = el.Prev() {
		s := el.Value.(*session)
		if s.busy {
			continue
		}
		e.exportTrace(s, TraceReasonEvict)
		e.lru.Remove(el)
		delete(e.sessions, s.id)
		e.cfg.Metrics.Counter(MetricSessEvicted).Inc()
		e.cfg.Metrics.Gauge(MetricSessions).Set(float64(len(e.sessions)))
		return true
	}
	return false
}

// ResetSession clears a session's recurrent state (between flows, or when
// the runtime guardian re-admits the policy). It also clears the hot-swap
// degraded pin and the re-prime trace window, so a flow the guardian
// re-admits after a swap starts cleanly against the *current* model rather
// than replaying state from before its fallback episode. A session that
// was evicted or never used is a no-op: it would start fresh anyway.
// A reset racing an in-flight async decide is deferred: the decision in
// flight completes against the pre-reset state (busy means a worker owns
// the hidden vector exclusively), and the reset applies the moment that
// decision releases the session.
func (e *Engine) ResetSession(id uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s, ok := e.sessions[id]; ok {
		if s.busy {
			s.pendingReset = true
			return
		}
		e.resetLocked(s)
	}
}

// resetLocked clears a session's recurrent state, degraded pin, and
// re-prime window. Caller holds e.mu and the session must not be busy.
func (e *Engine) resetLocked(s *session) {
	if s.inPass == e.passEpoch {
		e.passStale = true
	}
	e.exportTrace(s, TraceReasonReset)
	for i := range s.hidden {
		s.hidden[i] = 0
	}
	s.degraded = false
	s.pendingReset = false
	s.clearWindow()
	e.cfg.Metrics.Counter(MetricSessReset).Inc()
}

// SessionDegraded reports whether a hot-swap left this session pinned to
// fallback decisions (re-priming its hidden state produced non-finite
// values). The runtime guardian polls this to trip such flows to the
// heuristic path; ResetSession clears the pin.
func (e *Engine) SessionDegraded(id uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.sessions[id]
	return ok && s.degraded
}

// SetShadow installs (or, with nil, removes) a shadow observer that sees
// every subsequent decision. Safe to call while the engine is serving; the
// observer must not mutate the state slice it is handed.
func (e *Engine) SetShadow(obs ShadowObserver) {
	e.polMu.Lock()
	e.shadow = obs
	e.polMu.Unlock()
}

// CloseSession frees a session's resident state.
func (e *Engine) CloseSession(id uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s, ok := e.sessions[id]; ok && !s.busy {
		e.exportTrace(s, TraceReasonClose)
		e.lru.Remove(s.elem)
		delete(e.sessions, id)
		e.cfg.Metrics.Gauge(MetricSessions).Set(float64(len(e.sessions)))
	}
}

// Sessions reports the resident session count.
func (e *Engine) Sessions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sessions)
}

// ---------------------------------------------------------------------------
// Synchronous path: enqueue during the control sweep, Flush at interval end.

// Enqueue records that session id's flow wants a decision on state this
// interval; the decision is computed and applied (SetCwnd + Kick) by the
// next Flush, in enqueue order. The state slice is copied, and the first
// Config.MaxBatch rows of the interval are gathered into the open pass at
// once, so its forward can start before Flush (see tilePass). An Enqueue
// that races with Close is a no-op: a draining engine accepts no new work,
// and the session is left idle so CloseSession can release it.
func (e *Engine) Enqueue(id uint64, conn *tcp.Conn, state []float64) {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.sessionLocked(id)
	s.stateBuf = append(s.stateBuf[:0], state...)
	switch n := len(e.pending); {
	case s.inPass == e.passEpoch:
		// The row gathered for this session read the state just overwritten.
		e.passStale = true
	case n < e.cfg.MaxBatch && !e.passStale:
		if n == 0 {
			// Swap writes Policy and Mask under mu too.
			e.tiles.open(e.cfg.Policy, e.cfg.Mask, len(s.hidden))
		}
		s.inPass = e.passEpoch
		e.tiles.add(s)
	}
	e.pending = append(e.pending, pendingDecision{sess: s, conn: conn})
}

// endPassLocked closes the open synchronous pass: the next Enqueue opens
// another. Caller holds e.mu.
func (e *Engine) endPassLocked() {
	e.passEpoch++
	e.passStale = false
}

// Flush runs the batched forward pass over everything enqueued since the
// last Flush and applies each flow's cwnd decision in enqueue order.
// Within one GR interval no simulation events run between the control
// sweep and the flush, so deferred application is semantically identical
// to deciding inline — and in deterministic mode bitwise identical to a
// per-flow rl.PolicyController. Not safe for concurrent use (the sim loop
// is single-threaded); concurrent servers use Start/Decide instead.
//
// The first Config.MaxBatch rows were gathered as they were enqueued and
// may be forwarded already; Flush finishes their pass. Every later chunk of
// MaxBatch rows, and the first one when its pass went stale, is gathered
// here and forwarded the same way. Each chunk's decisions are then taken
// and applied serially on the calling goroutine.
func (e *Engine) Flush(now sim.Time) {
	e.mu.Lock()
	pend := e.pending
	e.pending = e.pending[len(e.pending):]
	stale := e.passStale
	e.endPassLocked()
	e.mu.Unlock()
	if len(pend) == 0 {
		return
	}
	if e.ov != nil {
		e.ov.notePeak(int64(len(pend)))
		switch {
		case e.ov.mode() >= ModeDegraded:
			// Brownout: every flow still gets an explicit decision this
			// interval — the cheap ratio-1.0 path, no forward pass. A
			// guard-wrapped flow sees BrownedOut() and trips to its
			// heuristic, which then really controls the window.
			e.applyFallback(pend, now)
			pend = pend[:0]
			e.tiles.quiesce() // no tile of the pass may run once Flush returns
		case len(pend) > e.ov.cfg.MaxInflight:
			// Bound the learned-path backlog; the overflow tail gets the
			// cheap path rather than growing the batched pass without limit.
			e.applyFallback(pend[e.ov.cfg.MaxInflight:], now)
			pend = pend[:e.ov.cfg.MaxInflight]
		}
		defer e.ov.maybeEval(time.Now())
	}
	for lo := 0; lo < len(pend); lo += e.cfg.MaxBatch {
		chunk := pend[lo:min(lo+e.cfg.MaxBatch, len(pend))]
		if lo > 0 || stale {
			e.fillPass(e.tiles, chunk)
		}
		e.decide(chunk, e.tiles, func(i int, ratio float64) {
			c := chunk[i].conn
			c.SetCwnd(tcp.ClampCwnd(c.Cwnd*ratio, tcp.MinCwnd, e.cfg.MaxCwnd))
			c.Kick(now)
		})
	}
	e.mu.Lock()
	if len(e.pending) == 0 {
		e.pending = pend[:0] // reclaim the backing array for the next interval
	}
	e.mu.Unlock()
}

// applyFallback serves pending synchronous decisions via the cheap
// ratio-1.0 path: the window is clamped in place and the flow kicked, so
// degradation is an explicit decision, never silence. Deliberately not
// counted in serve.decisions/serve.fallbacks — those describe the model's
// health, and brownout is a capacity condition (serve.overload.degraded
// carries it instead).
func (e *Engine) applyFallback(pend []pendingDecision, now sim.Time) {
	for _, p := range pend {
		c := p.conn
		c.SetCwnd(tcp.ClampCwnd(c.Cwnd, tcp.MinCwnd, e.cfg.MaxCwnd))
		c.Kick(now)
	}
	e.ov.noteDegraded(int64(len(pend)))
}

// fillPass opens t over the current policy and mask and gathers chunk's
// sessions into it: Flush's later and stale chunks, and an async worker's
// batch.
func (e *Engine) fillPass(t *tilePass, chunk []pendingDecision) {
	e.polMu.RLock()
	pol, mask := e.cfg.Policy, e.cfg.Mask
	e.polMu.RUnlock()
	t.open(pol, mask, len(chunk[0].sess.hidden))
	for _, p := range chunk {
		t.add(p.sess)
	}
}

// decide seals and joins t, whose rows are chunk's, then runs its serial
// tail in enqueue order on the calling goroutine: per row, rl.HeadAction
// (and, in stochastic mode, the draws from t's RNG), the hidden-state copy
// and re-prime window, trace, shadow, metrics, then apply with the row's
// cwnd ratio. t.fallback[i] marks on entry a non-finite state; a session
// degraded by a failed hot-swap re-prime, or a non-finite action, falls
// back too. A fallback row gets ratio 1.0 and keeps its previous hidden
// state; on return t.fallback marks every such row.
func (e *Engine) decide(chunk []pendingDecision, t *tilePass, apply func(i int, ratio float64)) {
	t.seal()
	t.join()
	e.polMu.RLock()
	shadow := e.shadow
	e.polMu.RUnlock()
	if shadow != nil && e.ov != nil && e.ov.mode() >= ModeShedShadow {
		// First rung of the brownout ladder: candidate mirroring is load
		// the serving plane can shed before any live flow feels anything.
		e.ov.noteShadowShed(int64(len(chunk)))
		shadow = nil
	}
	fallback := t.fallback
	for i, p := range chunk {
		s := p.sess
		fallback[i] = fallback[i] || s.degraded
		ratio := 1.0
		if !fallback[i] {
			u, r := rl.HeadAction(t.pol.GMM, t.heads.Row(i), t.meanBuf, e.cfg.Stochastic, false, t.rng)
			if math.IsNaN(u) || math.IsNaN(r) || math.IsInf(r, 0) {
				fallback[i] = true
			} else {
				ratio = r
				copy(s.hidden, t.hNew.Row(i))
				s.recordWindow(s.stateBuf, e.cfg.ReprimeWindow)
			}
		}
		if fallback[i] {
			e.cfg.Metrics.Counter(MetricFallbacks).Inc()
		}
		e.cfg.Metrics.Counter(MetricDecisions).Inc()
		// Trace and shadow before apply: on the async path apply hands the
		// session back to its caller, after which the next Decide may rewrite
		// stateBuf and a concurrent CloseSession may export the window.
		if e.cfg.Trace != nil && finiteVec(s.stateBuf) {
			s.recordTrace(s.stateBuf, ratio, fallback[i])
			if len(s.trace) >= e.cfg.TraceWindowSteps {
				e.exportTrace(s, TraceReasonRotate)
			}
		}
		if shadow != nil {
			shadow.Observe(s.id, s.stateBuf, ratio, fallback[i])
		}
		apply(i, ratio)
	}
	e.cfg.Metrics.Counter(MetricBatches).Inc()
	e.cfg.Metrics.Histogram(MetricBatchSize).Observe(float64(len(chunk)))
}

// ---------------------------------------------------------------------------
// Asynchronous path: a work-conserving batcher. Workers pull straight off
// the request queue, so a request never waits while a worker idles, and
// batches grow by themselves exactly when every worker is busy.

// Start spins up the worker pool behind Decide. Safe to call once; the
// synchronous Enqueue/Flush path does not need it.
func (e *Engine) Start() {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.started || e.closed {
		return
	}
	e.started = true
	depth := 4 * e.cfg.MaxBatch
	if e.ov != nil && e.ov.cfg.MaxInflight > depth {
		// Admission control already bounds in-flight work at MaxInflight;
		// sizing the channel to match keeps every admitted send
		// non-blocking, so rejection — not stalling — is the only
		// backpressure an admitted caller ever sees.
		depth = e.ov.cfg.MaxInflight
	}
	e.reqCh = make(chan *session, depth)
	e.wg.Add(e.cfg.Workers)
	e.passes = make([]*tilePass, e.cfg.Workers)
	for w := range e.passes {
		e.passes[w] = newTilePass(e.cfg.MaxBatch, e.cfg.Seed+7919*int64(w+2), true)
		go e.worker(e.passes[w])
	}
	if e.ov != nil {
		e.ovStop = make(chan struct{})
		e.wg.Add(1)
		go e.overloadLoop(e.ovStop)
	}
}

// Decide blocks until the engine has batched and served a decision for
// session id: it returns the new cwnd for a flow currently at cwnd whose
// state vector is state. fallback reports that the decision was a safety
// no-op (non-finite state or action, or an overload brownout serving the
// cheap path). A session with a request already in flight gets
// ErrSessionBusy — retry after the outstanding call returns. Decide is
// low-priority: under brownout it degrades first (see DecidePri).
func (e *Engine) Decide(id uint64, cwnd float64, state []float64) (newCwnd float64, fallback bool, err error) {
	return e.DecidePri(id, cwnd, state, false)
}

// DecidePri is Decide with an explicit priority class. With overload
// protection enabled, admission control applies:
//
//   - ModeDraining: sessions the engine does not already hold are rejected
//     with a typed *OverloadError (admit-nothing-new); resident sessions
//     are served the cheap ratio-1.0 fallback while the backlog drains.
//   - ModeDegraded: low-priority requests get the cheap ratio-1.0 fallback
//     immediately (an explicit decision, never silence); high-priority
//     requests still run the learned policy.
//   - At the global in-flight cap (MaxInflight) any request is rejected
//     with *OverloadError instead of queueing unboundedly.
//
// The cheap paths never create or touch session state, so a shed or
// degraded request cannot grow the session table.
func (e *Engine) DecidePri(id uint64, cwnd float64, state []float64, highPri bool) (newCwnd float64, fallback bool, err error) {
	e.closeMu.RLock()
	if e.closed || !e.started {
		e.closeMu.RUnlock()
		return cwnd, false, ErrClosed
	}
	if e.ov != nil {
		switch mode := e.ov.mode(); {
		case mode == ModeDraining:
			e.mu.Lock()
			_, resident := e.sessions[id]
			e.mu.Unlock()
			if !resident {
				err := e.ov.reject(mode)
				e.closeMu.RUnlock()
				return cwnd, false, err
			}
			e.ov.noteDegraded(1)
			e.closeMu.RUnlock()
			return tcp.ClampCwnd(cwnd, tcp.MinCwnd, e.cfg.MaxCwnd), true, nil
		case mode >= ModeDegraded && !highPri:
			e.ov.noteDegraded(1)
			e.closeMu.RUnlock()
			return tcp.ClampCwnd(cwnd, tcp.MinCwnd, e.cfg.MaxCwnd), true, nil
		}
	}
	e.mu.Lock()
	s := e.sessionLocked(id)
	if s.busy {
		e.mu.Unlock()
		e.closeMu.RUnlock()
		return cwnd, false, ErrSessionBusy
	}
	s.busy = true
	e.mu.Unlock()

	n := e.queued.Add(1)
	if e.ov != nil {
		if n > int64(e.ov.cfg.MaxInflight) {
			// Bounded queue: reject explicitly rather than stack work the
			// batcher cannot serve within budget.
			e.release(s)
			err := e.ov.reject(e.ov.mode())
			e.closeMu.RUnlock()
			return cwnd, false, err
		}
		e.ov.notePeak(n)
		e.ov.noteAdmitted()
	}
	// busy makes this goroutine the slot's only writer until a worker
	// dequeues the session, so the request costs no allocation.
	s.stateBuf = append(s.stateBuf[:0], state...)
	if s.done == nil {
		s.done = make(chan asyncResult, 1)
	}
	s.admit = time.Now()
	e.cfg.Metrics.Gauge(MetricQueueDepth).Set(float64(n))
	e.reqCh <- s
	e.closeMu.RUnlock() // a worker now owns the session; drain will serve it

	res := <-s.done
	if e.ov != nil {
		e.ov.noteLatency(time.Since(s.admit))
	}
	e.release(s)
	w := tcp.ClampCwnd(cwnd*res.ratio, tcp.MinCwnd, e.cfg.MaxCwnd)
	return w, res.fallback, nil
}

// release ends a session's outstanding request: the session may be decided
// on, reset, closed or evicted again, and its in-flight slot is returned.
// The admitting goroutine calls it, not the worker — were busy dropped
// before the reply is received, a second Decide could reuse done and take
// the first one's result.
func (e *Engine) release(s *session) {
	e.mu.Lock()
	s.busy = false
	if s.pendingReset {
		e.resetLocked(s)
	}
	e.mu.Unlock()
	e.cfg.Metrics.Gauge(MetricQueueDepth).Set(float64(e.queued.Add(-1)))
}

// worker blocks for one request, takes whatever else is already queued,
// gathers them into its pass t, decides and completes each request's
// future. The single yield between two drains lets connection goroutines
// that are runnable right now enqueue first: with every worker busy that is
// what rebuilds large batches, and on an idle engine it returns at once.
func (e *Engine) worker(t *tilePass) {
	defer e.wg.Done()
	chunk := make([]pendingDecision, 0, e.cfg.MaxBatch)
	for {
		first, open := <-e.reqCh
		if !open {
			return
		}
		chunk = e.takeQueued(append(chunk[:0], pendingDecision{sess: first}))
		if len(chunk) < e.cfg.MaxBatch {
			runtime.Gosched()
			chunk = e.takeQueued(chunk)
		}
		// Batch wait is admission → start of the pass for the batch's oldest
		// request (the queue is FIFO), so time behind busy workers counts.
		wait := time.Since(chunk[0].sess.admit)
		e.cfg.Metrics.Histogram(MetricBatchWaitUs).Observe(float64(wait.Microseconds()))
		if e.ov != nil {
			e.ov.noteBatchWait(wait)
		}
		e.fillPass(t, chunk)
		e.decide(chunk, t, func(i int, ratio float64) {
			chunk[i].sess.done <- asyncResult{ratio: ratio, fallback: t.fallback[i]}
		})
	}
}

// takeQueued appends requests that are already queued, without blocking,
// until the batch is full.
func (e *Engine) takeQueued(chunk []pendingDecision) []pendingDecision {
	for len(chunk) < e.cfg.MaxBatch {
		select {
		case s, open := <-e.reqCh:
			if !open {
				return chunk
			}
			chunk = append(chunk, pendingDecision{sess: s})
		default:
			return chunk
		}
	}
	return chunk
}

// Close drains the async path: queued and in-flight decisions complete,
// then the workers exit. Decide afterwards returns ErrClosed
// and Enqueue becomes a no-op. Synchronous decisions enqueued but never
// flushed are dropped and their sessions released (not left pinned to a
// stale pending entry), so a drain that races a flow mid-Enqueue still
// lets CloseSession free everything. Safe to call multiple times; a
// never-Started engine just flips the closed flag.
func (e *Engine) Close() {
	e.closeMu.Lock()
	if e.closed {
		e.closeMu.Unlock()
		return
	}
	e.closed = true
	started := e.started
	if started {
		close(e.reqCh)
	}
	if e.ovStop != nil {
		close(e.ovStop)
		e.ovStop = nil
	}
	e.closeMu.Unlock()
	if started {
		e.wg.Wait()
	}
	// No Enqueue can be mid-flight here (Enqueue holds closeMu.RLock for
	// its full critical section), so dropping the backlog under e.mu is
	// race-free.
	e.mu.Lock()
	e.pending = nil
	e.endPassLocked()
	// Every worker has exited and no new decision can start, so each
	// session's open trace window is final: flush them whole, so a drain
	// never strands served experience in memory.
	for _, s := range e.sessions {
		e.exportTrace(s, TraceReasonDrain)
	}
	e.mu.Unlock()
}

func finiteVec(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func zero(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}
