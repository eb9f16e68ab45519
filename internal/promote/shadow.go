package promote

import (
	"math"
	"sync"

	"sage/internal/core"
	"sage/internal/rl"
	"sage/internal/telemetry"
)

// Shadow metric names.
const (
	MetricShadowObserved   = "shadow.observed"   // live decisions seen
	MetricShadowMirrored   = "shadow.mirrored"   // decisions replayed on the candidate
	MetricShadowFallbacks  = "shadow.fallbacks"  // live decisions that were safety no-ops
	MetricShadowDivergence = "shadow.divergence" // histogram of |u_cand − u_live|
)

// ShadowConfig tunes the shadow evaluator.
type ShadowConfig struct {
	// Metrics receives the shadow.* series (nil costs nothing).
	Metrics *telemetry.Registry
}

// maxShadowSessions bounds the candidate session pool.
const maxShadowSessions = 4096

// RegimeDivergence aggregates candidate/incumbent action divergence for
// one regime bucket.
type RegimeDivergence struct {
	N          int64   `json:"n"`
	MeanAbsDiv float64 `json:"mean_abs_div"`
	MaxAbsDiv  float64 `json:"max_abs_div"`
}

// ShadowStats is a point-in-time digest of the shadow run.
type ShadowStats struct {
	Observed   int64                       `json:"observed"`
	Mirrored   int64                       `json:"mirrored"`
	Fallbacks  int64                       `json:"fallbacks"`
	MeanAbsDiv float64                     `json:"mean_abs_div"`
	MaxAbsDiv  float64                     `json:"max_abs_div"`
	PerRegime  map[string]RegimeDivergence `json:"per_regime,omitempty"`
}

// Shadow mirrors live serve.Engine decisions onto a candidate model in a
// second session pool. It implements serve.ShadowObserver: the engine
// hands it every decision *after* applying the incumbent's action, so the
// candidate's output is recorded — divergence in action space, per-regime
// aggregates — but can never reach a connection. Safe for concurrent use
// (the engine's workers call Observe from multiple goroutines); the
// candidate forward pass runs under one mutex, which is why the shadow
// pool is separate from the serving hot path.
type Shadow struct {
	cfg ShadowConfig

	mu        sync.Mutex
	sessions  map[uint64]*shadowSess
	regimes   map[uint64]string
	stats     map[string]*regimeAcc
	observed  int64
	mirrored  int64
	fallbacks int64
	sumAbs    float64
	maxAbs    float64
	step      rl.Stepper // the candidate (policy + mask) and its one-row forward, under mu
	meanBuf   []float64
}

type shadowSess struct {
	hidden []float64
}

type regimeAcc struct {
	n      int64
	sumAbs float64
	maxAbs float64
}

// NewShadow builds a shadow evaluator for candidate cand.
func NewShadow(cand *core.Model, cfg ShadowConfig) *Shadow {
	return &Shadow{
		cfg:      cfg,
		step:     rl.Stepper{Policy: cand.Policy, Mask: cand.Mask},
		meanBuf:  make([]float64, cand.Policy.GMM.K),
		sessions: make(map[uint64]*shadowSess),
		regimes:  make(map[uint64]string),
		stats:    make(map[string]*regimeAcc),
	}
}

// TagSession attributes session sid's subsequent decisions to a regime
// bucket (e.g. the netem scenario family it is running under). Tags are
// capped at twice the session-pool bound and expire alongside it (a tag
// whose session was evicted goes first), so tagging an unbounded stream
// of session ids cannot leak; the per-regime stats map is bounded by the
// number of distinct regime names, not by session count.
func (s *Shadow) TagSession(sid uint64, regime string) {
	s.mu.Lock()
	if _, ok := s.regimes[sid]; !ok && len(s.regimes) >= 2*maxShadowSessions {
		// At least half the tags have no live shadow session (the pool is
		// capped at maxShadowSessions): evict one of those, never a live one.
		for k := range s.regimes {
			if _, live := s.sessions[k]; !live {
				delete(s.regimes, k)
				break
			}
		}
	}
	s.regimes[sid] = regime
	s.mu.Unlock()
}

// Observe implements serve.ShadowObserver. Every session is mirrored
// whole, so the candidate's recurrent state stays coherent. ratio is the
// multiplicative cwnd action the incumbent actually applied; fallback
// marks safety no-ops (non-finite state or a degraded session), which are
// counted but not mirrored — the candidate would be judged on garbage
// input.
func (s *Shadow) Observe(sid uint64, state []float64, ratio float64, fallback bool) {
	s.cfg.Metrics.Counter(MetricShadowObserved).Inc()
	if fallback {
		s.cfg.Metrics.Counter(MetricShadowFallbacks).Inc()
		s.mu.Lock()
		s.observed++
		s.fallbacks++
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observed++
	sess, ok := s.sessions[sid]
	if !ok {
		if len(s.sessions) >= maxShadowSessions {
			for k := range s.sessions { // approximate eviction: drop one
				delete(s.sessions, k)
				delete(s.regimes, k) // its regime tag must not outlive it
				break
			}
		}
		sess = &shadowSess{hidden: s.step.Policy.InitHidden()}
		s.sessions[sid] = sess
	}
	head := s.step.Step(state, sess.hidden)
	// Deterministic mixture mean: the shadow never samples, so it cannot
	// perturb any RNG the serving path owns.
	uCand := s.step.Policy.GMM.MeanInto(head, s.meanBuf)
	uLive := math.Log2(ratio)
	div := math.Abs(uCand - uLive)
	if math.IsNaN(div) || math.IsInf(div, 0) {
		return
	}
	s.mirrored++
	s.sumAbs += div
	if div > s.maxAbs {
		s.maxAbs = div
	}
	s.cfg.Metrics.Counter(MetricShadowMirrored).Inc()
	s.cfg.Metrics.Histogram(MetricShadowDivergence).Observe(div)
	if regime, ok := s.regimes[sid]; ok {
		acc := s.stats[regime]
		if acc == nil {
			acc = &regimeAcc{}
			s.stats[regime] = acc
		}
		acc.n++
		acc.sumAbs += div
		if div > acc.maxAbs {
			acc.maxAbs = div
		}
	}
}

// Stats snapshots the shadow run.
func (s *Shadow) Stats() ShadowStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := ShadowStats{
		Observed:  s.observed,
		Mirrored:  s.mirrored,
		Fallbacks: s.fallbacks,
		MaxAbsDiv: s.maxAbs,
	}
	if s.mirrored > 0 {
		out.MeanAbsDiv = s.sumAbs / float64(s.mirrored)
	}
	if len(s.stats) > 0 {
		out.PerRegime = make(map[string]RegimeDivergence, len(s.stats))
		for regime, acc := range s.stats {
			rd := RegimeDivergence{N: acc.n, MaxAbsDiv: acc.maxAbs}
			if acc.n > 0 {
				rd.MeanAbsDiv = acc.sumAbs / float64(acc.n)
			}
			out.PerRegime[regime] = rd
		}
	}
	return out
}
