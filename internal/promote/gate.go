package promote

import (
	"fmt"
	"sort"
	"strings"

	"sage/internal/cc"
	"sage/internal/core"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/rollout"
	"sage/internal/sim"
	"sage/internal/telemetry"
)

// GateConfig tunes the dominance promotion gate.
type GateConfig struct {
	// Level/Duration/Seed parameterize the default replay suite:
	// the adversarial grid plus Set I (the same regimes the robustness
	// experiment runs). Buckets overrides the suite with an explicit
	// scenario list.
	Level    netem.GridLevel
	Duration sim.Time
	Seed     int64
	Buckets  []netem.Scenario

	// "No worse" tolerance: the candidate's bucket score may trail the
	// incumbent's by AbsTol + RelTol·|incumbent| before the bucket counts
	// as a regression (defaults 0.02 and 0.05). The same margin gates
	// "better", so simulator noise can neither fail nor pass a candidate.
	RelTol float64
	AbsTol float64

	// Shadow, when non-nil, folds a live shadow run into the verdict: a
	// candidate whose mean action divergence exceeds MaxShadowDivergence
	// (in |Δu|, the log2-cwnd-ratio space; default 1.0 when a shadow is
	// supplied) is rejected outright — it is a different policy than the
	// one the suite scored, or it disagrees with the incumbent too wildly
	// to trust a replay-only verdict.
	Shadow              *ShadowStats
	MaxShadowDivergence float64

	// Events, when non-nil, receives the JSONL verdict bundle: one
	// record per (bucket, model) score, then the verdict itself.
	Events *telemetry.JSONL
}

func (c GateConfig) fill() GateConfig {
	if c.Duration == 0 {
		c.Duration = 10 * sim.Second
	}
	if c.RelTol == 0 {
		c.RelTol = 0.05
	}
	if c.AbsTol == 0 {
		c.AbsTol = 0.02
	}
	if c.MaxShadowDivergence == 0 {
		c.MaxShadowDivergence = 1.0
	}
	return c
}

// BucketResult is one regime bucket's incumbent-vs-candidate comparison.
type BucketResult struct {
	Bucket        string  `json:"bucket"`
	Scenarios     int     `json:"scenarios"`
	IncScore      float64 `json:"inc_score"`
	CandScore     float64 `json:"cand_score"`
	IncCompleted  int     `json:"inc_completed"`
	CandCompleted int     `json:"cand_completed"`
	Better        bool    `json:"better"`
	Worse         bool    `json:"worse"`
}

// Verdict is the gate's decision plus everything needed to audit it.
type Verdict struct {
	Promote bool           `json:"promote"`
	Reason  string         `json:"reason"`
	Buckets []BucketResult `json:"buckets"`
	Shadow  *ShadowStats   `json:"shadow,omitempty"`
}

// gateRecord is the per-bucket JSONL line of the verdict bundle.
type gateRecord struct {
	Kind string `json:"kind"` // "gate_bucket" or "gate_verdict"
	BucketResult
	Verdict *Verdict `json:"verdict,omitempty"`
}

// RunGate replays the regime suite for incumbent and candidate and
// decides promotion by dominance: the candidate must be no worse than the
// incumbent in *every* regime bucket and strictly better in at least one.
// A mean-gated candidate can buy its average on easy regimes while
// regressing badly on hard ones — exactly the failure mode learned
// policies exhibit — so the mean never appears in the decision.
//
// Both models run deterministically (mixture mean, fixed seeds) over
// identical scenarios, so a verdict is reproducible bit for bit.
func RunGate(inc, cand *core.Model, cfg GateConfig) Verdict {
	cfg = cfg.fill()
	scens := cfg.Buckets
	if scens == nil {
		scens = append(scens, netem.AdversarialGrid(netem.AdversarialOptions{
			Level: cfg.Level, Duration: cfg.Duration, Seed: cfg.Seed,
		})...)
		scens = append(scens, netem.SetI(netem.SetIOptions{
			Level: cfg.Level, Duration: cfg.Duration, Seed: cfg.Seed,
		})...)
	}

	type acc struct {
		n                 int
		incSum, candSum   float64
		incDone, candDone int
	}
	buckets := make(map[string]*acc)
	var order []string
	for _, sc := range scens {
		b := bucketOf(sc.Name)
		a := buckets[b]
		if a == nil {
			a = &acc{}
			buckets[b] = a
			order = append(order, b)
		}
		incScore, incDone := scoreScenario(inc, sc, cfg.Seed)
		candScore, candDone := scoreScenario(cand, sc, cfg.Seed)
		a.n++
		a.incSum += incScore
		a.candSum += candScore
		if incDone {
			a.incDone++
		}
		if candDone {
			a.candDone++
		}
	}
	sort.Strings(order)

	var v Verdict
	var better, worse []string
	for _, b := range order {
		a := buckets[b]
		br := BucketResult{
			Bucket:        b,
			Scenarios:     a.n,
			IncScore:      a.incSum / float64(a.n),
			CandScore:     a.candSum / float64(a.n),
			IncCompleted:  a.incDone,
			CandCompleted: a.candDone,
		}
		margin := cfg.AbsTol + cfg.RelTol*abs(br.IncScore)
		switch {
		case br.CandCompleted < br.IncCompleted:
			br.Worse = true // a regime the incumbent survives and the candidate doesn't
		case br.CandScore < br.IncScore-margin:
			br.Worse = true
		case br.CandScore > br.IncScore+margin || br.CandCompleted > br.IncCompleted:
			br.Better = true
		}
		if br.Worse {
			worse = append(worse, b)
		}
		if br.Better {
			better = append(better, b)
		}
		v.Buckets = append(v.Buckets, br)
		cfg.Events.Emit(gateRecord{Kind: "gate_bucket", BucketResult: br})
	}

	v.Shadow = cfg.Shadow
	switch {
	case cfg.Shadow != nil && cfg.Shadow.Mirrored > 0 && cfg.Shadow.MeanAbsDiv > cfg.MaxShadowDivergence:
		v.Reason = fmt.Sprintf("shadow divergence %.3f exceeds %.3f",
			cfg.Shadow.MeanAbsDiv, cfg.MaxShadowDivergence)
	case len(worse) > 0:
		v.Reason = "candidate regresses in: " + strings.Join(worse, ", ")
	case len(better) == 0:
		v.Reason = "candidate is not better in any regime bucket"
	default:
		v.Promote = true
		v.Reason = "candidate dominates: better in " + strings.Join(better, ", ")
	}
	cfg.Events.Emit(gateRecord{Kind: "gate_verdict", Verdict: &v})
	return v
}

// scoreScenario runs one model deterministically over one scenario and
// returns its mean per-step GR reward plus whether the flow completed
// (still making delivery progress at the end).
func scoreScenario(m *core.Model, sc netem.Scenario, seed int64) (score float64, completed bool) {
	res := rollout.Run(sc, cc.MustNew("pure"), rollout.Options{
		GR:           m.GR,
		Controller:   m.NewAgent(seed),
		CollectSteps: true,
	})
	return gr.MeanReward(res.Steps), res.Completed()
}

// bucketOf maps a scenario name to its regime bucket: the condition
// family before the first '-' ("flap-48mbps-40ms" → "flap", "flat-…" →
// "flat"), which groups the grid's operating points per pathology.
func bucketOf(name string) string {
	if i := strings.IndexByte(name, '-'); i > 0 {
		return name[:i]
	}
	return name
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
