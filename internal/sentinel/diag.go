package sentinel

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"sage/internal/nn"
	"sage/internal/rl"
	"sage/internal/safeio"
)

// ParamHistogram summarizes the magnitude distribution of a module's
// parameters: |v| bucketed by decade plus explicit zero/NaN/Inf counts.
// It makes "how broken are the weights" legible from the diagnostic
// bundle without shipping the weights themselves.
type ParamHistogram struct {
	Total int `json:"total"`
	Zero  int `json:"zero"`
	NaN   int `json:"nan"`
	Inf   int `json:"inf"`
	// Decades[d] counts finite non-zero values with floor(log10|v|) == d,
	// clamped to [MinDecade, MaxDecade]. Keys are the decade exponents.
	Decades map[int]int `json:"decades"`
}

const (
	minDecade = -12
	maxDecade = 12
)

// HistogramParams buckets every parameter scalar of the module.
func HistogramParams(m nn.Module) ParamHistogram {
	h := ParamHistogram{Decades: map[int]int{}}
	for _, p := range m.Params() {
		for _, v := range p.Data {
			h.Total++
			switch {
			case math.IsNaN(v):
				h.NaN++
			case math.IsInf(v, 0):
				h.Inf++
			case v == 0:
				h.Zero++
			default:
				d := int(math.Floor(math.Log10(math.Abs(v))))
				if d < minDecade {
					d = minDecade
				}
				if d > maxDecade {
					d = maxDecade
				}
				h.Decades[d]++
			}
		}
	}
	return h
}

// Diagnostics is the abort bundle: everything needed to understand a run
// the sentinel gave up on, written as plain JSON next to the checkpoint.
type Diagnostics struct {
	Reason    string  `json:"reason"`
	Step      int     `json:"step"`      // absolute learner step at abort
	Trips     int     `json:"trips"`     // total flagged batches
	Skips     int     `json:"skips"`     // batches rejected pre-optimizer
	Rollbacks int     `json:"rollbacks"` // checkpoint rollbacks performed
	LRScale   float64 `json:"lr_scale"`  // LR multiplier at abort
	LossEMA   float64 `json:"loss_ema"`  // critic-loss EMA at abort

	// OffendingBatches are the sampler positions (rl.TrainStats.BatchID)
	// of every batch that tripped the sentinel, in order.
	OffendingBatches []uint64 `json:"offending_batches"`
	// StatsWindow is the most recent TrainStats seen (applied or skipped).
	StatsWindow []rl.TrainStats `json:"stats_window"`
	// Events is the full decision log.
	Events []Event `json:"events"`
	// PolicyParams and CriticParams summarize the final weights.
	PolicyParams ParamHistogram `json:"policy_params"`
	CriticParams ParamHistogram `json:"critic_params"`
}

// abort assembles the bundle, writes it atomically, bumps the counter,
// and returns the terminal error.
func (s *Sentinel) abort(reason string) error {
	s.cfg.Metrics.Counter(MetricAborts).Inc()
	step := s.learner.StepsDone()
	s.event(Event{Step: step, Kind: KindAbort, Reason: reason, LRScale: s.lrScale})
	d := Diagnostics{
		Reason:           reason,
		Step:             step,
		Trips:            s.trips,
		Skips:            s.skips,
		Rollbacks:        s.rollbacks,
		LRScale:          s.lrScale,
		LossEMA:          s.ema,
		OffendingBatches: append([]uint64(nil), s.offend...),
		StatsWindow:      append([]rl.TrainStats(nil), s.statsWin...),
		Events:           s.Events(),
		PolicyParams:     HistogramParams(s.learner.Policy),
		CriticParams:     HistogramParams(s.learner.NAF),
	}
	diagPath := s.cfg.CheckpointPath + diagSuffix
	werr := WriteDiagnostics(diagPath, d)
	if werr != nil {
		return fmt.Errorf("sentinel: training aborted at step %d: %s (and writing diagnostics failed: %v)", step, reason, werr)
	}
	return fmt.Errorf("sentinel: training aborted at step %d: %s (diagnostics: %s)", step, reason, diagPath)
}

// WriteDiagnostics writes the bundle as indented JSON via an atomic
// rename, so a crash mid-abort never leaves a truncated report.
func WriteDiagnostics(path string, d Diagnostics) error {
	// NaN/Inf stats are expected in an abort bundle but are not valid
	// JSON; sanitize them to sentinel strings field-by-field is overkill —
	// instead clamp non-finite floats in the stats window.
	for i := range d.StatsWindow {
		sanitizeStats(&d.StatsWindow[i])
	}
	for i := range d.Events {
		if !finite(d.Events[i].CriticLoss) {
			d.Events[i].CriticLoss = 0
		}
		if !finite(d.Events[i].LossEMA) {
			d.Events[i].LossEMA = 0
		}
	}
	if !finite(d.LossEMA) {
		d.LossEMA = 0
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return safeio.WriteFileRaw(path, func(w io.Writer) error {
		_, werr := w.Write(b)
		return werr
	})
}

func sanitizeStats(st *rl.TrainStats) {
	for _, f := range []*float64{
		&st.CriticLoss, &st.PolicyLoss, &st.MeanFilter, &st.FilterAccept,
		&st.AdvMean, &st.AdvStd, &st.GradNormPi, &st.GradNormQ,
		&st.GradNormPiClip, &st.GradNormQClip,
	} {
		if !finite(*f) {
			*f = 0
		}
	}
}
