package collector

import (
	"fmt"
	"io"
	"math"

	"sage/internal/telemetry"
)

// The per-trajectory data-quality gate's fixed bounds. The gate is the
// collection-side half of the training-robustness story: a poisoned
// trajectory quarantined here never reaches the learner, so the training
// sentinel only has to catch what slips through (or corrupts later).
const (
	// minSteps is the shortest usable episode; BuildDataset needs at
	// least one (s,a,r,s') transition, i.e. 2 steps. Empty and
	// single-step trajectories are quarantined as truncated.
	minSteps = 2
	// maxAbsReward bounds |reward| per step: the gr reward is a bounded
	// combination of normalized delay/throughput terms, so anything near
	// this bound is a telemetry glitch, not a signal.
	maxAbsReward = 1e6
	// maxActionRatio bounds the recorded cwnd ratio per step. Ratios must
	// also be strictly positive: a window cannot shrink to or below zero.
	maxActionRatio = 1024
	// frozenRun is how many consecutive identical state vectors mark a
	// frozen flow — a wedged monitor emitting the same observation
	// forever.
	frozenRun = 64
)

// Quarantine reasons.
const (
	ReasonTruncated       = "truncated episode"
	ReasonNonFiniteState  = "non-finite state"
	ReasonNonFiniteAction = "non-finite action"
	ReasonNonFiniteReward = "non-finite reward"
	ReasonRewardRange     = "reward out of range"
	ReasonActionRange     = "action out of range"
	ReasonFrozenState     = "frozen state flow"
	ReasonStateWidth      = "ragged state width"
)

// TrajIssue is one quarantine decision, JSONL-friendly for the sidecar
// report next to the saved pool.
type TrajIssue struct {
	Index  int    `json:"index"` // position in Pool.Trajs
	Scheme string `json:"scheme"`
	Env    string `json:"env"`
	Reason string `json:"reason"`
	Step   int    `json:"step,omitempty"`   // first offending step
	Detail string `json:"detail,omitempty"` // human-readable specifics
}

// QualityReport summarizes one Sanitize pass.
type QualityReport struct {
	Total       int         `json:"total"`
	Kept        int         `json:"kept"`
	Quarantined int         `json:"quarantined"`
	Issues      []TrajIssue `json:"issues"`
}

// CheckTrajectory validates one trajectory and returns every issue found
// (empty = clean). Index/Scheme/Env are left for the caller to fill.
func CheckTrajectory(tr Trajectory) []TrajIssue {
	var issues []TrajIssue
	add := func(reason string, step int, detail string) {
		issues = append(issues, TrajIssue{Reason: reason, Step: step, Detail: detail})
	}
	if len(tr.Steps) < minSteps {
		add(ReasonTruncated, 0, fmt.Sprintf("%d steps, need %d", len(tr.Steps), minSteps))
		return issues // nothing else worth scanning
	}
	if i, ok := raggedStep(tr.Steps); !ok {
		add(ReasonStateWidth, i, fmt.Sprintf("%d state values, step 0 has %d", len(tr.Steps[i].State), len(tr.Steps[0].State)))
		return issues
	}
	frozen := 1
	for i, s := range tr.Steps {
		for _, v := range s.State {
			if !finiteQ(v) {
				add(ReasonNonFiniteState, i, "")
				return issues
			}
		}
		switch {
		case !finiteQ(s.Action):
			add(ReasonNonFiniteAction, i, "")
			return issues
		case s.Action <= 0 || s.Action > maxActionRatio:
			add(ReasonActionRange, i, fmt.Sprintf("cwnd ratio %g", s.Action))
			return issues
		}
		switch {
		case !finiteQ(s.Reward):
			add(ReasonNonFiniteReward, i, "")
			return issues
		case math.Abs(s.Reward) > maxAbsReward:
			add(ReasonRewardRange, i, fmt.Sprintf("reward %g", s.Reward))
			return issues
		}
		if i > 0 && equalStates(tr.Steps[i-1].State, s.State) {
			frozen++
			if frozen >= frozenRun {
				add(ReasonFrozenState, i-frozen+1, fmt.Sprintf("%d identical states", frozen))
				return issues
			}
		} else if i > 0 {
			frozen = 1
		}
	}
	return issues
}

// Sanitize splits the pool into a clean copy and a quarantine report.
// The returned pool shares trajectory backing arrays with the input (the
// gate drops references, it does not rewrite data).
func Sanitize(p *Pool) (*Pool, QualityReport) {
	clean := &Pool{GR: p.GR, Failed: p.Failed}
	rep := QualityReport{Total: len(p.Trajs)}
	for i, tr := range p.Trajs {
		issues := CheckTrajectory(tr)
		if len(issues) == 0 {
			clean.Trajs = append(clean.Trajs, tr)
			continue
		}
		for j := range issues {
			issues[j].Index = i
			issues[j].Scheme = tr.Scheme
			issues[j].Env = tr.Env
		}
		rep.Issues = append(rep.Issues, issues...)
	}
	rep.Kept = len(clean.Trajs)
	rep.Quarantined = rep.Total - rep.Kept
	return clean, rep
}

// Quarantine is the data-quality gate as every tool applies it: Sanitize
// and, when anything was quarantined, the report written to sidecar and
// one summary line on w under the caller's prefix. A clean pool writes no
// sidecar and prints nothing.
func Quarantine(p *Pool, sidecar, prefix string, w io.Writer) (*Pool, QualityReport, error) {
	clean, rep := Sanitize(p)
	if rep.Quarantined > 0 {
		if err := rep.WriteSidecar(sidecar); err != nil {
			return nil, rep, err
		}
		fmt.Fprintf(w, "%s: quarantined %d/%d trajectories (report: %s)\n", prefix, rep.Quarantined, rep.Total, sidecar)
	}
	return clean, rep, nil
}

// ReportFailed lists on w the cells whose rollouts failed permanently.
func (p *Pool) ReportFailed(w io.Writer) {
	for _, f := range p.Failed {
		fmt.Fprintf(w, "failed cell: %s/%s: %s\n", f.Scheme, f.Env, f.Err)
	}
}

// WriteSidecar writes the quarantine report as JSONL (one line per issue,
// preceded by a summary line) next to the pool it describes.
func (r QualityReport) WriteSidecar(path string) error {
	j, err := telemetry.CreateJSONL(path)
	if err != nil {
		return err
	}
	type summary struct {
		Total       int `json:"total"`
		Kept        int `json:"kept"`
		Quarantined int `json:"quarantined"`
	}
	if err := j.Emit(summary{r.Total, r.Kept, r.Quarantined}); err != nil {
		j.Close()
		return err
	}
	for _, is := range r.Issues {
		if err := j.Emit(is); err != nil {
			j.Close()
			return err
		}
	}
	return j.Close()
}

func equalStates(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func finiteQ(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
