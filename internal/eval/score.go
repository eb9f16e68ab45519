// Package eval implements the paper's evaluation machinery (Section 5.1 and
// Appendix D): the power score Sp = r^α/d for single-flow scenarios, the
// friendliness score Sfr = |fc − rc| for multi-flow scenarios, per-interval
// winner determination with a configurable margin, winning rates, league
// rankings, and the cosine Distance/Similarity analyses of Section 7.
package eval

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"

	"sage/internal/cc"
	"sage/internal/netem"
	"sage/internal/rollout"
	"sage/internal/tcp"
)

// Entrant is a scheme that can compete in a league: either a plain CC
// module, or a policy agent driving TCP Pure through a Controller.
type Entrant struct {
	Name string
	// CC builds the kernel module for one flow (used when Controller is nil).
	CC func() tcp.CongestionControl
	// CCFor builds a scenario-aware module (takes precedence over CC) —
	// used by oracles like NATCP that receive network assistance.
	CCFor func(sc netem.Scenario) tcp.CongestionControl
	// Controller builds a fresh periodic controller; the flow then runs
	// TCP Pure underneath.
	Controller func() rollout.Controller
}

// SchemeEntrant wraps a registered cc scheme.
func SchemeEntrant(name string) Entrant {
	return Entrant{Name: name, CC: func() tcp.CongestionControl { return cc.MustNew(name) }}
}

// ControllerEntrant wraps a policy-driven scheme.
func ControllerEntrant(name string, newCtl func() rollout.Controller) Entrant {
	return Entrant{Name: name, Controller: newCtl}
}

// Run executes the entrant in the scenario. A controller entrant runs over
// TCP Pure unless it also names an underlying CC (hybrid schemes like Orca
// run their controller on top of Cubic).
func (e Entrant) Run(sc netem.Scenario, opt rollout.Options) rollout.Result {
	var under tcp.CongestionControl
	switch {
	case e.CCFor != nil:
		under = e.CCFor(sc)
	case e.CC != nil:
		under = e.CC()
	default:
		under = cc.MustNew("pure")
	}
	if e.Controller != nil {
		opt.Controller = e.Controller()
	}
	r := rollout.Run(sc, under, opt)
	r.Scheme = e.Name
	return r
}

// HybridEntrant wraps a controller running on top of a kernel scheme.
func HybridEntrant(name, underlying string, newCtl func() rollout.Controller) Entrant {
	return Entrant{
		Name:       name,
		CC:         func() tcp.CongestionControl { return cc.MustNew(underlying) },
		Controller: newCtl,
	}
}

// PowerScore computes Sp = r^α / d (r in Mb/s, d in ms — units cancel when
// comparing schemes within a scenario).
func PowerScore(thrBps float64, rtt float64, alpha float64) float64 {
	if rtt <= 0 {
		return 0
	}
	return math.Pow(thrBps/1e6, alpha) / rtt
}

// FriendlinessScore computes Sfr = |fc − rc| in Mb/s (smaller is better).
func FriendlinessScore(thrBps, fairBps float64) float64 {
	return math.Abs(fairBps-thrBps) / 1e6
}

// LeagueOptions tunes a league run.
type LeagueOptions struct {
	Alpha    float64 // throughput/delay exponent in Sp (default 2)
	Margin   float64 // winner margin (default 0.10; Appendix D.2 uses 0.05)
	Parallel int     // rollout workers (default NumCPU)
	// Ctx, when non-nil, cancels the league: no new rollouts are
	// dispatched and in-flight ones stop at their next GR tick. The
	// partial matrix is not meaningful for scoring; callers check the
	// context before ranking.
	Ctx context.Context
}

func (o LeagueOptions) fill() LeagueOptions {
	if o.Alpha == 0 {
		o.Alpha = 2
	}
	if o.Margin == 0 {
		o.Margin = 0.10
	}
	if o.Parallel == 0 {
		o.Parallel = runtime.NumCPU()
	}
	return o
}

// LeagueResult is the outcome of a league: winning rates per entrant for the
// single-flow (Set I) and multi-flow (Set II) scenario groups.
type LeagueResult struct {
	Entrants   []string
	RateSingle map[string]float64
	RateMulti  map[string]float64
}

// RankingSingle returns entrants sorted by Set I winning rate, descending.
func (r *LeagueResult) RankingSingle() []string { return rankBy(r.Entrants, r.RateSingle) }

// RankingMulti returns entrants sorted by Set II winning rate, descending.
func (r *LeagueResult) RankingMulti() []string { return rankBy(r.Entrants, r.RateMulti) }

func rankBy(names []string, score map[string]float64) []string {
	out := append([]string(nil), names...)
	sort.SliceStable(out, func(i, j int) bool { return score[out[i]] > score[out[j]] })
	return out
}

// Matrix holds the rollout results of every entrant over every scenario —
// the raw material leagues are scored from. Collecting it once lets the
// same runs be re-scored under different margins and α values
// (Figs. 20/21, Tables 2/3).
type Matrix struct {
	Entrants  []Entrant
	Scenarios []netem.Scenario
	Results   [][]rollout.Result // [entrant][scenario]
}

// RunMatrix rolls every entrant through every scenario in parallel.
func RunMatrix(entrants []Entrant, scenarios []netem.Scenario, opt LeagueOptions) *Matrix {
	opt = opt.fill()
	nE, nS := len(entrants), len(scenarios)
	results := make([][]rollout.Result, nE)
	for i := range results {
		results[i] = make([]rollout.Result, nS)
	}
	type job struct{ e, s int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < opt.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if opt.Ctx != nil && opt.Ctx.Err() != nil {
					continue
				}
				results[j.e][j.s] = entrants[j.e].Run(scenarios[j.s], rollout.Options{Ctx: opt.Ctx})
			}
		}()
	}
dispatch:
	for e := 0; e < nE; e++ {
		for s := 0; s < nS; s++ {
			if opt.Ctx != nil && opt.Ctx.Err() != nil {
				break dispatch
			}
			jobs <- job{e, s}
		}
	}
	close(jobs)
	wg.Wait()
	return &Matrix{Entrants: entrants, Scenarios: scenarios, Results: results}
}

// RunLeague rolls every entrant through every scenario and computes winning
// rates per the paper's definition: an entrant wins a (scenario, interval)
// cell when its score is within Margin of the best score in that cell; the
// winning rate is wins over total cells.
func RunLeague(entrants []Entrant, setI, setII []netem.Scenario, opt LeagueOptions) *LeagueResult {
	all := append(append([]netem.Scenario(nil), setI...), setII...)
	return ScoreLeague(RunMatrix(entrants, all, opt), opt)
}

// ScoreLeague computes winning rates from an existing result matrix.
func ScoreLeague(m *Matrix, opt LeagueOptions) *LeagueResult {
	opt = opt.fill()
	entrants, all, results := m.Entrants, m.Scenarios, m.Results
	nE, nS := len(entrants), len(all)

	res := &LeagueResult{
		RateSingle: map[string]float64{},
		RateMulti:  map[string]float64{},
	}
	for _, e := range entrants {
		res.Entrants = append(res.Entrants, e.Name)
	}

	winsSingle := make([]int, nE)
	winsMulti := make([]int, nE)
	cellsSingle, cellsMulti := 0, 0
	for s := 0; s < nS; s++ {
		multi := all[s].CubicFlows > 0
		for iv := 0; iv < rollout.ScoreIntervals; iv++ {
			winners := cellWinners(results, s, iv, multi, opt)
			if multi {
				cellsMulti++
				for _, w := range winners {
					winsMulti[w]++
				}
			} else {
				cellsSingle++
				for _, w := range winners {
					winsSingle[w]++
				}
			}
		}
	}
	for i, e := range entrants {
		if cellsSingle > 0 {
			res.RateSingle[e.Name] = float64(winsSingle[i]) / float64(cellsSingle)
		}
		if cellsMulti > 0 {
			res.RateMulti[e.Name] = float64(winsMulti[i]) / float64(cellsMulti)
		}
	}
	return res
}

// cellWinners returns the entrant indices winning the (scenario, interval)
// cell under the margin rule.
func cellWinners(results [][]rollout.Result, s, iv int, multi bool, opt LeagueOptions) []int {
	type scored struct {
		idx int
		val float64
	}
	var cells []scored
	for e := range results {
		r := results[e][s]
		if iv >= len(r.Intervals) {
			continue
		}
		ivs := r.Intervals[iv]
		var v float64
		if multi {
			v = FriendlinessScore(ivs.ThroughputBps, r.FairShareBps)
		} else {
			v = PowerScore(ivs.ThroughputBps, ivs.AvgRTT.Millis(), opt.Alpha)
		}
		cells = append(cells, scored{e, v})
	}
	if len(cells) == 0 {
		return nil
	}
	var winners []int
	if multi {
		// Smaller Sfr is better; win when within (1+Margin)× the best,
		// with a small absolute slack so a perfect 0 doesn't exclude
		// near-perfect peers.
		best := cells[0].val
		for _, c := range cells {
			if c.val < best {
				best = c.val
			}
		}
		slack := best*opt.Margin + 0.05
		for _, c := range cells {
			if c.val <= best+slack {
				winners = append(winners, c.idx)
			}
		}
	} else {
		best := 0.0
		for _, c := range cells {
			if c.val > best {
				best = c.val
			}
		}
		for _, c := range cells {
			if c.val >= (1-opt.Margin)*best {
				winners = append(winners, c.idx)
			}
		}
	}
	return winners
}

// JainIndex computes Jain's fairness index over per-flow throughputs.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
