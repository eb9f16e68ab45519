package exp

import (
	"context"
	"strconv"
	"sync"

	"sage/internal/cc"
	"sage/internal/core"
	"sage/internal/eval"
	"sage/internal/rl"
)

// leagueOpts returns the default league options for a sizing.
func (a *Artifacts) leagueOpts() eval.LeagueOptions {
	return eval.LeagueOptions{Parallel: a.S.Parallel}
}

// matrixOf runs (and memoizes) the rollout matrix for a named entrant set.
var matrixCache sync.Map // key string -> *eval.Matrix

func (a *Artifacts) matrixOf(key string, entrants []eval.Entrant) *eval.Matrix {
	full := a.S.Name + "/" + key
	if m, ok := matrixCache.Load(full); ok {
		return m.(*eval.Matrix)
	}
	scens := append(a.S.SetI(), a.S.SetII()...)
	m := eval.RunMatrix(entrants, scens, a.leagueOpts())
	matrixCache.Store(full, m)
	return m
}

func leagueTable(title string, res *eval.LeagueResult) *Table {
	t := &Table{Title: title, Header: []string{"scheme", "winrate_setI", "winrate_setII"}}
	for _, name := range res.RankingSingle() {
		t.AddRow(name, pct(res.RateSingle[name]), pct(res.RateMulti[name]))
	}
	return t
}

// Fig01 reproduces Figure 1: winning rates of the heuristic pool schemes in
// the single-flow (Set I) and multi-flow (Set II) scenario sets, showing
// that no heuristic wins everywhere and the two rankings invert.
func Fig01(a *Artifacts) *Table {
	var entrants []eval.Entrant
	for _, n := range []string{"vegas", "yeah", "copa", "bbr2", "cubic", "htcp", "bic", "newreno"} {
		entrants = append(entrants, a.Entrant(n))
	}
	m := a.matrixOf("heuristics8", entrants)
	res := eval.ScoreLeague(m, a.leagueOpts())
	return leagueTable("Fig. 1 — heuristic winning rates (Set I vs Set II)", res)
}

// heuristicEntrants returns the full 13-scheme pool as entrants.
func (a *Artifacts) heuristicEntrants() []eval.Entrant {
	var out []eval.Entrant
	for _, n := range cc.PoolNames() {
		out = append(out, a.Entrant(n))
	}
	return out
}

// Fig07 reproduces Figure 7: Sage's winning rate against the 13-scheme
// league as training progresses ("training days" become training epochs at
// this scale). The TCP-friendly region's base rate is NewReno's multi-flow
// winning rate, as in the paper.
func Fig07(a *Artifacts, epochs int) *Table {
	if epochs == 0 {
		epochs = 4
	}
	pool := a.Pool()
	ds := rl.BuildDataset(pool, nil)
	cfg := a.S.crr()
	perEpoch := cfg.Steps / epochs
	if perEpoch < 1 {
		perEpoch = 1
	}
	learner := rl.NewCRR(ds, cfg)

	t := &Table{
		Title:  "Fig. 7 — Sage winning rate during training",
		Header: []string{"epoch", "sage_setI", "sage_setII", "best_heuristic_setI", "newreno_setII(base)"},
	}
	heur := a.heuristicEntrants()
	heurMatrix := a.matrixOf("pool13", heur)
	for e := 1; e <= epochs; e++ {
		learner.Cfg.Steps = perEpoch
		learner.Train(context.Background(), ds, nil)
		model := &core.Model{Policy: learner.Policy, Mask: ds.Mask, GR: pool.GR}
		entrants := append([]eval.Entrant{a.ModelEntrant("sage", model)}, heur...)
		// Reuse the heuristics' cached rollouts: rebuild a matrix with Sage
		// rolled fresh and the heuristics copied over.
		scens := append(a.S.SetI(), a.S.SetII()...)
		sageM := eval.RunMatrix(entrants[:1], scens, a.leagueOpts())
		m := &eval.Matrix{Entrants: entrants, Scenarios: scens,
			Results: append(sageM.Results, heurMatrix.Results...)}
		res := eval.ScoreLeague(m, a.leagueOpts())
		bestI := 0.0
		for _, h := range cc.PoolNames() {
			if res.RateSingle[h] > bestI {
				bestI = res.RateSingle[h]
			}
		}
		t.AddRow(
			itoa(e),
			pct(res.RateSingle["sage"]),
			pct(res.RateMulti["sage"]),
			pct(bestI),
			pct(res.RateMulti["newreno"]),
		)
	}
	return t
}

// mlLeagueNames is Fig. 9's league.
var mlLeagueNames = []string{"sage", "bc", "bc-top", "bc-top3", "bcv2",
	"onlinerl", "aurora", "genet", "orca", "orcav2", "deepcc",
	"indigo", "indigov2", "vivace"}

// Fig09 reproduces Figure 9: the ML-based league rankings in both sets.
func Fig09(a *Artifacts) *Table {
	var entrants []eval.Entrant
	for _, n := range mlLeagueNames {
		entrants = append(entrants, a.Entrant(n))
	}
	m := a.matrixOf("mlleague", entrants)
	res := eval.ScoreLeague(m, a.leagueOpts())
	return leagueTable("Fig. 9 — ML-based league winning rates", res)
}

// delayLeagueNames is Fig. 10's league plus Sage.
var delayLeagueNames = []string{"sage", "vegas", "c2tcp", "bbr2", "ledbat", "copa", "sprout"}

// Fig10 reproduces Figure 10: the delay-based league rankings in both sets.
func Fig10(a *Artifacts) *Table {
	var entrants []eval.Entrant
	for _, n := range delayLeagueNames {
		entrants = append(entrants, a.Entrant(n))
	}
	m := a.matrixOf("delayleague", entrants)
	res := eval.ScoreLeague(m, a.leagueOpts())
	return leagueTable("Fig. 10 — delay-based league winning rates", res)
}

// Fig20Fig21 re-scores both leagues with the tighter 5% winner margin of
// Appendix D.2 (the rankings should remain largely intact).
func Fig20Fig21(a *Artifacts) []*Table {
	opt := a.leagueOpts()
	opt.Margin = 0.05
	var mlE, dlE []eval.Entrant
	for _, n := range mlLeagueNames {
		mlE = append(mlE, a.Entrant(n))
	}
	for _, n := range delayLeagueNames {
		dlE = append(dlE, a.Entrant(n))
	}
	ml := eval.ScoreLeague(a.matrixOf("mlleague", mlE), opt)
	dl := eval.ScoreLeague(a.matrixOf("delayleague", dlE), opt)
	return []*Table{
		leagueTable("Fig. 20 — ML league at 5% winner margin", ml),
		leagueTable("Fig. 21 — delay league at 5% winner margin", dl),
	}
}

// Table2Table3 re-scores both leagues' Set I with α=3 in the power score
// (Appendix D.1: rankings should remain largely intact).
func Table2Table3(a *Artifacts) []*Table {
	opt := a.leagueOpts()
	opt.Alpha = 3
	var mlE, dlE []eval.Entrant
	for _, n := range mlLeagueNames {
		mlE = append(mlE, a.Entrant(n))
	}
	for _, n := range delayLeagueNames {
		dlE = append(dlE, a.Entrant(n))
	}
	dl := eval.ScoreLeague(a.matrixOf("delayleague", dlE), opt)
	ml := eval.ScoreLeague(a.matrixOf("mlleague", mlE), opt)
	t2 := &Table{Title: "Table 2 — delay league, Set I, α=3", Header: []string{"scheme", "winrate_setI"}}
	for _, n := range dl.RankingSingle() {
		t2.AddRow(n, pct(dl.RateSingle[n]))
	}
	t3 := &Table{Title: "Table 3 — ML league, Set I, α=3", Header: []string{"scheme", "winrate_setI"}}
	for _, n := range ml.RankingSingle() {
		t3.AddRow(n, pct(ml.RateSingle[n]))
	}
	return []*Table{t2, t3}
}

func itoa(v int) string { return strconv.Itoa(v) }
