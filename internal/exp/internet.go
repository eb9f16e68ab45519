package exp

import (
	"fmt"

	"sage/internal/cc"
	"sage/internal/eval"
	"sage/internal/netem"
	"sage/internal/tcp"
	"sage/internal/trace"
)

// fig08Schemes is the subset plotted in Fig. 8 (bad performers omitted for
// readability in the paper; we keep a representative mix of delay-based,
// throughput-oriented, hybrid and learned schemes).
var fig08Schemes = []string{"sage", "bbr2", "cubic", "vegas", "copa", "c2tcp",
	"westwood", "yeah", "sprout", "orca"}

// Fig08 reproduces Figure 8: normalized average throughput and delay of the
// schemes over (a) intra-continental, (b) inter-continental, and (c) highly
// variable (cellular) synthetic path models, averaged over Repeats runs.
func Fig08(a *Artifacts) []*Table {
	s := a.S
	regimes := []struct {
		name  string
		scens []netem.Scenario
	}{
		{"Fig. 8a — intra-continental", trace.IntraContinental(s.PathCount, s.PathDur)},
		{"Fig. 8b — inter-continental", trace.InterContinental(s.PathCount, s.PathDur)},
		{"Fig. 8c — highly variable (cellular)", trace.CellularScenarios(s.PathCount, s.PathDur)},
	}
	// NATCP joins the cellular regime as the "(Optimal)" reference, exactly
	// where the paper plots it: the oracle needs network assistance, which
	// emulation can provide.
	natcp := eval.Entrant{Name: "natcp(optimal)", CCFor: func(sc netem.Scenario) tcp.CongestionControl {
		return cc.NewNATCP(sc, 1)
	}}
	var tables []*Table
	for ri, reg := range regimes {
		var entrants []eval.Entrant
		for _, n := range fig08Schemes {
			entrants = append(entrants, a.Entrant(n))
		}
		if ri == 2 { // cellular regime gets the oracle reference
			entrants = append(entrants, natcp)
		}
		var scens []netem.Scenario
		for _, sc := range reg.scens {
			for r := 0; r < s.Repeats; r++ {
				rep := sc
				rep.Seed += int64(r) * 101
				scens = append(scens, rep)
			}
		}
		// Means add in matrix order, so they are a function of the seed
		// alone, whatever order the rollouts finish in.
		m := eval.RunMatrix(entrants, scens, a.leagueOpts())
		thr := make([]float64, len(entrants))
		owd := make([]float64, len(entrants))
		for e, row := range m.Results {
			for _, res := range row {
				thr[e] += res.ThroughputBps
				owd[e] += res.AvgOWD.Millis()
			}
			thr[e] /= float64(len(row))
			owd[e] /= float64(len(row))
		}

		// Normalize: throughput over the max mean, delay over the min mean.
		maxThr, minOWD := 0.0, 0.0
		for e := range entrants {
			if thr[e] > maxThr {
				maxThr = thr[e]
			}
			if minOWD == 0 || owd[e] < minOWD {
				minOWD = owd[e]
			}
		}
		t := &Table{Title: reg.name,
			Header: []string{"scheme", "norm_thr", "norm_delay", "thr_mbps", "owd_ms"}}
		for e, ent := range entrants {
			t.AddRow(ent.Name,
				fmt.Sprintf("%.2f", thr[e]/maxThr),
				fmt.Sprintf("%.2f", owd[e]/minOWD),
				mbps(thr[e]),
				fmt.Sprintf("%.1f", owd[e]),
			)
		}
		tables = append(tables, t)
	}
	return tables
}
