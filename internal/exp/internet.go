package exp

import (
	"fmt"
	"sync"

	"sage/internal/cc"
	"sage/internal/eval"
	"sage/internal/netem"
	"sage/internal/rollout"
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
		type agg struct {
			thr, owd float64
			n        int
		}
		perScheme := map[string]*agg{}
		var mu sync.Mutex
		var wg sync.WaitGroup
		sem := make(chan struct{}, parallelism(s.Parallel))
		schemes := fig08Schemes
		entrants := map[string]eval.Entrant{}
		for _, n := range schemes {
			entrants[n] = a.Entrant(n)
		}
		if ri == 2 { // cellular regime gets the oracle reference
			schemes = append(append([]string(nil), schemes...), natcp.Name)
			entrants[natcp.Name] = natcp
		}
		for _, name := range schemes {
			ent := entrants[name]
			for i, sc := range reg.scens {
				for r := 0; r < s.Repeats; r++ {
					wg.Add(1)
					sc := sc
					sc.Seed += int64(r) * 101
					name, ent := name, ent
					_ = i
					sem <- struct{}{}
					go func() {
						defer wg.Done()
						defer func() { <-sem }()
						res := ent.Run(sc, rollout.Options{})
						mu.Lock()
						ag := perScheme[name]
						if ag == nil {
							ag = &agg{}
							perScheme[name] = ag
						}
						ag.thr += res.ThroughputBps
						ag.owd += res.AvgOWD.Millis()
						ag.n++
						mu.Unlock()
					}()
				}
			}
		}
		wg.Wait()

		// Normalize: throughput over the max mean, delay over the min mean.
		maxThr, minOWD := 0.0, 0.0
		for _, ag := range perScheme {
			t := ag.thr / float64(ag.n)
			d := ag.owd / float64(ag.n)
			if t > maxThr {
				maxThr = t
			}
			if minOWD == 0 || d < minOWD {
				minOWD = d
			}
		}
		t := &Table{Title: reg.name,
			Header: []string{"scheme", "norm_thr", "norm_delay", "thr_mbps", "owd_ms"}}
		for _, name := range schemes {
			ag := perScheme[name]
			if ag == nil || ag.n == 0 {
				continue
			}
			thr := ag.thr / float64(ag.n)
			owd := ag.owd / float64(ag.n)
			t.AddRow(name,
				fmt.Sprintf("%.2f", thr/maxThr),
				fmt.Sprintf("%.2f", owd/minOWD),
				mbps(thr),
				fmt.Sprintf("%.1f", owd),
			)
		}
		tables = append(tables, t)
	}
	return tables
}

func parallelism(p int) int {
	if p > 0 {
		return p
	}
	return 8
}
