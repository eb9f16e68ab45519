// Command sage-eval deploys a trained model (phase 3 of Fig. 3): it runs the
// model — and optionally the heuristic league — over Set I / Set II
// scenarios and reports scores and winning rates.
//
// Usage:
//
//	sage-eval -model sage.model                 # league vs the 13 heuristics
//	sage-eval -model sage.model -scenario flat-24mbps-20ms-1bdp
//	sage-eval -model sage.model -scenario flat-24mbps-20ms-1bdp -trace flow.jsonl
//	sage-eval -model sage.model -metrics league.jsonl -pprof :6060
//	sage-eval -model sage.model -experiment robustness
//
// With -experiment robustness, the model runs bare, wrapped in the
// runtime guardian (internal/guard), and against Cubic across the
// adversarial scenario grid (link flaps, blackouts, reordering, ACK
// loss/duplication, Gilbert-Elliott burst loss); the report covers
// completion rate, stall time, and guardian trip/restore counts, and
// -metrics captures per-run records plus every trip/restore event as
// JSONL.
//
// With -trace (single-scenario mode), every GR tick of the flow under test
// is exported — cwnd, srtt, inflight, delivery rate, losses, queue
// occupancy — as JSONL (or CSV when the path ends in .csv): the raw series
// behind the paper's Figs. 17–19/24/25. With -metrics (league mode), one
// JSON line per scheme records its Set I / Set II winning rates.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"sage/internal/cc"
	"sage/internal/cli"
	"sage/internal/core"
	"sage/internal/eval"
	"sage/internal/exp"
	"sage/internal/netem"
	"sage/internal/rollout"
	"sage/internal/safeio"
	"sage/internal/sim"
	"sage/internal/telemetry"
)

func main() { cli.Main(run) }

func run(ctx context.Context, f *cli.Flags) error {
	var (
		modelPath  = f.String("model", "sage.model", "trained model file")
		grid       = f.Scenarios("", "schemes", "window")
		scenario   = f.String("scenario", "", "run a single named scenario instead of the league")
		margin     = f.Float64("margin", 0.10, "winner margin")
		alpha      = f.Float64("alpha", 2, "power-score exponent")
		parallel   = f.Int("parallel", 0, "workers (0 = NumCPU)")
		seed       = f.Int64("seed", 1, "seed")
		tracePath  = f.String("trace", "", "single-scenario mode: write the per-tick flow trace to this file (.csv for CSV, else JSONL)")
		traceStep  = f.Duration("trace-period", 0, "decimate the flow trace to one sample per period (0 = every GR tick)")
		emit       = f.Sink("metrics", "league mode: write per-scheme winning rates as JSONL to this file")
		experiment = f.String("experiment", "", "run a named deployment experiment with the loaded model (supported: robustness)")
	)
	f.Respell("seti-dur", "Set I duration", "")
	f.Respell("setii-dur", "Set II duration", "")
	f.Pprof("serve pprof+expvar on this address (e.g. :6060)")
	if err := f.Parse(); err != nil {
		return err
	}
	if *tracePath != "" && *scenario == "" {
		return cli.Exitf(cli.ExitUsage, "-trace requires -scenario (per-flow traces are a single-rollout export)")
	}
	if *experiment != "" && *experiment != "robustness" {
		return cli.Exitf(cli.ExitUsage, "unknown -experiment %q (supported: robustness; the figure/table experiments live in sage-bench)", *experiment)
	}
	setI, setII := grid.Sets(*seed)
	all := append(append([]netem.Scenario(nil), setI...), setII...)
	// Reject nonsense before any rollout runs: flag-derived durations can
	// produce scenarios that would otherwise silently misbehave.
	if err := netem.ValidateAll(all); err != nil {
		return cli.Exit(cli.ExitUsage, err)
	}
	var single *netem.Scenario
	if *scenario != "" {
		i := slices.IndexFunc(all, func(sc netem.Scenario) bool { return sc.Name == *scenario })
		if i < 0 {
			return cli.Exitf(cli.ExitUsage, "scenario %q not found", *scenario)
		}
		single = &all[i]
	}
	if err := f.Open(); err != nil {
		return err
	}

	model, err := core.LoadModel(*modelPath)
	if err != nil {
		return err
	}
	if *experiment != "" {
		for _, t := range exp.RobustnessWithModel(model, grid.Level, sim.FromSeconds(grid.SetIDur.Seconds()), *seed, emit.JSONL) {
			t.Fprint(os.Stdout)
		}
		return nil
	}

	sage := eval.ControllerEntrant("sage", func() rollout.Controller { return model.NewAgent(*seed) })

	if single != nil {
		var trace *telemetry.FlowTrace
		if *tracePath != "" {
			trace = telemetry.NewFlowTrace(sim.FromSeconds(traceStep.Seconds()))
		}
		res := sage.Run(*single, rollout.Options{Trace: trace, Ctx: ctx})
		if res.Interrupted {
			return cli.Exitf(cli.ExitSignal, "interrupted; partial rollout discarded")
		}
		fmt.Printf("%s: thr %.2f Mb/s, avg RTT %.1f ms, loss %.3f%%, fair share %.2f Mb/s\n",
			single.Name, res.ThroughputBps/1e6, res.AvgRTT.Millis(), res.LossRate*100, res.FairShareBps/1e6)
		if trace != nil {
			if err := writeTrace(trace, *tracePath); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d samples)\n", *tracePath, trace.Len())
		}
		return nil
	}

	entrants := []eval.Entrant{sage}
	for _, n := range cc.PoolNames() {
		entrants = append(entrants, eval.SchemeEntrant(n))
	}
	res := eval.RunLeague(entrants, setI, setII, eval.LeagueOptions{
		Margin: *margin, Alpha: *alpha, Parallel: *parallel, Ctx: ctx,
	})
	if ctx.Err() != nil {
		return cli.Exitf(cli.ExitSignal, "interrupted; league incomplete, no rates reported")
	}
	fmt.Printf("%-12s %12s %12s\n", "scheme", "setI", "setII")
	for _, n := range res.RankingSingle() {
		fmt.Printf("%-12s %11.1f%% %11.1f%%\n", n, res.RateSingle[n]*100, res.RateMulti[n]*100)
		emit.Emit(struct {
			Scheme   string  `json:"scheme"`
			RateSetI float64 `json:"rate_set1"`
			RateSet2 float64 `json:"rate_set2"`
		}{n, res.RateSingle[n], res.RateMulti[n]})
	}
	return nil
}

// writeTrace exports the flow trace through safeio's raw atomic writer:
// the file appears atomically (a crash mid-export cannot leave a
// half-written series) yet stays plain JSONL/CSV for external tools.
func writeTrace(tr *telemetry.FlowTrace, path string) error {
	return safeio.WriteFileRaw(path, func(w io.Writer) error {
		if strings.HasSuffix(path, ".csv") {
			return tr.WriteCSV(w)
		}
		return tr.WriteJSONL(w)
	})
}
