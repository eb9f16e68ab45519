package rollout

import (
	"context"

	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/sim"
	"sage/internal/tcp"
	"sage/internal/telemetry"
)

// FlowSpec describes one flow of a multi-flow run: its congestion control
// (or controller over TCP Pure) and when it joins. Every flow runs to the
// end of the scenario.
type FlowSpec struct {
	Name       string
	CC         tcp.CongestionControl
	Controller Controller // optional; requires a GR monitor per flow
	Start      sim.Time
}

// FlowResult reports one flow's outcome.
type FlowResult struct {
	Name          string
	ThroughputBps float64 // over the flow's own active window
	AvgOWD        sim.Time
	Series        []Sample // per SamplePeriod, throughput over the period
	// Interrupted reports that MultiOptions.Ctx was cancelled mid-run: the
	// aggregates cover only the simulated window that actually ran.
	Interrupted bool
}

// MultiOptions tunes a multi-flow run. Flows run over default TCP with the
// default GR config.
type MultiOptions struct {
	SamplePeriod sim.Time
	// Trace, when non-nil, receives one telemetry.FlowSample per GR tick
	// for every controller-driven flow (distinguished by the Flow field) —
	// the multi-flow counterpart of Options.Trace.
	Trace *telemetry.FlowTrace
	// Ctx, when non-nil, is polled once per GR interval; cancellation stops
	// the simulation early and marks every FlowResult Interrupted, matching
	// Run's drain semantics.
	Ctx context.Context
}

// RunMulti runs an arbitrary set of flows over one scenario's bottleneck —
// the harness behind the fairness (Fig. 18/27) and TCP-friendliness
// (Fig. 19/28) experiments, where several flows join on a schedule and
// each flow's throughput trajectory matters.
func RunMulti(sc netem.Scenario, flows []FlowSpec, opt MultiOptions) []FlowResult {
	d := newDriver(sc, len(flows), Options{SamplePeriod: opt.SamplePeriod, Trace: opt.Trace, Ctx: opt.Ctx})
	for i, spec := range flows {
		f := d.add(i+1, spec.CC, spec.Controller)
		if spec.Controller != nil {
			f.mon = gr.NewMonitor(d.opt.GR, f.Conn, gr.RewardContext{
				Kind:     gr.RewardSingleFlow,
				Capacity: sc.Rate.At,
				MinRTT:   sc.MinRTT,
			})
		}
		d.loop.At(spec.Start, f.begin)
	}
	interrupted := d.run(0, sc.Duration, nil)
	results := make([]FlowResult, len(flows))
	for i := range results {
		f := &d.flows[i]
		results[i] = FlowResult{Name: flows[i].Name, Series: f.series, Interrupted: interrupted}
		results[i].ThroughputBps, results[i].AvgOWD = f.totals(flows[i].Start, sc.Duration)
	}
	d.release()
	return results
}
