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

// MultiOptions tunes a multi-flow run.
type MultiOptions struct {
	GR           gr.Config
	SamplePeriod sim.Time
	TCP          tcp.Options
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
	opt.GR = opt.GR.Fill()
	loop := sim.NewLoop()
	n := sc.Build(loop)

	type state struct {
		spec    FlowSpec
		flow    *tcp.Flow
		mon     *gr.Monitor
		prevRx  int64
		prevAt  sim.Time
		started bool
	}
	states := make([]*state, len(flows))
	for i, spec := range flows {
		fl := tcp.NewFlow(loop, n, i+1, spec.CC, opt.TCP)
		st := &state{spec: spec, flow: fl}
		if spec.Controller != nil {
			st.mon = gr.NewMonitor(opt.GR, fl.Conn, gr.RewardContext{
				Kind:     gr.RewardSingleFlow,
				Capacity: sc.Rate.At,
				MinRTT:   sc.MinRTT,
			})
		}
		states[i] = st
		loop.At(spec.Start, func(t sim.Time) {
			st.flow.Conn.Start(t)
			st.started = true
			st.prevAt = t
		})
	}

	// Several flows may share one batching controller (serve.Controller);
	// flush each distinct flusher once per interval, after every flow has
	// enqueued its decision.
	flushers := make(map[BatchFlusher]bool)
	for _, spec := range flows {
		if bf, ok := spec.Controller.(BatchFlusher); ok {
			flushers[bf] = true
		}
	}
	flushOrder := make([]BatchFlusher, 0, len(flushers))
	for _, spec := range flows {
		if bf, ok := spec.Controller.(BatchFlusher); ok && flushers[bf] {
			flushers[bf] = false
			flushOrder = append(flushOrder, bf)
		}
	}

	interval := opt.GR.Interval
	nextSample := opt.SamplePeriod
	results := make([]FlowResult, len(flows))
	for i := range results {
		results[i].Name = flows[i].Name
	}
	for now := interval; now <= sc.Duration; now += interval {
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			for i := range results {
				results[i].Interrupted = true
			}
			break
		}
		loop.RunUntil(now)
		for _, st := range states {
			if !st.started {
				continue
			}
			if st.mon != nil {
				step := st.mon.Tick(now)
				st.spec.Controller.Control(now, st.flow.Conn, step.State)
				if _, ok := st.spec.Controller.(BatchFlusher); !ok {
					// Batching controllers apply + kick in their flush;
					// kicking here would send at the pre-decision window.
					st.flow.Conn.Kick(now)
				}
				if opt.Trace != nil {
					opt.Trace.Record(flowSample(now, st.flow.Conn, n, step))
				}
			}
		}
		for _, bf := range flushOrder {
			bf.FlushBatch(now)
		}
		if opt.SamplePeriod > 0 && now >= nextSample {
			for i, st := range states {
				rx, _, _ := st.flow.Sink.Totals()
				span := (now - st.prevAt).Seconds()
				thr := 0.0
				if span > 0 {
					thr = float64(rx-st.prevRx) * 8 / span
				}
				results[i].Series = append(results[i].Series, Sample{
					At:     now,
					ThrBps: thr,
					Cwnd:   st.flow.Conn.Cwnd,
					OWD:    st.flow.Sink.OWDAvg(),
					SRTT:   st.flow.Conn.SRTT(),
				})
				st.prevRx, st.prevAt = rx, now
			}
			nextSample += opt.SamplePeriod
		}
	}
	for i, st := range states {
		window := (sc.Duration - st.spec.Start).Seconds()
		rx, pkts, owdSum := st.flow.Sink.Totals()
		if window > 0 {
			results[i].ThroughputBps = float64(rx) * 8 / window
		}
		if pkts > 0 {
			results[i].AvgOWD = owdSum / sim.Time(pkts)
		}
	}
	fls := make([]*tcp.Flow, len(states))
	mons := make([]*gr.Monitor, len(states))
	for i, st := range states {
		fls[i], mons[i] = st.flow, st.mon
	}
	release(n, fls, mons...)
	return results
}
