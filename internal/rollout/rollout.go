// Package rollout runs flows through a netem scenario and gathers everything
// downstream consumers need: GR trajectories for the Policy Collector,
// interval scores for the leagues, and sampled time series for the behaviour
// figures. One driver builds each simulation and runs its per-interval
// sweep; it has two entry points. Run puts one flow under test against
// optional competing Cubic background flows, and RunMulti runs an arbitrary
// set of flows that join on a schedule.
package rollout

import (
	"context"

	"sage/internal/cc"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/sim"
	"sage/internal/tcp"
	"sage/internal/telemetry"
)

// Controller is a periodic cwnd/pacing controller: the deployment-side
// counterpart of a kernel CC module. It is invoked every GR interval with
// the freshly computed state vector (Sage's TCP Pure execution block, and
// the rate-based ML baselines, act through this hook). The state is only
// valid during Control: the driver writes the next tick's state into the
// same memory, so a controller that keeps it must copy it.
type Controller interface {
	Control(now sim.Time, conn *tcp.Conn, state []float64)
}

// BatchFlusher is implemented by controllers that defer their decisions
// into a shared batching engine (serve.Controller). Run and RunMulti call
// FlushBatch once per GR interval after every flow's Control hook has
// enqueued its state, letting one batched forward pass serve all flows;
// the flusher applies each flow's cwnd update and kicks its connection.
type BatchFlusher interface {
	FlushBatch(now sim.Time)
}

// IntervalStats scores one quarter of the test window (Appendix D computes
// per-interval scores so transient behaviour is not smoothed away).
type IntervalStats struct {
	ThroughputBps float64
	AvgRTT        sim.Time // 2× the receiver-side mean one-way delay
	LossPkts      int64
}

// Sample is one point of the recorded time series (for Figs. 17–19, 24, 25).
type Sample struct {
	At          sim.Time
	Cwnd        float64
	SendRateBps float64
	ThrBps      float64
	OWD         sim.Time
	SRTT        sim.Time
}

// Result aggregates one rollout.
type Result struct {
	Scheme        string
	ScenarioName  string
	ThroughputBps float64 // receiver throughput over the test window
	AvgRTT        sim.Time
	AvgOWD        sim.Time
	LossRate      float64 // lost / sent
	FairShareBps  float64
	Intervals     []IntervalStats
	Steps         []gr.Step // GR trajectory (when GR collection is on)
	Series        []Sample  // sampled dynamics (when SamplePeriod > 0)
	BgThroughput  []float64 // per-background-flow receiver throughput (bps)
	// Interrupted reports that Options.Ctx was cancelled mid-rollout: the
	// aggregates cover only the simulated window that actually ran, and
	// consumers (the collector) must not treat the trajectory as complete.
	Interrupted bool
}

// Completed reports whether the flow was still making delivery progress
// by the end of the run: the final score interval saw receiver bytes (the
// whole run did, when there are no intervals). A flow an adversary
// permanently stalled, or a policy that blackholed it, fails this.
func (r Result) Completed() bool {
	if len(r.Intervals) == 0 {
		return r.ThroughputBps > 0
	}
	return r.Intervals[len(r.Intervals)-1].ThroughputBps > 0
}

// Options tunes a rollout.
type Options struct {
	GR           gr.Config  // GR sampling config (always filled)
	CollectSteps bool       // record the GR trajectory
	Controller   Controller // optional periodic controller for the test flow
	SamplePeriod sim.Time   // 0 = no time series
	// SingleFlowReward scores the flow under test with the single-flow
	// reward even where Cubic flows compete (Aurora considers no other).
	SingleFlowReward bool
	TCP              tcp.Options
	// Trace, when non-nil, receives one telemetry.FlowSample per GR tick
	// for the flow under test — sender datapath state plus bottleneck
	// queue occupancy. Recording reads snapshots only; it cannot perturb
	// the simulation.
	Trace *telemetry.FlowTrace
	// Ctx, when non-nil, is polled once per GR interval; cancellation
	// stops the simulation early and marks the Result Interrupted, so
	// SIGINT can drain a campaign without killing rollouts mid-event.
	Ctx context.Context
}

// ScoreIntervals is how many equal intervals of the test window Run scores
// (Result.Intervals).
const ScoreIntervals = 4

// Run executes the scenario with the flow under test using ccUnderTest.
func Run(sc netem.Scenario, ccUnderTest tcp.CongestionControl, opt Options) Result {
	d := newDriver(sc, sc.CubicFlows+1, opt)

	// Background Cubic flows join first (Appendix C.2), slightly staggered
	// so they do not move in lockstep.
	for i := 0; i < sc.CubicFlows; i++ {
		f := d.add(100+i, cc.MustNew("cubic"), nil)
		f.bg = true
		d.loop.At(sim.Time(i)*50*sim.Millisecond, f.begin)
	}

	start := sc.TestStart
	ut := d.add(1, ccUnderTest, opt.Controller)
	kind := gr.RewardSingleFlow
	if sc.CubicFlows > 0 && !opt.SingleFlowReward {
		kind = gr.RewardFriendly
	}
	ut.mon = gr.NewMonitor(d.opt.GR, ut.Conn, gr.RewardContext{
		Kind:      kind,
		Capacity:  sc.Rate.At,
		MinRTT:    sc.MinRTT,
		FairShare: sc.FairShare(),
	})

	res := Result{
		Scheme:       ccUnderTest.Name(),
		ScenarioName: sc.Name,
		FairShareBps: sc.FairShare(),
	}

	// Warm up the background traffic before the test flow joins. The test
	// flow starts here rather than from an event at TestStart: RunUntil
	// includes its deadline, so such an event would run before others due
	// at the same time.
	d.loop.RunUntil(start)
	ut.begin(start)

	type snap struct {
		rxBytes int64
		rxPkts  int64
		owdSum  sim.Time
		lost    int64
	}
	takeSnap := func() snap {
		b, p, s := ut.Sink.Totals()
		return snap{rxBytes: b, rxPkts: p, owdSum: s, lost: ut.Conn.LostPkts()}
	}
	window := sc.Duration - start
	if opt.CollectSteps {
		n := int(window / d.opt.GR.Interval) // one per tick
		res.Steps = make([]gr.Step, 0, n)
		ut.recordSteps(n)
	}
	last, lastAt, bi := takeSnap(), start, 0
	res.Interrupted = d.run(start, sc.Duration, func(now sim.Time) {
		if opt.CollectSteps {
			res.Steps = append(res.Steps, ut.step)
		}
		for ; bi < ScoreIntervals; bi++ {
			at := start + window*sim.Time(bi+1)/ScoreIntervals
			if now < at {
				break
			}
			cur := takeSnap()
			st := IntervalStats{
				ThroughputBps: float64(cur.rxBytes-last.rxBytes) * 8 / (at - lastAt).Seconds(),
				LossPkts:      cur.lost - last.lost,
			}
			if dp := cur.rxPkts - last.rxPkts; dp > 0 {
				st.AvgRTT = 2 * (cur.owdSum - last.owdSum) / sim.Time(dp)
			}
			res.Intervals = append(res.Intervals, st)
			last, lastAt = cur, at
		}
	})

	// Whole-window aggregates.
	res.ThroughputBps, res.AvgOWD = ut.totals(start, sc.Duration)
	res.AvgRTT = 2 * res.AvgOWD
	if sent := ut.Conn.SentPkts(); sent > 0 {
		res.LossRate = float64(ut.Conn.LostPkts()) / float64(sent)
	}
	for _, f := range d.flows[:sc.CubicFlows] {
		res.BgThroughput = append(res.BgThroughput, float64(f.Sink.RxBytes)*8/sc.Duration.Seconds())
	}
	res.Series = ut.series
	d.release()
	return res
}
