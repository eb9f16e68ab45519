// Package rollout runs one flow-under-test through a netem scenario —
// optionally against competing Cubic background flows — and gathers
// everything downstream consumers need: GR trajectories for the Policy
// Collector, interval scores for the leagues, and sampled time series for
// the behaviour figures.
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
// the rate-based ML baselines, act through this hook).
type Controller interface {
	Control(now sim.Time, conn *tcp.Conn, state []float64)
}

// BatchFlusher is implemented by controllers that defer their decisions
// into a shared batching engine (serve.Controller). Run and RunMulti call
// FlushBatch once per GR interval after every flow's Control hook has
// enqueued its state, letting one batched forward pass serve all flows;
// the flusher applies each flow's cwnd update and kicks its connection.
// Within an interval no simulation events run between the Control calls
// and the flush, so deferred application is semantically identical to
// acting inline.
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
	GR           gr.Config     // GR sampling config (always filled)
	CollectSteps bool          // record the GR trajectory
	Controller   Controller    // optional periodic controller for the test flow
	SamplePeriod sim.Time      // 0 = no time series
	Intervals    int           // score intervals (default 4)
	RewardKind   gr.RewardKind // reward override (with ForceReward set)
	ForceReward  bool          // use RewardKind instead of deriving from the scenario
	TCP          tcp.Options
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

// flowSample snapshots conn's datapath state and the bottleneck queue for
// a flow trace.
func flowSample(now sim.Time, conn *tcp.Conn, n *netem.Network, step gr.Step) telemetry.FlowSample {
	st := conn.Stats()
	q := n.Link.Queue()
	return telemetry.FlowSample{
		AtUs:         int64(now),
		Flow:         conn.ID,
		Cwnd:         st.Cwnd,
		SRTTMs:       st.SRTT.Millis(),
		RTTVarMs:     st.RTTVar.Millis(),
		InflightPkts: st.InflightPkts,
		DeliveryBps:  st.DeliveryRate * 8,
		LostPkts:     st.LostPkts,
		Retrans:      st.RTOs,
		Recoveries:   st.Recoveries,
		QueuePkts:    q.Len(),
		QueueBytes:   q.Bytes(),
		Action:       step.Action,
		Reward:       step.Reward,
	}
}

// Run executes the scenario with the flow under test using ccUnderTest.
func Run(sc netem.Scenario, ccUnderTest tcp.CongestionControl, opt Options) Result {
	opt.GR = opt.GR.Fill()
	if opt.Intervals == 0 {
		opt.Intervals = 4
	}
	loop := sim.NewLoop()
	n := sc.Build(loop)

	// Background Cubic flows join first (Appendix C.2), slightly staggered
	// so they do not move in lockstep. The spare slot takes the flow under
	// test at release.
	bg := make([]*tcp.Flow, sc.CubicFlows, sc.CubicFlows+1)
	for i := range bg {
		f := tcp.NewFlow(loop, n, 100+i, cc.MustNew("cubic"), opt.TCP)
		stagger := sim.Time(i) * 50 * sim.Millisecond
		loop.At(stagger, func(t sim.Time) { f.Conn.Start(t) })
		bg[i] = f
	}

	ut := tcp.NewFlow(loop, n, 1, ccUnderTest, opt.TCP)

	kind := gr.RewardSingleFlow
	if sc.CubicFlows > 0 {
		kind = gr.RewardFriendly
	}
	if opt.ForceReward {
		kind = opt.RewardKind
	}
	mon := gr.NewMonitor(opt.GR, ut.Conn, gr.RewardContext{
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

	// Warm up the background traffic before the test flow joins.
	start := sc.TestStart
	loop.RunUntil(start)
	ut.Conn.Start(loop.Now())

	var (
		prevSent    int64
		prevRx      int64
		prevSampleT = start
	)
	interval := opt.GR.Interval
	nextSample := start + opt.SamplePeriod

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
	boundaries := make([]sim.Time, opt.Intervals)
	for i := range boundaries {
		boundaries[i] = start + window*sim.Time(i+1)/sim.Time(opt.Intervals)
	}
	lastSnap := takeSnap()
	lastBoundary := start
	bi := 0

	for now := start + interval; now <= sc.Duration; now += interval {
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			res.Interrupted = true
			break
		}
		loop.RunUntil(now)
		step := mon.Tick(now)
		if opt.Controller != nil {
			opt.Controller.Control(now, ut.Conn, step.State)
			if bf, ok := opt.Controller.(BatchFlusher); ok {
				// A batching controller only enqueued its decision; the
				// flush applies the cwnd update and kicks the connection.
				// Kicking here with the pre-decision window could send
				// packets the decision would not have allowed.
				bf.FlushBatch(now)
			} else {
				ut.Conn.Kick(now)
			}
		}
		if opt.CollectSteps {
			res.Steps = append(res.Steps, step)
		}
		if opt.Trace != nil {
			opt.Trace.Record(flowSample(now, ut.Conn, n, step))
		}
		if opt.SamplePeriod > 0 && now >= nextSample {
			sent := ut.Conn.SentPkts()
			rx, _, _ := ut.Sink.Totals()
			span := (now - prevSampleT).Seconds()
			s := Sample{
				At:          now,
				Cwnd:        ut.Conn.Cwnd,
				SendRateBps: float64(sent-prevSent) * float64(ut.Conn.MSS()) * 8 / span,
				ThrBps:      float64(rx-prevRx) * 8 / span,
				OWD:         ut.Sink.OWDAvg(),
				SRTT:        ut.Conn.SRTT(),
			}
			res.Series = append(res.Series, s)
			prevSent, prevRx, prevSampleT = sent, rx, now
			nextSample += opt.SamplePeriod
		}
		for bi < len(boundaries) && now >= boundaries[bi] {
			cur := takeSnap()
			span := (boundaries[bi] - lastBoundary).Seconds()
			st := IntervalStats{
				ThroughputBps: float64(cur.rxBytes-lastSnap.rxBytes) * 8 / span,
				LossPkts:      cur.lost - lastSnap.lost,
			}
			if dp := cur.rxPkts - lastSnap.rxPkts; dp > 0 {
				st.AvgRTT = 2 * (cur.owdSum - lastSnap.owdSum) / sim.Time(dp)
			}
			res.Intervals = append(res.Intervals, st)
			lastSnap = cur
			lastBoundary = boundaries[bi]
			bi++
		}
	}

	// Whole-window aggregates.
	rxBytes, rxPkts, owdSum := ut.Sink.Totals()
	res.ThroughputBps = float64(rxBytes) * 8 / window.Seconds()
	if rxPkts > 0 {
		res.AvgOWD = owdSum / sim.Time(rxPkts)
		res.AvgRTT = 2 * res.AvgOWD
	}
	if sent := ut.Conn.SentPkts(); sent > 0 {
		res.LossRate = float64(ut.Conn.LostPkts()) / float64(sent)
	}
	for _, f := range bg {
		res.BgThroughput = append(res.BgThroughput, float64(f.Sink.RxBytes)*8/sc.Duration.Seconds())
	}
	release(n, append(bg, ut), mon)
	return res
}

// release gives a finished simulation's memory back for the next one on any
// goroutine to reuse: each connection's tx ring, each monitor's signal
// windows, and the network's packets, delay line and queue ring. Run and
// RunMulti call it on normal return only; a rollout that panicked leaves
// its memory to the garbage collector. Nothing a Result holds is released.
func release(n *netem.Network, flows []*tcp.Flow, mons ...*gr.Monitor) {
	for _, f := range flows {
		f.Conn.Release()
	}
	for _, m := range mons {
		if m != nil {
			m.Release()
		}
	}
	n.Release()
}
