package rollout

import (
	"math"
	"testing"

	"sage/internal/cc"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/sim"
	"sage/internal/tcp"
	"sage/internal/telemetry"
)

func flatScenario(bwMbps, rttMs float64, bdp float64, dur sim.Time) netem.Scenario {
	rate := netem.FlatRate(netem.Mbps(bwMbps))
	mrtt := sim.FromMillis(rttMs)
	return netem.Scenario{
		Name:       "test-flat",
		Rate:       rate,
		MinRTT:     mrtt,
		QueueBytes: int(float64(netem.BDPBytes(rate.At(0), mrtt)) * bdp),
		Duration:   dur,
	}
}

func TestRunSingleFlow(t *testing.T) {
	sc := flatScenario(24, 20, 2, 8*sim.Second)
	res := Run(sc, cc.MustNew("cubic"), Options{CollectSteps: true})
	if res.Scheme != "cubic" || res.ScenarioName != "test-flat" {
		t.Fatalf("labels: %+v", res)
	}
	if res.ThroughputBps < 0.7*24e6 {
		t.Fatalf("throughput %.2f Mb/s", res.ThroughputBps/1e6)
	}
	if len(res.Intervals) != 4 {
		t.Fatalf("intervals = %d", len(res.Intervals))
	}
	for i, iv := range res.Intervals {
		if iv.ThroughputBps <= 0 || iv.AvgRTT <= 0 {
			t.Fatalf("interval %d empty: %+v", i, iv)
		}
	}
	if len(res.Steps) < 300 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	if res.AvgRTT < 20*sim.Millisecond {
		t.Fatalf("avg rtt %v below propagation", res.AvgRTT)
	}
}

func TestRunMultiFlowFairShare(t *testing.T) {
	sc := flatScenario(24, 40, 2, 30*sim.Second)
	sc.CubicFlows = 1
	sc.TestStart = 3 * sim.Second
	res := Run(sc, cc.MustNew("cubic"), Options{})
	if res.FairShareBps != netem.Mbps(12) {
		t.Fatalf("fair share %.2f", res.FairShareBps/1e6)
	}
	if len(res.BgThroughput) != 1 {
		t.Fatalf("background flows = %d", len(res.BgThroughput))
	}
	// Both flows should be active; combined near capacity.
	total := res.ThroughputBps + res.BgThroughput[0]
	if total < 0.7*24e6 {
		t.Fatalf("aggregate %.2f Mb/s", total/1e6)
	}
	if res.ThroughputBps < 0.2*12e6 {
		t.Fatalf("test flow starved: %.2f Mb/s", res.ThroughputBps/1e6)
	}
}

// ctrlHalf is a controller that pins cwnd to a constant, proving the
// Controller hook overrides the underlying scheme.
type ctrlHalf struct{ w float64 }

func (c *ctrlHalf) Control(now sim.Time, conn *tcp.Conn, state []float64) {
	conn.SetCwnd(c.w)
}

func TestControllerHookDrivesCwnd(t *testing.T) {
	sc := flatScenario(24, 20, 4, 6*sim.Second)
	res := Run(sc, cc.MustNew("pure"), Options{Controller: &ctrlHalf{w: 4}})
	// With cwnd pinned to 4 packets on a 40-packet BDP, throughput must be
	// roughly 4/40 of capacity — far below what cubic alone would reach.
	if res.ThroughputBps > 0.25*24e6 {
		t.Fatalf("controller ignored: %.2f Mb/s", res.ThroughputBps/1e6)
	}
	if res.ThroughputBps < 0.04*24e6 {
		t.Fatalf("flow collapsed: %.2f Mb/s", res.ThroughputBps/1e6)
	}
}

func TestFlowTraceRecordsDatapath(t *testing.T) {
	sc := flatScenario(24, 20, 2, 5*sim.Second)
	tr := telemetry.NewFlowTrace(0)
	res := Run(sc, cc.MustNew("cubic"), Options{CollectSteps: true, Trace: tr})
	if tr.Len() != len(res.Steps) {
		t.Fatalf("trace %d samples, %d GR steps", tr.Len(), len(res.Steps))
	}
	samples := tr.Samples()
	sawQueue, sawSRTT := false, false
	for i, s := range samples {
		if s.Cwnd <= 0 || s.AtUs <= 0 || s.Flow != 1 {
			t.Fatalf("bad sample %d: %+v", i, s)
		}
		if i > 0 && s.AtUs <= samples[i-1].AtUs {
			t.Fatalf("timestamps not increasing at %d", i)
		}
		if s.QueuePkts > 0 {
			sawQueue = true
		}
		if s.SRTTMs > 0 {
			sawSRTT = true
		}
		if s.Action != res.Steps[i].Action || s.Reward != res.Steps[i].Reward {
			t.Fatalf("sample %d action/reward diverges from GR step", i)
		}
	}
	if !sawQueue {
		t.Fatal("queue occupancy never observed on a 2-BDP buffer")
	}
	if !sawSRTT {
		t.Fatal("srtt never observed")
	}
	// A decimated trace keeps strictly fewer samples.
	dec := telemetry.NewFlowTrace(200 * sim.Millisecond)
	Run(sc, cc.MustNew("cubic"), Options{Trace: dec})
	if dec.Len() == 0 || dec.Len() >= tr.Len() {
		t.Fatalf("decimated trace = %d (full %d)", dec.Len(), tr.Len())
	}
}

// TestTraceDoesNotPerturb proves telemetry is observational: the same
// seed with and without a trace must produce identical trajectories.
func TestTraceDoesNotPerturb(t *testing.T) {
	sc := flatScenario(24, 20, 2, 3*sim.Second)
	plain := Run(sc, cc.MustNew("cubic"), Options{CollectSteps: true})
	traced := Run(sc, cc.MustNew("cubic"), Options{CollectSteps: true, Trace: telemetry.NewFlowTrace(0)})
	if len(plain.Steps) != len(traced.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(plain.Steps), len(traced.Steps))
	}
	for i := range plain.Steps {
		if plain.Steps[i].Action != traced.Steps[i].Action || plain.Steps[i].Reward != traced.Steps[i].Reward {
			t.Fatalf("step %d differs with tracing on", i)
		}
	}
}

func TestSeriesSampling(t *testing.T) {
	sc := flatScenario(24, 20, 2, 5*sim.Second)
	res := Run(sc, cc.MustNew("cubic"), Options{SamplePeriod: 100 * sim.Millisecond})
	if len(res.Series) < 40 {
		t.Fatalf("series = %d samples", len(res.Series))
	}
	for _, s := range res.Series {
		if s.Cwnd <= 0 || s.At <= 0 {
			t.Fatalf("bad sample %+v", s)
		}
	}
}

// stateCopier is a controller that keeps a copy of every state it is
// handed, as the Controller contract asks of one that keeps them.
type stateCopier struct{ states [][]float64 }

func (c *stateCopier) Control(_ sim.Time, _ *tcp.Conn, state []float64) {
	c.states = append(c.states, append([]float64(nil), state...))
}

// A recorded trajectory's states are carved from an arena (here three
// blocks): each step's State holds exactly what the controller saw on its
// tick, bit for bit, and is a StateDim slot with no spare capacity, so
// appending to one step's State moves it off the arena instead of over the
// next step's.
func TestRunStepsComeFromAnArena(t *testing.T) {
	sc := flatScenario(24, 20, 2, 3*sim.Second)
	sc.CubicFlows, sc.TestStart = 1, 500*sim.Millisecond
	ctl := &stateCopier{}
	res := Run(sc, cc.MustNew("cubic"), Options{CollectSteps: true, Controller: ctl})
	if len(res.Steps) == 0 || len(res.Steps) != len(ctl.states) {
		t.Fatalf("%d steps, controller saw %d states", len(res.Steps), len(ctl.states))
	}
	for i, st := range res.Steps {
		if len(st.State) != gr.StateDim || cap(st.State) != gr.StateDim {
			t.Fatalf("step %d: len %d cap %d, want both %d", i, len(st.State), cap(st.State), gr.StateDim)
		}
		for j, v := range st.State {
			if math.Float64bits(v) != math.Float64bits(ctl.states[i][j]) {
				t.Fatalf("step %d: state[%d] = %v, controller saw %v", i, j, v, ctl.states[i][j])
			}
		}
	}
	next := append([]float64(nil), res.Steps[1].State...)
	grown := append(res.Steps[0].State, -1)
	if &grown[0] == &res.Steps[0].State[0] {
		t.Fatal("append to a step's State wrote into the arena")
	}
	for j, v := range res.Steps[1].State {
		if math.Float64bits(v) != math.Float64bits(next[j]) {
			t.Fatalf("append to step 0's State changed step 1's state[%d]: %v, was %v", j, v, next[j])
		}
	}
}

// A recorded flow that ticks more often than recordSteps was told gets a
// block per extra tick; the states it handed out before keep their values.
func TestArenaGrowthKeepsHandedOutStates(t *testing.T) {
	sc := flatScenario(24, 20, 2, 2*sim.Second)
	d := newDriver(sc, 1, Options{})
	f := d.add(1, cc.MustNew("cubic"), nil)
	f.mon = gr.NewMonitor(d.opt.GR, f.Conn, gr.RewardContext{Kind: gr.RewardSingleFlow, Capacity: sc.Rate.At, MinRTT: sc.MinRTT})
	f.begin(0)
	f.recordSteps(2)
	var steps []gr.Step
	var copies [][]float64
	d.run(0, sc.Duration, func(sim.Time) {
		steps = append(steps, f.step)
		copies = append(copies, append([]float64(nil), f.step.State...))
	})
	if len(steps) <= 2 {
		t.Fatalf("%d ticks, want more than the arena's 2", len(steps))
	}
	for i, st := range steps {
		if len(st.State) != gr.StateDim || cap(st.State) != gr.StateDim {
			t.Fatalf("step %d: len %d cap %d, want both %d", i, len(st.State), cap(st.State), gr.StateDim)
		}
		for j, v := range st.State {
			if math.Float64bits(v) != math.Float64bits(copies[i][j]) {
				t.Fatalf("step %d: state[%d] = %v after the arena grew, was %v", i, j, v, copies[i][j])
			}
		}
	}
	d.release()
}
