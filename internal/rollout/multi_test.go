package rollout

import (
	"context"
	"testing"

	"sage/internal/cc"
	"sage/internal/netem"
	"sage/internal/sim"
	"sage/internal/tcp"
	"sage/internal/telemetry"
)

func TestRunMultiStaggeredShares(t *testing.T) {
	mrtt := 40 * sim.Millisecond
	sc := netem.Scenario{
		Name:       "multi",
		Rate:       netem.FlatRate(netem.Mbps(48)),
		MinRTT:     mrtt,
		QueueBytes: netem.BDPBytes(netem.Mbps(48), mrtt),
		Duration:   30 * sim.Second,
	}
	specs := []FlowSpec{
		{Name: "a", CC: cc.MustNew("cubic"), Start: 0},
		{Name: "b", CC: cc.MustNew("cubic"), Start: 10 * sim.Second},
	}
	res := RunMulti(sc, specs, MultiOptions{SamplePeriod: 2 * sim.Second})
	if len(res) != 2 {
		t.Fatalf("flows = %d", len(res))
	}
	if res[0].Name != "a" || res[1].Name != "b" {
		t.Fatal("names")
	}
	// Flow a alone for 10 s: its early samples near capacity; after b joins
	// the final-window shares should be roughly even.
	if len(res[0].Series) < 10 {
		t.Fatalf("series = %d", len(res[0].Series))
	}
	early := res[0].Series[3].ThrBps // t = 8 s
	if early < 0.7*48e6 {
		t.Fatalf("flow a early %v Mb/s, want near capacity", early/1e6)
	}
	lastA := res[0].Series[len(res[0].Series)-1].ThrBps
	lastB := res[1].Series[len(res[1].Series)-1].ThrBps
	if lastA+lastB < 0.7*48e6 {
		t.Fatalf("aggregate final %v Mb/s", (lastA+lastB)/1e6)
	}
	ratio := lastA / lastB
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("final share ratio %v", ratio)
	}
	// Whole-run throughput accounted per flow's own active window.
	if res[1].ThroughputBps <= 0 || res[0].ThroughputBps <= 0 {
		t.Fatal("missing throughput")
	}
}

func TestRunMultiControllerFlows(t *testing.T) {
	sc := netem.Scenario{
		Name:       "ctl",
		Rate:       netem.FlatRate(netem.Mbps(24)),
		MinRTT:     20 * sim.Millisecond,
		QueueBytes: 1 << 20,
		Duration:   5 * sim.Second,
	}
	pin := &ctrlHalf{w: 20}
	specs := []FlowSpec{
		{Name: "pinned", CC: cc.MustNew("pure"), Controller: pin, Start: 0},
	}
	res := RunMulti(sc, specs, MultiOptions{})
	// cwnd pinned at 20 over a 40-packet BDP: about half utilization.
	util := res[0].ThroughputBps / 24e6
	if util < 0.3 || util > 0.7 {
		t.Fatalf("pinned util %.2f", util)
	}
}

// Guard: RunMulti must keep per-flow GR monitors independent.
func TestRunMultiIndependentMonitors(t *testing.T) {
	sc := netem.Scenario{
		Name:       "mon",
		Rate:       netem.FlatRate(netem.Mbps(24)),
		MinRTT:     20 * sim.Millisecond,
		QueueBytes: 1 << 20,
		Duration:   3 * sim.Second,
	}
	var aCwnd, bCwnd []float64
	mk := func(dst *[]float64, w float64) Controller {
		return ctrlRecord{dst: dst, w: w}
	}
	specs := []FlowSpec{
		{Name: "a", CC: cc.MustNew("pure"), Controller: mk(&aCwnd, 5), Start: 0},
		{Name: "b", CC: cc.MustNew("pure"), Controller: mk(&bCwnd, 50), Start: 0},
	}
	RunMulti(sc, specs, MultiOptions{})
	if len(aCwnd) == 0 || len(bCwnd) == 0 {
		t.Fatal("controllers not driven")
	}
}

type ctrlRecord struct {
	dst *[]float64
	w   float64
}

func (c ctrlRecord) Control(now sim.Time, conn *tcp.Conn, state []float64) {
	conn.SetCwnd(c.w)
	*c.dst = append(*c.dst, conn.Cwnd)
}

// Ctx cancellation must stop a multi-flow run early and mark every
// result, matching Run's drain semantics.
func TestRunMultiCtxCancel(t *testing.T) {
	sc := netem.Scenario{
		Name:       "cancel",
		Rate:       netem.FlatRate(netem.Mbps(24)),
		MinRTT:     20 * sim.Millisecond,
		QueueBytes: 1 << 20,
		Duration:   30 * sim.Second,
	}
	specs := []FlowSpec{
		{Name: "a", CC: cc.MustNew("cubic"), Start: 0},
		{Name: "b", CC: cc.MustNew("cubic"), Start: 0},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first interval: nothing should run
	res := RunMulti(sc, specs, MultiOptions{Ctx: ctx})
	for i, r := range res {
		if !r.Interrupted {
			t.Errorf("flow %d not marked Interrupted", i)
		}
		if r.ThroughputBps != 0 {
			t.Errorf("flow %d moved data after cancellation: %v bps", i, r.ThroughputBps)
		}
	}
}

// Trace must receive per-tick samples for every controller-driven flow.
func TestRunMultiTrace(t *testing.T) {
	sc := netem.Scenario{
		Name:       "trace",
		Rate:       netem.FlatRate(netem.Mbps(24)),
		MinRTT:     20 * sim.Millisecond,
		QueueBytes: 1 << 20,
		Duration:   2 * sim.Second,
	}
	specs := []FlowSpec{
		{Name: "ctl", CC: cc.MustNew("pure"), Controller: &ctrlHalf{w: 20}, Start: 0},
		{Name: "bg", CC: cc.MustNew("cubic"), Start: 0},
	}
	tr := telemetry.NewFlowTrace(0)
	res := RunMulti(sc, specs, MultiOptions{Trace: tr})
	if res[0].ThroughputBps <= 0 {
		t.Fatal("controlled flow moved no data")
	}
	if tr.Len() == 0 {
		t.Fatal("trace recorded no samples")
	}
	for _, s := range tr.Samples() {
		if s.Flow != 1 {
			t.Fatalf("trace recorded flow %d; only the controller-driven flow (1) should appear", s.Flow)
		}
		if s.Cwnd <= 0 {
			t.Fatalf("sample with non-positive cwnd: %+v", s)
		}
	}
}
