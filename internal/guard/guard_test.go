package guard

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sage/internal/cc"
	"sage/internal/chaos"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rl"
	"sage/internal/rollout"
	"sage/internal/sim"
	"sage/internal/tcp"
	"sage/internal/telemetry"
)

// testConn builds a started flow over a simple bottleneck so guardian unit
// tests can drive Control directly against a real connection.
func testConn(t *testing.T, rate *netem.RateSchedule) (*tcp.Conn, *sim.Loop) {
	t.Helper()
	loop := sim.NewLoop()
	n := netem.New(loop, netem.Config{Rate: rate, MinRTT: 20 * sim.Millisecond, Queue: netem.NewDropTail(1 << 20)})
	fl := tcp.NewFlow(loop, n, 1, cc.MustNew("pure"), tcp.Options{})
	return fl.Conn, loop
}

// setCwnd is a controller that applies f to the current window each tick.
type setCwnd struct{ f func(w float64) float64 }

func (s setCwnd) Control(_ sim.Time, conn *tcp.Conn, _ []float64) {
	conn.SetCwnd(s.f(conn.Cwnd))
}

func finiteState() []float64 { return make([]float64, 8) }

// offFloor lifts a finite window that the wrapped controller left at the
// cwnd floor one packet above it; a non-finite window passes through.
type offFloor struct{ rollout.Controller }

func (o offFloor) Control(now sim.Time, conn *tcp.Conn, state []float64) {
	o.Controller.Control(now, conn, state)
	if conn.Cwnd <= tcp.MinCwnd {
		conn.SetCwnd(tcp.MinCwnd + 1)
	}
}

func adversarialScenario(t *testing.T, family string) netem.Scenario {
	t.Helper()
	grid := netem.AdversarialGrid(netem.AdversarialOptions{Level: netem.GridTiny, Duration: 10 * sim.Second, Seed: 1})
	for _, sc := range grid {
		if strings.HasPrefix(sc.Name, family+"-") {
			return sc
		}
	}
	t.Fatalf("no %q scenario in the adversarial grid", family)
	return netem.Scenario{}
}

// TestGuardianRecoversNaNPolicy is the headline robustness contrast: under
// an adversarial scenario, a policy whose weights corrupt to NaN mid-flight
// permanently stalls an unguarded connection, while the guardian trips the
// same connection to Cubic within the watchdog budget, completes the flow,
// and re-admits the (healed) policy after probation — with every transition
// recorded in telemetry.
func TestGuardianRecoversNaNPolicy(t *testing.T) {
	sc := adversarialScenario(t, "reorder")
	newPolicy := func() *nn.Policy {
		return nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim, Enc: 8, Hidden: 4, K: 2, Seed: 1})
	}
	// The untrained test policy legitimately rides the cwnd floor, which
	// would fire the collapse watchdog before the poison lands; offFloor
	// keeps its windows off the floor (the collapse watchdog has a
	// dedicated test below) so this test isolates the NaN trip →
	// probation → re-admission cycle. Both the guarded and the unguarded
	// run wrap the policy in offFloor, and the NaN window passes through
	// offFloor on purpose (NaN <= tcp.MinCwnd is false): an offFloor that
	// lifted NaN would hide the unguarded blackhole asserted below.

	// Unguarded: the NaN policy blackholes the connection for good.
	polA := newPolicy()
	bare := &chaos.NaNInjector{
		Inner:       offFloor{rl.NewPolicyController(polA, nil, false, 1)},
		Policy:      polA,
		PoisonAfter: 50, // ~1 s in at the default 20 ms GR interval
	}
	bareRes := rollout.Run(sc, cc.MustNew("pure"), rollout.Options{Controller: bare})
	if n := len(bareRes.Intervals); n == 0 || bareRes.Intervals[n-1].ThroughputBps != 0 {
		t.Fatalf("unguarded NaN policy should stall the flow; final interval = %+v", bareRes.Intervals)
	}

	// Guarded: same corruption, but the weights heal one policy tick after
	// the poison (the guardian freezes the policy while tripped, so the
	// heal lands on the first post-restore inference).
	polB := newPolicy()
	inj := &chaos.NaNInjector{
		Inner:       offFloor{rl.NewPolicyController(polB, nil, false, 1)},
		Policy:      polB,
		PoisonAfter: 50,
		HealAfter:   51,
	}
	reg := telemetry.NewRegistry()
	g := New(inj, Config{Metrics: reg})
	res := rollout.Run(sc, cc.MustNew("pure"), rollout.Options{Controller: g})

	if g.Trips() < 1 {
		t.Fatal("guardian never tripped on the NaN policy")
	}
	if g.Restores() < 1 {
		t.Fatalf("policy never re-admitted after probation (trips=%d)", g.Trips())
	}
	if n := len(res.Intervals); n == 0 || res.Intervals[n-1].ThroughputBps == 0 {
		t.Fatalf("guarded flow did not complete; final interval = %+v", res.Intervals)
	}
	if res.ThroughputBps <= 2*bareRes.ThroughputBps {
		t.Fatalf("guarded throughput %.0f not clearly above unguarded %.0f",
			res.ThroughputBps, bareRes.ThroughputBps)
	}

	// The trip fired within the same control interval the NaN surfaced in:
	// the first event is a trip for a non-finite window.
	ev := g.Events()
	if len(ev) < 2 {
		t.Fatalf("events = %+v, want at least trip+restore", ev)
	}
	if ev[0].Kind != KindTrip || ev[0].Reason != ReasonBadCwnd {
		t.Fatalf("first event = %+v, want %s/%s", ev[0], KindTrip, ReasonBadCwnd)
	}
	var sawRestore bool
	for _, e := range ev {
		if e.Kind == KindRestore {
			sawRestore = true
			if e.AtUs <= ev[0].AtUs {
				t.Fatalf("restore at %d not after trip at %d", e.AtUs, ev[0].AtUs)
			}
		}
	}
	if !sawRestore {
		t.Fatalf("no restore event in %+v", ev)
	}

	// Counters landed in the registry.
	snap := reg.Snapshot()
	if snap[MetricTrips] < 1 || snap[MetricRestores] < 1 || snap[MetricBadCwnds] < 1 {
		t.Fatalf("registry snapshot missing guard counters: %v", snap)
	}

	// And the event log round-trips through the JSONL exporter.
	path := filepath.Join(t.TempDir(), "guard.jsonl")
	j, err := telemetry.CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.EmitEvents(j); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != len(ev) {
		t.Fatalf("JSONL has %d lines, want %d", len(lines), len(ev))
	}
	if !strings.Contains(lines[0], ReasonBadCwnd) {
		t.Fatalf("first JSONL line %q missing reason", lines[0])
	}
}

func TestGuardianTripsOnBadStateVector(t *testing.T) {
	conn, _ := testConn(t, netem.FlatRate(netem.Mbps(12)))
	reg := telemetry.NewRegistry()
	g := New(setCwnd{func(w float64) float64 { return w }}, Config{Metrics: reg})

	state := finiteState()
	state[3] = math.NaN()
	g.Control(0, conn, state)

	if !g.Tripped() || g.Trips() != 1 {
		t.Fatalf("tripped=%v trips=%d, want trip on NaN state", g.Tripped(), g.Trips())
	}
	if name := conn.CC().Name(); name != "cubic" {
		t.Fatalf("fallback CC = %q, want cubic", name)
	}
	if ev := g.Events(); len(ev) != 1 || ev[0].Reason != ReasonBadState {
		t.Fatalf("events = %+v", ev)
	}
	if snap := reg.Snapshot(); snap[MetricBadStates] != 1 {
		t.Fatalf("bad_states counter = %v", snap[MetricBadStates])
	}
}

func TestGuardianClampsWildStep(t *testing.T) {
	conn, _ := testConn(t, netem.FlatRate(netem.Mbps(12)))
	g := New(setCwnd{func(w float64) float64 { return w * 100 }}, Config{})

	before := conn.Cwnd
	g.Control(0, conn, finiteState())
	if want := before * 4; conn.Cwnd != want { // default MaxStepRatio 4
		t.Fatalf("cwnd = %v after 100x step, want clamped to %v", conn.Cwnd, want)
	}
	if g.Clamps() != 1 || g.Tripped() {
		t.Fatalf("clamps=%d tripped=%v, want a clamp without a trip", g.Clamps(), g.Tripped())
	}
}

func TestGuardianCollapseTrip(t *testing.T) {
	conn, _ := testConn(t, netem.FlatRate(netem.Mbps(12)))
	reg := telemetry.NewRegistry()
	g := New(setCwnd{func(float64) float64 { return 1 }}, Config{Metrics: reg})

	for i := 0; i < 40 && !g.Tripped(); i++ {
		g.Control(sim.Time(i)*20*sim.Millisecond, conn, finiteState())
	}
	if !g.Tripped() {
		t.Fatal("sustained floor-pinned cwnd never tripped the collapse watchdog")
	}
	if ev := g.Events(); ev[len(ev)-1].Reason != ReasonCollapse {
		t.Fatalf("events = %+v, want collapse trip", ev)
	}
	if snap := reg.Snapshot(); snap[MetricCollapses] != 1 {
		t.Fatalf("collapse counter = %v", snap[MetricCollapses])
	}
	if g.Clamps() == 0 {
		t.Fatal("driving cwnd below the floor should have registered clamps")
	}
}

func TestGuardianStallTrip(t *testing.T) {
	// A link that serves ~1 kb/s strands the initial window in flight:
	// data outstanding, zero delivery progress.
	conn, loop := testConn(t, netem.FlatRate(1000))
	conn.Start(0)
	loop.RunUntil(100 * sim.Millisecond)
	if conn.InflightPkts() == 0 {
		t.Fatal("setup: nothing in flight")
	}

	reg := telemetry.NewRegistry()
	g := New(setCwnd{func(w float64) float64 { return w }}, Config{})
	_ = reg
	for i := 0; i < 8; i++ { // default StallIntervals
		g.Control(100*sim.Millisecond+sim.Time(i)*20*sim.Millisecond, conn, finiteState())
	}
	if !g.Tripped() {
		t.Fatal("stalled flow never tripped the watchdog")
	}
	if ev := g.Events(); ev[len(ev)-1].Reason != ReasonStall {
		t.Fatalf("events = %+v, want stall trip", ev)
	}
	if name := conn.CC().Name(); name != "cubic" {
		t.Fatalf("fallback CC = %q, want cubic", name)
	}
}

// TestGuardianHysteresisDoublesProbation checks re-trips lengthen probation:
// a controller that is always broken keeps the connection on the fallback,
// and successive restore events space out until maxProbation caps them.
func TestGuardianHysteresisDoublesProbation(t *testing.T) {
	conn, loop := testConn(t, netem.FlatRate(netem.Mbps(12)))
	conn.Start(0)
	g := New(setCwnd{func(float64) float64 { return math.NaN() }}, Config{})

	// Five episodes: baseProbation doubling to maxProbation (32, 64, 128,
	// 256), then one more held at the cap.
	const episodes = 5
	now := sim.Time(0)
	step := 20 * sim.Millisecond
	var gaps []sim.Time
	lastTrip := sim.Time(-1)
	seen := 0
	for i := 0; len(gaps) < episodes; i++ {
		if i > 4*maxProbation {
			t.Fatalf("only %d trip→restore cycles in %d ticks: %+v", len(gaps), i, g.Events())
		}
		now += step
		loop.RunUntil(now) // keep the fallback delivering so probation elapses
		g.Control(now, conn, finiteState())
		ev := g.Events()
		for _, e := range ev[seen:] {
			switch e.Kind {
			case KindTrip:
				lastTrip = sim.Time(e.AtUs)
			case KindRestore:
				gaps = append(gaps, sim.Time(e.AtUs)-lastTrip)
			}
		}
		seen = len(ev)
	}
	// Hysteresis: each fallback episode up to the cap lasts about twice
	// the one before it; the episode after the cap is no longer than it.
	for k := 1; k < episodes-1; k++ {
		if gaps[k] <= gaps[k-1]*3/2 {
			t.Fatalf("probation gaps %v not doubling at episode %d", gaps, k)
		}
	}
	if last, prev := gaps[episodes-1], gaps[episodes-2]; last > prev*5/4 {
		t.Fatalf("probation gaps %v: episode past maxProbation grew again", gaps)
	}
	if g.curProbation != maxProbation {
		t.Fatalf("probation = %d after %d episodes, want capped at %d", g.curProbation, episodes, maxProbation)
	}
}
