package rl

import (
	"testing"

	"sage/internal/cc"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/sim"
	"sage/internal/tcp"
)

func controllerFixture(tb testing.TB) (*PolicyController, *tcp.Conn, []float64) {
	tb.Helper()
	pol := nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim, Seed: 1})
	pc := NewPolicyController(pol, nil, false, 0)
	loop := sim.NewLoop()
	sc := netem.Scenario{
		Name: "ctl", Rate: netem.FlatRate(netem.Mbps(48)),
		MinRTT: 20 * sim.Millisecond, QueueBytes: 1 << 20, Duration: sim.Second,
	}
	n := sc.Build(loop)
	fl := tcp.NewFlow(loop, n, 1, cc.MustNew("pure"), tcp.Options{})
	state := make([]float64, gr.StateDim)
	for i := range state {
		state[i] = float64(i%7) * 0.25
	}
	return pc, fl.Conn, state
}

// A warmed, non-recording controller decides without allocating, taking the
// mixture mean (the trainer-side default) or its mode (core.Agent's
// UseMode): the mask projection, the one-row forward and the mixture mean
// all run on the controller's own scratch.
func TestControllerControlNoAllocs(t *testing.T) {
	for _, useMode := range []bool{false, true} {
		pc, conn, state := controllerFixture(t)
		pc.UseMode = useMode
		step := func() { pc.Control(sim.Second, conn, state) }
		step() // size the scratch
		if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
			t.Errorf("UseMode=%v: Control allocates %.1f objects/op after warm-up, want 0", useMode, allocs)
		}
	}
}

// Reset zeroes the recurrent state in place: the next decision is a fresh
// controller's, and a guard re-admission allocates nothing.
func TestControllerResetInPlace(t *testing.T) {
	pc, conn, state := controllerFixture(t)
	start := conn.Cwnd
	pc.Control(sim.Second, conn, state)
	first := conn.Cwnd
	pc.Control(2*sim.Second, conn, state)
	conn.SetCwnd(start)
	if allocs := testing.AllocsPerRun(10, pc.Reset); allocs != 0 {
		t.Errorf("Reset allocates %.1f objects/op, want 0", allocs)
	}
	pc.Control(sim.Second, conn, state)
	if conn.Cwnd != first {
		t.Errorf("first decision after Reset moved cwnd to %v, a fresh controller to %v", conn.Cwnd, first)
	}
}

// BenchmarkControllerControl is the go test -bench twin of
// TestControllerControlNoAllocs: ns and bytes per per-flow decision.
func BenchmarkControllerControl(b *testing.B) {
	pc, conn, state := controllerFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc.Control(sim.Second, conn, state)
	}
}
