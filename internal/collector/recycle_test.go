package collector

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"testing"

	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/sim"
)

// recycleScenario is a flat-rate cell with jitter, so packets reorder on the
// path and every ring sees wrap-around.
func recycleScenario(name string, mbps float64, rtt sim.Time, cubicFlows int, dur sim.Time) netem.Scenario {
	rate := netem.FlatRate(netem.Mbps(mbps))
	sc := netem.Scenario{
		Name:       name,
		Rate:       rate,
		MinRTT:     rtt,
		QueueBytes: 2 * netem.BDPBytes(rate.At(0), rtt),
		Duration:   dur,
		CubicFlows: cubicFlows,
		Jitter:     500 * sim.Microsecond,
		Seed:       7,
	}
	if cubicFlows > 0 {
		sc.TestStart = dur / 4
	}
	return sc
}

func sameSteps(a, b []gr.Step) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d steps, want %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i].Action) != math.Float64bits(b[i].Action) || math.Float64bits(a[i].Reward) != math.Float64bits(b[i].Reward) {
			return fmt.Errorf("step %d: action/reward %v/%v, want %v/%v", i, a[i].Action, a[i].Reward, b[i].Action, b[i].Reward)
		}
		for j := range a[i].State {
			if math.Float64bits(a[i].State[j]) != math.Float64bits(b[i].State[j]) {
				return fmt.Errorf("step %d, state[%d]: %v, want %v", i, j, a[i].State[j], b[i].State[j])
			}
		}
	}
	return nil
}

// A cell that runs on the memory a bigger cell released — its packet slabs,
// a tx ring many times what it needs and holding another flow's records,
// its delay-line and queue rings, GR windows full of another flow's
// samples — collects bit for bit the trajectory it collects in a fresh
// process. Then the same holds with two workers passing buffers between
// goroutines, for every cell of a small grid.
func TestRecycledCellMatchesFresh(t *testing.T) {
	big := recycleScenario("big-2flow", 96, 160*sim.Millisecond, 1, 3*sim.Second)
	small := recycleScenario("small", 12, 20*sim.Millisecond, 0, sim.Second)
	cell := func(scheme string, sc netem.Scenario) []gr.Step {
		tr, err := CollectCell(context.Background(), scheme, sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return tr.Steps
	}

	sim.EmptyPools()
	fresh := cell("cubic", small)
	func() {
		// No collection between the two cells, so the small one takes what
		// the big one released.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		cell("bbr2", big)
		if err := sameSteps(cell("cubic", small), fresh); err != nil {
			t.Fatalf("small cell after the big one: %v", err)
		}
	}()

	schemes := []string{"cubic", "bbr2", "vegas"}
	scs := []netem.Scenario{big, small, recycleScenario("mid", 48, 60*sim.Millisecond, 0, 2*sim.Second)}
	want := map[CellKey][]gr.Step{}
	for _, s := range schemes {
		for _, sc := range scs {
			sim.EmptyPools()
			want[CellKey{s, sc.Name}] = cell(s, sc)
		}
	}
	pool, err := Collect(context.Background(), schemes, scs, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Trajs) != len(want) {
		t.Fatalf("%d trajectories, want %d", len(pool.Trajs), len(want))
	}
	for _, tr := range pool.Trajs {
		if err := sameSteps(tr.Steps, want[CellKey{tr.Scheme, tr.Env}]); err != nil {
			t.Errorf("%s/%s under Collect at Parallel 2: %v", tr.Scheme, tr.Env, err)
		}
	}
}
