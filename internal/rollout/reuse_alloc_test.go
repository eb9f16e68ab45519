//go:build !race

package rollout_test

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"sage/internal/alloctest"
	"sage/internal/cc"
	"sage/internal/netem"
	"sage/internal/rollout"
	"sage/internal/sim"
	"sage/internal/tcp"
)

// A rollout run after another on the same goroutine builds its simulation
// from the memory the first one released: no packet, tx ring, delay-line
// ring, queue ring or GR window is allocated again. The GR states of the
// trajectory are carved from 59-state arena blocks, so what is left is the
// fixed cost of a run — the loop, network, connection, monitor and result
// structs, a handful each — and one block per 59 ticks: 41 allocations.
// Without the reuse a run of this scenario also allocates its packet slabs
// and grows each ring from empty, 72 allocations in all.
func TestSecondRunReusesBuffers(t *testing.T) {
	sc := reuseScenario()
	ticks := 0
	run := func() {
		res := rollout.Run(sc, cc.MustNew("cubic"), rollout.Options{CollectSteps: true})
		ticks = len(res.Steps)
	}
	// Which allocations a run makes is the question here, not when the
	// collector runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(3, run)
	if allocs > fixedAllocs {
		t.Fatalf("a second run allocates %.0f times over %d GR ticks, want ≤ %d: it grew memory the first run released, or allocated per tick", allocs, ticks, fixedAllocs)
	}
	t.Logf("%.0f allocations over %d GR ticks", allocs, ticks)
}

// A garbage collection between two runs takes none of what the first
// released: the second still reuses every packet slab, ring and GR window,
// so it allocates what a run right after another does (the count
// TestSecondRunReusesBuffers pins), give or take collectSlack. Pools that
// a collection empties make it allocate the slabs and grow the rings again,
// about 30 more.
func TestRunAfterCollectionReusesBuffers(t *testing.T) {
	sc := reuseScenario()
	mallocs := func(collect bool) uint64 {
		if collect {
			runtime.GC()
			runtime.GC()
		}
		return alloctest.Measure(func() {
			rollout.Run(sc, cc.MustNew("cubic"), rollout.Options{CollectSteps: true})
		}).Mallocs
	}
	mallocs(false) // fills the pools
	for i := 0; i < 3; i++ {
		warm, collected := mallocs(false), mallocs(true)
		if collected > warm+collectSlack || collected > fixedAllocs {
			t.Fatalf("a run after two collections allocates %d times, one right after another %d: want the same ± %d, ≤ %d; the collections took memory a run released",
				collected, warm, collectSlack, fixedAllocs)
		}
	}
}

// reuseScenario is 48 Mb/s over 40 ms for a second: about 160 packets a
// BDP, all of them in flight or queued at once by the end of slow start.
func reuseScenario() netem.Scenario {
	return netem.Scenario{
		Name:       "reuse",
		Rate:       netem.FlatRate(netem.Mbps(48)),
		MinRTT:     40 * sim.Millisecond,
		QueueBytes: netem.BDPBytes(netem.Mbps(48), 40*sim.Millisecond),
		Duration:   sim.Second,
	}
}

// The RunMulti twin of TestSecondRunReusesBuffers: a fleet of
// controller-driven flows ticks every monitor into one buffer the driver
// owns, so a second run of twice the length allocates what the shorter one
// does, give or take the few slices (event heap, tx ring) that a longer run
// may find too small and double once.
func TestSecondRunMultiAllocatesPerRunNotPerTick(t *testing.T) {
	sc := netem.Scenario{
		Name:       "reuse-multi",
		Rate:       netem.FlatRate(netem.Mbps(48)),
		MinRTT:     40 * sim.Millisecond,
		QueueBytes: netem.BDPBytes(netem.Mbps(48), 40*sim.Millisecond),
	}
	const flows = 4
	allocsOver := func(d sim.Time) float64 {
		sc.Duration = d
		run := func() {
			specs := make([]rollout.FlowSpec, flows)
			for i := range specs {
				specs[i] = rollout.FlowSpec{CC: cc.MustNew("pure"), Controller: fixedCwnd(40), Start: sim.Time(i) * 100 * sim.Millisecond}
			}
			rollout.RunMulti(sc, specs, rollout.MultiOptions{})
		}
		run() // the first run of a length fills the pools for it
		return testing.AllocsPerRun(3, run)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	short, long := allocsOver(2*sim.Second), allocsOver(4*sim.Second)
	// 4 flows × 100 more GR ticks: a state per tick would be 400 more.
	if math.Abs(long-short) > multiSlack {
		t.Fatalf("a 4 s run allocates %.0f times, a 2 s run %.0f: want the same ± %d, the run allocates per tick", long, short, multiSlack)
	}
	t.Logf("%.0f allocations at 2 s, %.0f at 4 s", short, long)
}

// fixedCwnd is a controller that holds the window and allocates nothing.
type fixedCwnd float64

func (w fixedCwnd) Control(_ sim.Time, conn *tcp.Conn, _ []float64) { conn.SetCwnd(float64(w)) }

// fixedAllocs bounds what a run allocates in all: the loop, network, queue,
// link, connection, sink, CC module, monitor and result, the heap, slot and
// history slices behind them, and the trajectory's step slice and state
// arena. It sits between a run that reuses (41) and one that does not (72).
const fixedAllocs = 56

// collectSlack bounds how many more times a run after a collection may
// allocate than one right after another run.
const collectSlack = 4

// multiSlack bounds how far apart the allocation counts of RunMulti runs
// of two lengths may be.
const multiSlack = 8
