//go:build !race

package rollout_test

import (
	"runtime/debug"
	"testing"

	"sage/internal/cc"
	"sage/internal/netem"
	"sage/internal/rollout"
	"sage/internal/sim"
)

// A rollout run after another on the same goroutine builds its simulation
// from the memory the first one released: no packet, tx ring, delay-line
// ring, queue ring or GR window is allocated again. What is left is the
// fixed cost of a run — the loop, network, connection, monitor and result
// structs, a handful each — and the state vector of every GR tick, which the
// trajectory keeps. Without the reuse a run of this scenario allocates
// its peak population of packets one by one on top of that, about 300, and
// grows each ring from empty: 436 allocations in all.
func TestSecondRunReusesBuffers(t *testing.T) {
	// 48 Mb/s over 40 ms: about 160 packets a BDP, all of them in flight
	// or queued at once by the end of slow start.
	sc := netem.Scenario{
		Name:       "reuse",
		Rate:       netem.FlatRate(netem.Mbps(48)),
		MinRTT:     40 * sim.Millisecond,
		QueueBytes: netem.BDPBytes(netem.Mbps(48), 40*sim.Millisecond),
		Duration:   sim.Second,
	}
	ticks := 0
	run := func() {
		res := rollout.Run(sc, cc.MustNew("cubic"), rollout.Options{CollectSteps: true})
		ticks = len(res.Steps)
	}
	// A collection would move pooled memory to the victim cache or drop it;
	// which allocations a run makes is the question here, not when the
	// collector runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(3, run)
	// ticks state vectors (and the slice holding them), plus the fixed cost:
	// about 50 allocations today.
	if bound := float64(ticks + fixedAllocs); allocs > bound {
		t.Fatalf("a second run allocates %.0f times over %d GR ticks, want ≤ %.0f: it grew memory the first run released", allocs, ticks, bound)
	}
	t.Logf("%.0f allocations over %d GR ticks", allocs, ticks)
}

// fixedAllocs bounds what a run allocates besides its GR states: the loop,
// network, queue, link, connection, sink, CC module, monitor and result, and
// the heap, slot and history slices behind them.
const fixedAllocs = 80
