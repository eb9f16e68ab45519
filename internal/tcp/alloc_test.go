package tcp_test

import (
	"testing"

	"sage/internal/cc"
	"sage/internal/netem"
	"sage/internal/sim"
	"sage/internal/tcp"
)

// One data packet from Conn through the bottleneck to the Sink and its ACK
// back to the Conn allocates nothing once the free lists are primed.
func TestPacketRoundTripAllocatesNothing(t *testing.T) {
	loop := sim.NewLoop()
	rtt := 10 * sim.Millisecond
	n := netem.New(loop, netem.Config{Rate: netem.FlatRate(netem.Mbps(100)), MinRTT: rtt})
	fl := tcp.NewFlow(loop, n, 1, cc.MustNew("pure"), tcp.Options{InitCwnd: 1})
	fl.Conn.Start(0)
	loop.RunUntil(sim.Second) // warm up: ring, packet and event free lists
	var trips int64
	// AllocsPerRun(1, f) runs f twice and counts the second run exactly.
	allocs := testing.AllocsPerRun(1, func() {
		before := fl.Conn.DeliveredPkts()
		loop.RunUntil(loop.Now() + sim.Second)
		trips = fl.Conn.DeliveredPkts() - before
	})
	if allocs != 0 || trips < 50 {
		t.Fatalf("%.0f allocations over %d packet round trips, want 0 over ≥ 50", allocs, trips)
	}
}

// A Cubic flow in steady state — slow start over, sawtooth against a 1-BDP
// drop-tail buffer, RACK and RTO timers re-armed on every ACK — allocates
// (amortized) next to nothing per delivered packet.
func TestSteadyCubicFlowAllocations(t *testing.T) {
	loop := sim.NewLoop()
	n := netem.New(loop, netem.Config{Rate: netem.FlatRate(netem.Mbps(48)), MinRTT: 40 * sim.Millisecond, Jitter: 500 * sim.Microsecond, Seed: 1})
	fl := tcp.NewFlow(loop, n, 1, cc.MustNew("cubic"), tcp.Options{})
	fl.Conn.Start(0)
	loop.RunUntil(10 * sim.Second)
	var delivered, lost int64
	// AllocsPerRun(1, f) runs f twice and counts the second run exactly.
	allocs := testing.AllocsPerRun(1, func() {
		d, l := fl.Conn.DeliveredPkts(), fl.Conn.LostPkts()
		loop.RunUntil(loop.Now() + 10*sim.Second)
		delivered, lost = fl.Conn.DeliveredPkts()-d, fl.Conn.LostPkts()-l
	})
	if lost == 0 {
		t.Fatal("no loss in the measured window: not the sawtooth this test is about")
	}
	if perPkt := allocs / float64(delivered); perPkt > 0.05 {
		t.Fatalf("%.0f allocations over %d delivered packets = %.4f per packet, want ≤ 0.05", allocs, delivered, perPkt)
	}
	t.Logf("%.0f allocations over %d delivered packets (%d lost)", allocs, delivered, lost)
}
