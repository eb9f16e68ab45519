package tcp

import (
	"testing"

	"sage/internal/netem"
	"sage/internal/sim"
)

// TestSustainedLossCounters pins a flow's loss accounting over a link that
// loses 5 % of its packets and reorders another 2 % past the RACK window, so
// that spurious-retransmission detection (a late ACK for a packet already
// declared lost) stays exercised. The constants were taken before the tx
// bookkeeping was refactored and must not move.
func TestSustainedLossCounters(t *testing.T) {
	loop := sim.NewLoop()
	n := netem.New(loop, netem.Config{
		Rate:         netem.FlatRate(netem.Mbps(24)),
		MinRTT:       40 * sim.Millisecond,
		Queue:        netem.NewDropTail(1 << 20),
		LossProb:     0.05,
		ReorderProb:  0.02,
		ReorderDelay: 60 * sim.Millisecond,
		Seed:         7,
	})
	fl := NewFlow(loop, n, 1, &fixedCC{w: 60}, Options{})
	fl.Conn.Start(0)
	loop.RunUntil(60 * sim.Second)

	c := fl.Conn
	const wantSent, wantDelivered, wantLost, wantSpurious = 83577, 79333, 4664, 480
	if c.SentPkts() != wantSent || c.DeliveredPkts() != wantDelivered || c.LostPkts() != wantLost || c.SpuriousRetrans() != wantSpurious {
		t.Errorf("sent=%d delivered=%d lost=%d spurious=%d, want %d %d %d %d",
			c.SentPkts(), c.DeliveredPkts(), c.LostPkts(), c.SpuriousRetrans(), wantSent, wantDelivered, wantLost, wantSpurious)
	}
}
