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
// bookkeeping became a ring and must not move. The old map kept every packet
// that was declared lost and never acknowledged for the life of the flow
// (≈ 4 200 records here); the ring retires them (see advanceHead), so what
// the connection keeps stays within a few windows.
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
	const window = 60
	fl := NewFlow(loop, n, 1, &fixedCC{w: window}, Options{})
	c := fl.Conn
	c.Start(0)
	peak := int64(0)
	for at := 10 * sim.Millisecond; at <= 60*sim.Second; at += 10 * sim.Millisecond {
		loop.RunUntil(at)
		peak = max(peak, c.nextSeq-c.base)
	}
	// One window in flight plus the sends of one RTO (200 ms = 5 RTTs).
	if peak > 8*window || len(c.tx) > 16*window {
		t.Errorf("tx ring spans %d records in %d slots, want at most %d and %d", peak, len(c.tx), 8*window, 16*window)
	}
	const wantSent, wantDelivered, wantLost, wantSpurious = 83577, 79333, 4664, 480
	if c.SentPkts() != wantSent || c.DeliveredPkts() != wantDelivered || c.LostPkts() != wantLost || c.SpuriousRetrans() != wantSpurious {
		t.Errorf("sent=%d delivered=%d lost=%d spurious=%d, want %d %d %d %d",
			c.SentPkts(), c.DeliveredPkts(), c.LostPkts(), c.SpuriousRetrans(), wantSent, wantDelivered, wantLost, wantSpurious)
	}
}
