package netem

import (
	"fmt"
	"strings"
	"testing"

	"sage/internal/sim"
)

// mustPanic runs f and requires it to panic with a message containing want.
func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("%s: recovered %v, want a panic saying %q", what, r, want)
		}
	}()
	f()
}

// Release hands every packet the network gave out, free or in flight, to
// whichever network takes the slabs next. Using the released network must
// fail loudly instead of handing out, queueing or carrying one of them, and
// a packet still held from it reads as released.
func TestNetworkUsedAfterReleasePanics(t *testing.T) {
	loop := sim.NewLoop()
	n := New(loop, Config{Rate: FlatRate(Mbps(12)), MinRTT: 20 * sim.Millisecond})
	n.Attach(1, Endpoints{})
	var held []*Packet
	for i := 0; i < 8; i++ {
		p := n.NewPacket()
		p.FlowID, p.Seq, p.Size = 1, int64(i), MTU
		n.SendData(p, 0)
		held = append(held, p)
	}
	loop.RunUntil(5 * sim.Millisecond) // some on the propagation path, the rest queued
	if n.Link.DeliveredPkts == 0 || n.Link.Queue().Len() == 0 {
		t.Fatalf("%d packets on the path and %d queued, want some of each", n.Link.DeliveredPkts, n.Link.Queue().Len())
	}
	n.Release()
	for _, p := range held {
		if p.Seq != releasedSeq || p.net != nil || p.next != nil {
			t.Fatalf("packet %+v after Release: want it poisoned and holding no pointer into the simulation", *p)
		}
	}
	if n.Link.Queue().Len() != 0 {
		t.Fatal("the released queue still holds packets")
	}
	mustPanic(t, "a held packet's release", "released to the free list", func() { held[0].release() })
	other := New(sim.NewLoop(), Config{Rate: FlatRate(Mbps(12)), MinRTT: 20 * sim.Millisecond})
	other.NewPacket() // may take n's slab
	mustPanic(t, "NewPacket after Release", "network used after Release", func() { n.NewPacket() })
	mustPanic(t, "SendData after Release", "network used after Release", func() { n.SendData(&Packet{FlowID: 1, Size: MTU}, loop.Now()) })
	mustPanic(t, "SendAck after Release", "network used after Release", func() { n.SendAck(&Packet{FlowID: 1, Size: 40}, loop.Now()) })
	mustPanic(t, "a second Release", "network used after Release", n.Release)
}
