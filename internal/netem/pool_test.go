package netem

import (
	"testing"

	"sage/internal/sim"
)

func freeListLen(n *Network) int {
	c := 0
	for p := n.free; p != nil; p = p.next {
		c++
	}
	return c
}

// A packet from NewPacket is back on the free list, and handed out again
// zeroed, once it has been delivered; a caller's own &Packet{} never is.
func TestPacketRecycledAfterDelivery(t *testing.T) {
	loop := sim.NewLoop()
	n := New(loop, Config{Rate: FlatRate(Mbps(10)), MinRTT: 10 * sim.Millisecond})
	var seen []int64
	n.Attach(1, Endpoints{Data: ReceiverFunc(func(p *Packet, now sim.Time) { seen = append(seen, p.Seq) })})

	first := n.NewPacket()
	first.FlowID, first.Seq, first.Size, first.ECT = 1, 41, MTU, true
	n.SendData(first, 0)
	own := &Packet{FlowID: 1, Seq: 42, Size: MTU}
	n.SendData(own, 0)
	loop.Run()
	if len(seen) != 2 || seen[0] != 41 || seen[1] != 42 {
		t.Fatalf("delivered %v", seen)
	}
	if own.Seq != 42 || freeListLen(n) != 1 {
		t.Fatalf("caller-allocated packet was touched (Seq %d) or pooled (free list %d)", own.Seq, freeListLen(n))
	}
	again := n.NewPacket()
	if again != first {
		t.Fatal("delivered packet was not reused")
	}
	if again.Seq != 0 || again.ECT || again.Size != 0 || again.Enqueued != 0 || again.next != nil {
		t.Fatalf("recycled packet not zeroed: %+v", again)
	}
}

// Every terminal point gives the packet back: whatever a hostile path does
// to the traffic, once the network has drained the free list holds every
// packet it ever handed out.
func TestEveryDropReleasesItsPacket(t *testing.T) {
	for _, k := range []AQMKind{AQMDropTail, AQMHeadDrop, AQMCoDel, AQMPIE, AQMBoDe} {
		loop := sim.NewLoop()
		n := New(loop, Config{
			Rate:         FlapRate(Mbps(12), 200*sim.Millisecond, 400*sim.Millisecond, 50*sim.Millisecond, 2*sim.Second),
			MinRTT:       20 * sim.Millisecond,
			Queue:        NewQueue(k, 10*MTU, 3),
			Jitter:       sim.Millisecond,
			LossProb:     0.05,
			ReorderProb:  0.1,
			ReorderDelay: 5 * sim.Millisecond,
			AckLossProb:  0.1,
			AckDupProb:   0.3,
			Gilbert:      GilbertElliott{PGoodBad: 0.01, PBadGood: 0.2, LossBad: 0.5},
			Seed:         3,
		})
		handed := map[*Packet]bool{}
		take := func() *Packet {
			p := n.NewPacket()
			handed[p] = true
			return p
		}
		acks := 0
		n.Attach(1, Endpoints{
			Data: ReceiverFunc(func(p *Packet, now sim.Time) {
				a := take()
				a.FlowID, a.Seq, a.Ack = 1, p.Seq, true
				n.SendAck(a, now)
			}),
			Ack: ReceiverFunc(func(p *Packet, now sim.Time) { acks++ }),
		})
		// 1.5× the link rate for 2 s, so the queue overflows and CoDel/PIE engage.
		for i := 0; i < 3000; i++ {
			at := sim.Time(i) * 667
			loop.At(at, func(now sim.Time) {
				p := take()
				p.FlowID, p.Seq, p.Size = 1, int64(i), MTU
				n.SendData(p, now)
			})
		}
		loop.Run()
		if n.RandomLosses == 0 || n.BurstLosses == 0 || n.Link.Queue().Drops() == 0 || n.AckLosses == 0 || n.AckDups == 0 || acks == 0 {
			t.Fatalf("%v: scenario too tame: %d random, %d burst, %d queue drops, %d ack losses, %d ack dups, %d acks",
				k, n.RandomLosses, n.BurstLosses, n.Link.Queue().Drops(), n.AckLosses, n.AckDups, acks)
		}
		for p := n.free; p != nil; p = p.next {
			delete(handed, p)
		}
		if len(handed) != 0 {
			t.Errorf("%v: %d packets never came back to the free list", k, len(handed))
		}
	}
}

// A receiver that keeps a pooled packet past Receive holds a released
// packet: using it again must fail loudly, not corrupt another packet.
func TestUseAfterReleasePanics(t *testing.T) {
	loop := sim.NewLoop()
	n := New(loop, Config{Rate: FlatRate(Mbps(10)), MinRTT: 10 * sim.Millisecond})
	var kept *Packet
	n.Attach(1, Endpoints{Data: ReceiverFunc(func(p *Packet, now sim.Time) { kept = p })})
	p := n.NewPacket()
	p.FlowID, p.Size = 1, MTU
	n.SendData(p, 0)
	loop.Run()
	if kept != p || kept.Seq != releasedSeq {
		t.Fatalf("released packet not poisoned: %+v", kept)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-sending a released packet did not panic")
		}
	}()
	n.SendData(kept, loop.Now())
	loop.Run()
}
