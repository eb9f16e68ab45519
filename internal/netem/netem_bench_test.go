package netem

import (
	"testing"

	"sage/internal/sim"
)

// BenchmarkLinkThroughput measures simulated packets per wall-clock second
// through the bottleneck — the number that bounds how much emulated traffic
// the experiment harness can push.
func BenchmarkLinkThroughput(b *testing.B) {
	loop := sim.NewLoop()
	delivered := 0
	link := NewLink(loop, NewDropTail(1<<30), FlatRate(Mbps(1000)),
		ReceiverFunc(func(p *Packet, now sim.Time) { delivered++ }))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link.Send(&Packet{Size: MTU, Seq: int64(i)}, loop.Now())
		loop.Step()
	}
	if delivered == 0 && b.N > 1 {
		b.Fatal("nothing delivered")
	}
}

// BenchmarkQueueDisciplines compares enqueue/dequeue cost across AQMs.
func BenchmarkQueueDisciplines(b *testing.B) {
	for _, k := range []AQMKind{AQMDropTail, AQMHeadDrop, AQMCoDel, AQMPIE, AQMBoDe} {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			q := NewQueue(k, 64*MTU, 1)
			now := sim.Time(0)
			for i := 0; i < b.N; i++ {
				q.Enqueue(&Packet{Size: MTU}, now)
				if i%2 == 1 {
					q.Dequeue(now + sim.Millisecond)
				}
				now += 100 * sim.Microsecond
			}
		})
	}
}

// BenchmarkNetworkInFlight is the cost of one packet from send to delivery
// with a bandwidth-delay product of packets in flight on one network
// (96 Mb/s, 80 ms, 0.5 ms jitter): the receiver acknowledges every data
// packet and every ACK releases the next one, so about 640 data packets and
// ACKs ride the two propagation paths at once. Each packet is one link
// transmission, one data delivery and one ACK delivery.
func BenchmarkNetworkInFlight(b *testing.B) {
	loop := sim.NewLoop()
	rate, rtt := Mbps(96), 80*sim.Millisecond
	n := New(loop, Config{Rate: FlatRate(rate), MinRTT: rtt, Jitter: 500 * sim.Microsecond, Seed: 1})
	delivered, seq := 0, int64(0)
	send := func(now sim.Time) {
		p := n.NewPacket()
		p.FlowID, p.Seq, p.Size, p.Sent = 1, seq, MTU, now
		seq++
		n.SendData(p, now)
	}
	n.Attach(1, Endpoints{
		Data: ReceiverFunc(func(p *Packet, now sim.Time) {
			delivered++
			a := n.NewPacket()
			a.FlowID, a.Seq, a.Size = 1, p.Seq, 40
			n.SendAck(a, now)
		}),
		Ack: ReceiverFunc(func(_ *Packet, now sim.Time) { send(now) }),
	})
	for i := 0; i < BDPBytes(rate, rtt)/MTU; i++ {
		send(0)
	}
	loop.RunUntil(4 * rtt) // past the initial burst: ACK-clocked from here on
	if inFlight := loop.PendingEvents(); inFlight < 600 {
		b.Fatalf("%d events pending after warm-up, want a BDP's worth", inFlight)
	}
	delivered = 0
	b.ReportAllocs()
	b.ResetTimer()
	for delivered < b.N {
		loop.Step()
	}
}
