package netem

import (
	"sage/internal/sim"
)

// Link models the bottleneck: packets are queued by the discipline and
// served one at a time at the (possibly time-varying) schedule rate,
// then handed to out.
type Link struct {
	loop  *sim.Loop
	queue Queue
	rate  *RateSchedule
	out   Receiver
	txEnd sim.Handler // l.txDone, bound once

	busy           bool
	DeliveredPkts  int64
	DeliveredBytes int64
	StalledDrops   int64 // packets abandoned because the schedule ends at rate 0
}

// NewLink builds a link serving queue at the schedule rate, delivering into
// out.
func NewLink(loop *sim.Loop, queue Queue, rate *RateSchedule, out Receiver) *Link {
	l := &Link{loop: loop, queue: queue, rate: rate, out: out}
	l.txEnd = l.txDone
	return l
}

// Queue exposes the link's queue (for stats and tests).
func (l *Link) Queue() Queue { return l.queue }

// Send enqueues p at the bottleneck, reporting whether it was admitted, and
// kicks the server if the link is idle. A packet the queue refuses ends here.
func (l *Link) Send(p *Packet, now sim.Time) bool {
	if !l.queue.Enqueue(p, now) {
		p.release()
		return false
	}
	if !l.busy {
		l.busy = true
		l.serve(now)
	}
	return true
}

func (l *Link) serve(now sim.Time) {
	p := l.queue.Dequeue(now)
	if p == nil {
		l.busy = false
		return
	}
	done, ok := l.rate.TxDone(now, float64(p.Size)*8)
	if !ok {
		// The schedule ends in a permanent outage; the packet can never leave.
		l.StalledDrops++
		l.busy = false
		p.release()
		return
	}
	l.loop.AtArg(done, l.txEnd, p)
}

// txDone runs when p's last bit leaves the link.
func (l *Link) txDone(t sim.Time, arg any) {
	p := arg.(*Packet)
	p.checkLive()
	l.DeliveredPkts++
	l.DeliveredBytes += int64(p.Size)
	l.out.Receive(p, t)
	l.serve(t)
}
