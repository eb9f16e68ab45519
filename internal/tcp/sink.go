package tcp

import (
	"sage/internal/netem"
	"sage/internal/sim"
)

// Sink is the receiver endpoint: it acknowledges data packets and keeps the
// receiver-side statistics the evaluation harness consumes (throughput
// measured at the receiver, one-way packet delay). With delayed ACKs
// enabled it coalesces up to two data packets per ACK, flushing after
// DelAckTimeout — the kernel behaviour behind the paper's "Ack
// accumulation" remark.
type Sink struct {
	net  *netem.Network
	loop *sim.Loop

	// DelAck enables RFC 1122-style delayed acknowledgments.
	DelAck bool
	// DelAckTimeout flushes a lone pending ACK (default 40 ms).
	DelAckTimeout sim.Time

	RxBytes int64
	RxPkts  int64
	owdSum  sim.Time
	AcksTx  int64

	pending  [2]netem.AckItem // data packets not yet acknowledged
	npend    int
	pendID   int
	delTimer sim.Handle
	flushFn  sim.Event // flush, bound once
}

// NewSink returns a sink that acknowledges over n.
func NewSink(n *netem.Network) *Sink { return &Sink{net: n, DelAckTimeout: 40 * sim.Millisecond} }

// NewDelAckSink returns a sink with delayed acknowledgments enabled; it
// needs the loop for the flush timer.
func NewDelAckSink(loop *sim.Loop, n *netem.Network) *Sink {
	s := NewSink(n)
	s.loop = loop
	s.DelAck = true
	s.flushFn = s.flush
	return s
}

// Receive implements netem.Receiver for the data path.
func (s *Sink) Receive(p *netem.Packet, now sim.Time) {
	s.RxBytes += int64(p.Size)
	s.RxPkts++
	owd := now - p.Sent
	s.owdSum += owd
	s.pending[s.npend] = netem.AckItem{Seq: p.Seq, SentAt: p.Sent, ECE: p.ECE}
	s.npend++
	s.pendID = p.FlowID
	if !s.DelAck || s.loop == nil || s.npend == len(s.pending) || p.ECE {
		// Not delaying, two packets pending, or an ECN mark, which must be
		// echoed promptly (RFC 3168 §6.1.3).
		s.flush(now)
		return
	}
	if !s.delTimer.Pending() {
		s.delTimer = s.loop.After(s.DelAckTimeout, s.flushFn)
	}
}

// flush acknowledges the pending data packets with one ACK packet.
func (s *Sink) flush(now sim.Time) {
	if s.npend == 0 {
		return
	}
	s.delTimer.Cancel()
	s.AcksTx++
	ack := s.net.NewPacket()
	ack.FlowID, ack.Seq, ack.Size, ack.Sent = s.pendID, s.pending[s.npend-1].Seq, 40, now
	ack.Acks, ack.NAcks = s.pending, s.npend
	s.npend = 0
	s.net.SendAck(ack, now)
}

// OWDAvg returns the mean one-way delay of received packets.
func (s *Sink) OWDAvg() sim.Time {
	if s.RxPkts == 0 {
		return 0
	}
	return s.owdSum / sim.Time(s.RxPkts)
}

// Totals returns the cumulative received bytes, packets, and the sum of
// one-way delays — the counters interval scoring snapshots.
func (s *Sink) Totals() (bytes, pkts int64, owdSum sim.Time) {
	return s.RxBytes, s.RxPkts, s.owdSum
}

// Flow bundles a connection with its sink, attached to a network.
type Flow struct {
	Conn *Conn
	Sink *Sink
}

// NewFlow creates a connection+sink pair for flow id and attaches both
// endpoints to n. Call Flow.Conn.Start to begin. Set opt.DelAck for
// delayed acknowledgments at the receiver.
func NewFlow(loop *sim.Loop, n *netem.Network, id int, cc CongestionControl, opt Options) *Flow {
	conn := NewConn(loop, n, id, cc, opt)
	var sink *Sink
	if opt.DelAck {
		sink = NewDelAckSink(loop, n)
	} else {
		sink = NewSink(n)
	}
	n.Attach(id, netem.Endpoints{Data: sink, Ack: conn})
	return &Flow{Conn: conn, Sink: sink}
}
