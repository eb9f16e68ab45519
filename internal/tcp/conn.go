package tcp

import (
	"math"

	"sage/internal/netem"
	"sage/internal/sim"
)

// Options tunes a connection's datapath constants.
type Options struct {
	InitCwnd float64  // initial congestion window in packets (default 10)
	MinRTO   sim.Time // lower bound on the retransmission timer (default 200 ms)
	DelAck   bool     // delayed acknowledgments at the receiver
}

func (o *Options) fill() {
	if o.InitCwnd == 0 {
		o.InitCwnd = 10
	}
	if o.MinRTO == 0 {
		o.MinRTO = 200 * sim.Millisecond
	}
}

const (
	mss           = netem.MTU       // packet size in bytes
	minReorderWnd = sim.Millisecond // RACK reordering window floor
)

// txRecord tracks one transmitted packet of MSS bytes; its sequence number
// is its position in Conn.tx.
type txRecord struct {
	sentAt          sim.Time
	deliveredAtSend int64 // connection's delivered bytes when this was sent
	acked           bool
	lost            bool
}

func (r *txRecord) resolved() bool { return r.acked || r.lost }

// Conn is a backlogged ("iperf-style") sender: it always has data and sends
// whenever the congestion window (and pacing, if enabled) permits.
type Conn struct {
	ID   int
	loop *sim.Loop
	net  *netem.Network
	cc   CongestionControl
	opt  Options

	// Congestion state, mutated by the CC module.
	Cwnd       float64 // packets
	Ssthresh   float64 // packets
	PacingRate float64 // bytes/second; 0 disables pacing

	// tx is a ring of the records of seqs [base, nextSeq): seq lives at
	// index seq&(len(tx)-1). The first send takes the ring a released
	// connection left in txRings, if there is one, and a full ring doubles;
	// no record outside [base, nextSeq) is ever read, so what a recycled
	// ring holds there does not matter. head is the oldest unresolved seq;
	// records in [base, head) are resolved and kept only until advanceHead
	// retires them.
	tx          []txRecord
	base        int64
	head        int64
	nextSeq     int64
	inflightCnt int

	srtt, rttvar     sim.Time
	lastRTT          sim.Time
	minRTTFilter     *WindowedFilter
	baseRTT          sim.Time // all-time minimum
	rto              sim.Time
	rtoBackoff       int
	rtoTimer         sim.Timer // runs onRTO
	rackTimer        sim.Timer // runs onRackTimer
	lastAckedSentAt  sim.Time
	rackRTT          sim.Time
	delivered        int64 // bytes acknowledged
	deliveredPkts    int64
	sentPkts         int64
	lostPkts         int64
	spurious         int64
	deliveryRate     float64 // latest sample, bytes/second
	maxRateFilter    *WindowedFilter
	state            CAState
	recoveryEnd      int64 // recovery ends when every seq <= recoveryEnd resolves
	lossEpisodeLoss  int
	nextSendAt       sim.Time
	paceTimer        sim.Handle
	paceFn           sim.Event // trySend, bound once
	running          bool
	enterRecoveryCnt int64
	rtoCount         int64
	ecnEnabled       bool
	ecePkts          int64
	reoSteps         int // adaptive RACK reorder-window multiplier (starts at 1)
	ccSwitches       int64
	released         bool // Release has given tx away
}

// txRings holds the tx rings of released connections.
var txRings sim.BufPool[txRecord]

// NewConn builds a connection for flow id over n, controlled by cc.
// Call Start to begin transmission; the caller must also attach a Sink for
// the flow's data path (see Attach helpers in this package).
func NewConn(loop *sim.Loop, n *netem.Network, id int, cc CongestionControl, opt Options) *Conn {
	opt.fill()
	c := &Conn{
		ID:            id,
		loop:          loop,
		net:           n,
		cc:            cc,
		opt:           opt,
		Cwnd:          opt.InitCwnd,
		Ssthresh:      math.Inf(1),
		minRTTFilter:  NewMinFilter(10 * sim.Second),
		maxRateFilter: NewMaxFilter(10 * sim.Second),
		rto:           sim.Second,
	}
	c.rtoTimer.Init(loop, c.onRTO)
	c.rackTimer.Init(loop, c.onRackTimer)
	c.paceFn = c.trySend
	return c
}

// Start begins transmission at the loop's next opportunity.
func (c *Conn) Start(now sim.Time) {
	if c.running {
		return
	}
	c.running = true
	c.cc.Init(c)
	c.trySend(now)
}

// CC returns the connection's congestion-control module.
func (c *Conn) CC() CongestionControl { return c.cc }

// SwitchCC replaces the congestion-control module at runtime — the
// equivalent of setsockopt(TCP_CONGESTION) on a live socket, and the
// mechanism the runtime guardian uses to move a connection between a
// misbehaving policy and its heuristic fallback. The new module is
// Init'ed and inherits the connection's current window, so the handover
// is seamless; non-finite congestion state left behind by a broken
// controller (NaN cwnd/ssthresh/pacing) is sanitized first so the new
// module starts from a workable window.
func (c *Conn) SwitchCC(newCC CongestionControl, now sim.Time) {
	if newCC == nil {
		return
	}
	if math.IsNaN(c.Cwnd) || math.IsInf(c.Cwnd, 0) {
		c.Cwnd = c.opt.InitCwnd
	}
	if math.IsNaN(c.Ssthresh) {
		c.Ssthresh = math.Inf(1)
	}
	if math.IsNaN(c.PacingRate) || math.IsInf(c.PacingRate, 0) {
		c.PacingRate = 0
	}
	c.cc = newCC
	c.ccSwitches++
	newCC.Init(c)
	c.trySend(now)
}

// CCSwitches returns how many times the CC module was swapped at runtime.
func (c *Conn) CCSwitches() int64 { return c.ccSwitches }

// MSS returns the packet size in bytes.
func (c *Conn) MSS() int { return mss }

// SRTT returns the smoothed RTT estimate.
func (c *Conn) SRTT() sim.Time { return c.srtt }

// RTTVar returns the RTT variance estimate.
func (c *Conn) RTTVar() sim.Time { return c.rttvar }

// LastRTT returns the most recent raw RTT sample.
func (c *Conn) LastRTT() sim.Time { return c.lastRTT }

// MinRTT returns the windowed (10 s) minimum RTT.
func (c *Conn) MinRTT() sim.Time { return sim.Time(c.minRTTFilter.Get()) }

// BaseRTT returns the all-time minimum RTT.
func (c *Conn) BaseRTT() sim.Time { return c.baseRTT }

// Delivered returns cumulative acknowledged bytes.
func (c *Conn) Delivered() int64 { return c.delivered }

// DeliveredPkts returns cumulative acknowledged packets.
func (c *Conn) DeliveredPkts() int64 { return c.deliveredPkts }

// SentPkts returns cumulative transmitted packets.
func (c *Conn) SentPkts() int64 { return c.sentPkts }

// LostPkts returns cumulative packets declared lost.
func (c *Conn) LostPkts() int64 { return c.lostPkts }

// SpuriousRetrans returns packets declared lost whose ACK later arrived.
func (c *Conn) SpuriousRetrans() int64 { return c.spurious }

// DeliveryRate returns the most recent delivery-rate sample in bytes/second.
func (c *Conn) DeliveryRate() float64 { return c.deliveryRate }

// MaxDeliveryRate returns the windowed (10 s) maximum delivery rate.
func (c *Conn) MaxDeliveryRate() float64 { return c.maxRateFilter.Get() }

// InflightPkts returns the number of unresolved packets in flight.
func (c *Conn) InflightPkts() int { return c.inflightCnt }

// State returns the congestion-avoidance machine state.
func (c *Conn) State() CAState { return c.state }

// RecoveryEpisodes returns how many times fast recovery was entered.
func (c *Conn) RecoveryEpisodes() int64 { return c.enterRecoveryCnt }

// RTOCount returns how many retransmission timeouts fired.
func (c *Conn) RTOCount() int64 { return c.rtoCount }

// EnableECN makes the sender mark its packets ECN-capable, so marking AQMs
// signal congestion without dropping. CC modules (DCTCP) call this in Init.
func (c *Conn) EnableECN() { c.ecnEnabled = true }

// ECEPkts returns the cumulative count of congestion-experienced echoes.
func (c *Conn) ECEPkts() int64 { return c.ecePkts }

// SetCwnd clamps and applies a new congestion window.
func (c *Conn) SetCwnd(w float64) {
	if w < 1 {
		w = 1
	}
	if w > MaxCwnd {
		w = MaxCwnd
	}
	c.Cwnd = w
}

// Kick re-evaluates the send gate; CC modules call it after raising cwnd or
// the pacing rate outside an ACK context.
func (c *Conn) Kick(now sim.Time) { c.trySend(now) }

// Receive implements netem.Receiver for the reverse (ACK) path.
func (c *Conn) Receive(p *netem.Packet, now sim.Time) {
	c.checkLive()
	c.handleAck(p.Acks[:p.NAcks], now)
}

// Release gives the connection's tx ring back for the next connection on
// any goroutine to send into. Call it once the loop will not run again; the
// counters stay readable, but a connection that sends or takes an ACK after
// Release panics rather than share the ring with whoever took it.
func (c *Conn) Release() {
	c.checkLive()
	c.released = true
	txRings.Put(c.tx)
	c.tx = nil
}

func (c *Conn) checkLive() {
	if c.released {
		panic("tcp: connection used after Release")
	}
}

func (c *Conn) handleAck(acks []netem.AckItem, now sim.Time) {
	var rec txRecord // the most recently sent of the newly acknowledged
	acked := 0
	ece := false
	for _, it := range acks {
		if it.Seq < c.base || it.Seq >= c.nextSeq {
			continue // retired, or never sent
		}
		r := c.rec(it.Seq)
		if r.acked {
			continue // duplicate ACK
		}
		r.acked = true
		c.delivered += int64(mss)
		c.deliveredPkts++
		if r.lost {
			// The packet was declared lost but arrived after all: spurious.
			c.spurious++
			c.onSpurious()
			continue
		}
		c.inflightCnt--
		acked++
		if it.ECE {
			c.ecePkts++
			ece = true
		}
		if acked == 1 || r.sentAt > rec.sentAt {
			rec = *r
		}
	}
	if acked == 0 {
		return
	}
	rtt := now - rec.sentAt
	c.updateRTT(rtt)
	c.rtoBackoff = 0

	// Delivery-rate sample (BBR-style: bytes delivered since this packet
	// left, over the time it spent in flight).
	if elapsed := now - rec.sentAt; elapsed > 0 {
		c.deliveryRate = float64(c.delivered-rec.deliveredAtSend) / elapsed.Seconds()
		c.maxRateFilter.Update(now, c.deliveryRate)
	}
	if rec.sentAt > c.lastAckedSentAt {
		c.lastAckedSentAt = rec.sentAt
		c.rackRTT = rtt
	}

	newLost := c.rackDetect(now)
	c.advanceHead()
	c.maybeExitRecovery()
	if newLost > 0 && c.state == StateOpen {
		c.enterRecovery(now, newLost)
	}

	ev := AckEvent{
		Now:          now,
		AckedPkts:    acked,
		RTT:          rtt,
		SRTT:         c.srtt,
		MinRTT:       c.MinRTT(),
		DeliveryRate: c.deliveryRate,
		Inflight:     c.inflightCnt,
		State:        c.state,
		ECE:          ece,
	}
	if acked > 0 {
		c.cc.OnAck(c, ev)
	}
	c.resetRTO(now)
	c.trySend(now)
}

func (c *Conn) updateRTT(rtt sim.Time) {
	if rtt <= 0 {
		return
	}
	c.lastRTT = rtt
	c.minRTTFilter.Update(c.loop.Now(), float64(rtt))
	if c.baseRTT == 0 || rtt < c.baseRTT {
		c.baseRTT = rtt
	}
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
	} else {
		diff := c.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < c.opt.MinRTO {
		c.rto = c.opt.MinRTO
	}
	if c.rto > 60*sim.Second {
		c.rto = 60 * sim.Second
	}
}

// reorderWnd returns the RACK reordering window. Like Linux's RACK
// (RFC 8985 §7.1), the window adapts: every spurious retransmission —
// proof the path reorders more than the current window tolerates — grows
// it by another min_rtt/4 step, capped at the smoothed RTT, so sustained
// reordering stops triggering retransmission storms instead of being
// re-mistaken for loss every round.
func (c *Conn) reorderWnd() sim.Time {
	steps := c.reoSteps
	if steps < 1 {
		steps = 1
	}
	w := c.MinRTT() / 4 * sim.Time(steps)
	if c.srtt > 0 && w > c.srtt {
		w = c.srtt
	}
	if w < minReorderWnd {
		w = minReorderWnd
	}
	return w
}

// ReorderWindow exposes the current adaptive RACK window (for tests and
// telemetry).
func (c *Conn) ReorderWindow() sim.Time { return c.reorderWnd() }

const maxReoSteps = 16

// onSpurious widens the adaptive reorder window after a packet declared
// lost turns out to have been merely reordered.
func (c *Conn) onSpurious() {
	if c.reoSteps < 1 {
		c.reoSteps = 1
	}
	if c.reoSteps < maxReoSteps {
		c.reoSteps++
	}
}

// rackDetect marks as lost every unresolved packet sent before the most
// recently delivered one whose RACK deadline has passed, and arms a timer
// for the earliest pending deadline. It returns how many packets it marked.
//
// sendPacket stamps records with the loop's clock, so sentAt never
// decreases with seq, and rackRTT and the reorder window are fixed within
// a call: deadlines are monotone in seq. The first record not yet due
// therefore holds the earliest pending deadline, and none after it is due.
func (c *Conn) rackDetect(now sim.Time) int {
	if c.lastAckedSentAt == 0 {
		return 0
	}
	reorder := c.reorderWnd()
	marked := 0
	var earliest sim.Time
	for seq := c.head; seq < c.nextSeq; seq++ {
		r := c.rec(seq)
		if r.resolved() {
			continue
		}
		if r.sentAt >= c.lastAckedSentAt {
			break // sent after the newest delivered packet: not suspect
		}
		deadline := r.sentAt + c.rackRTT + reorder
		if now < deadline {
			earliest = deadline
			break
		}
		c.markLost(r)
		marked++
	}
	if earliest > 0 {
		c.rackTimer.Reset(earliest)
	} else {
		c.rackTimer.Stop()
	}
	return marked
}

func (c *Conn) onRackTimer(now sim.Time) {
	newLost := c.rackDetect(now)
	c.advanceHead()
	c.maybeExitRecovery()
	if newLost > 0 && c.state == StateOpen {
		c.enterRecovery(now, newLost)
	}
	if newLost > 0 {
		c.trySend(now)
	}
}

func (c *Conn) markLost(r *txRecord) {
	r.lost = true
	c.lostPkts++
	c.inflightCnt--
	c.lossEpisodeLoss++
}

// advanceHead moves head past resolved records and base past retired ones.
// An acknowledged record is retired at once. A record declared lost is
// retired when a packet sent more than one RTO after it has been
// acknowledged: the path delivers in order up to a bounded displacement
// (jitter, reordering, ACK duplication), so by then its own ACK would have
// arrived, and an ACK later than that is indistinguishable from a loss. This
// keeps [base, nextSeq) within a few windows under any amount of loss; an
// ACK for a retired seq is ignored.
func (c *Conn) advanceHead() {
	for c.head < c.nextSeq && c.rec(c.head).resolved() {
		c.head++
	}
	for c.base < c.head {
		if r := c.rec(c.base); !r.acked && r.sentAt+c.rto > c.lastAckedSentAt {
			break
		}
		c.base++
	}
}

func (c *Conn) rec(seq int64) *txRecord { return &c.tx[seq&int64(len(c.tx)-1)] }

func (c *Conn) enterRecovery(now sim.Time, lost int) {
	c.state = StateRecovery
	c.recoveryEnd = c.nextSeq - 1
	c.enterRecoveryCnt++
	c.lossEpisodeLoss = lost
	c.cc.OnLoss(c, lost, now)
}

func (c *Conn) maybeExitRecovery() {
	if c.state == StateOpen {
		return
	}
	if c.head <= c.recoveryEnd {
		return // still packets from the loss episode outstanding
	}
	c.state = StateOpen
	c.lossEpisodeLoss = 0
}

func (c *Conn) resetRTO(now sim.Time) {
	if c.inflightCnt == 0 {
		c.rtoTimer.Stop()
		return
	}
	d := c.rto << c.rtoBackoff
	if d > 60*sim.Second {
		d = 60 * sim.Second
	}
	c.rtoTimer.Reset(now + d)
}

func (c *Conn) onRTO(now sim.Time) {
	if c.inflightCnt == 0 {
		return
	}
	c.rtoCount++
	c.state = StateLoss
	c.recoveryEnd = c.nextSeq - 1
	// Everything in flight is presumed lost.
	lost := 0
	for seq := c.head; seq < c.nextSeq; seq++ {
		if r := c.rec(seq); !r.resolved() {
			c.markLost(r)
			lost++
		}
	}
	c.advanceHead()
	c.rtoBackoff++
	if c.rtoBackoff > 8 {
		c.rtoBackoff = 8
	}
	c.cc.OnRTO(c, now)
	if c.Cwnd < 1 {
		c.Cwnd = 1
	}
	c.resetRTO(now)
	c.trySend(now)
}

// trySend transmits as long as the window (and pacing schedule) allows.
func (c *Conn) trySend(now sim.Time) {
	if !c.running {
		return
	}
	for float64(c.inflightCnt) < c.Cwnd {
		if c.PacingRate > 0 && now < c.nextSendAt {
			if !c.paceTimer.Pending() {
				c.paceTimer = c.loop.At(c.nextSendAt, c.paceFn)
			}
			return
		}
		c.sendPacket(now)
		if c.PacingRate > 0 {
			gap := sim.Time(float64(mss) / c.PacingRate * float64(sim.Second))
			if gap < 1 {
				gap = 1
			}
			if c.nextSendAt < now {
				c.nextSendAt = now
			}
			c.nextSendAt += gap
		}
	}
}

func (c *Conn) sendPacket(now sim.Time) {
	c.checkLive()
	if int(c.nextSeq-c.base) == len(c.tx) {
		c.growTx()
	}
	seq := c.nextSeq
	c.nextSeq++
	*c.rec(seq) = txRecord{sentAt: now, deliveredAtSend: c.delivered}
	c.inflightCnt++
	c.sentPkts++
	p := c.net.NewPacket()
	p.FlowID, p.Seq, p.Size, p.Sent, p.ECT = c.ID, seq, mss, now, c.ecnEnabled
	c.net.SendData(p, now)
	if !c.rtoTimer.Pending() {
		c.resetRTO(now)
	}
}

func (c *Conn) growTx() {
	if len(c.tx) == 0 {
		if c.tx = txRings.Get(); len(c.tx) > 0 {
			return
		}
	}
	grown := make([]txRecord, max(16, 2*len(c.tx)))
	for seq := c.base; seq < c.nextSeq; seq++ {
		grown[seq&int64(len(grown)-1)] = *c.rec(seq)
	}
	c.tx = grown
}
