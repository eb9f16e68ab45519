package netem

import (
	"math"
	"math/rand"

	"sage/internal/sim"
)

// Queue is a bottleneck buffer with an embedded queue-management discipline.
// Enqueue returns false when the packet is dropped on arrival; Dequeue may
// itself drop packets (CoDel-style) before returning the next one to serve.
type Queue interface {
	Enqueue(p *Packet, now sim.Time) bool
	Dequeue(now sim.Time) *Packet
	Len() int
	Bytes() int
	Drops() int
}

// fifo is the shared ring buffer beneath every discipline: ring[head] is the
// oldest of n packets, and the ring's length is a power of two.
type fifo struct {
	ring  []*Packet
	head  int
	n     int
	bytes int
	drops int
	marks int
}

// Marks returns how many packets were ECN-marked instead of dropped.
func (q *fifo) Marks() int { return q.marks }

// markOrDrop applies the discipline's congestion signal to p: ECN-capable
// packets are marked (and the caller must admit/deliver them), others count
// as a drop. It reports whether the packet was marked.
func (q *fifo) markOrDrop(p *Packet) bool {
	if p.ECT {
		p.ECE = true
		q.marks++
		return true
	}
	q.drops++
	return false
}

func (q *fifo) push(p *Packet, now sim.Time) {
	p.Enqueued = now
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = p
	q.n++
	q.bytes += p.Size
}

// queueRings holds the rings of released queues.
var queueRings sim.BufPool[*Packet]

func (q *fifo) grow() {
	if len(q.ring) == 0 {
		// An empty queue reads no slot it has not written, so a ring a
		// released queue left behind serves as is.
		if q.ring = queueRings.Get(); len(q.ring) > 0 {
			return
		}
	}
	grown := make([]*Packet, max(16, 2*len(q.ring)))
	for i := 0; i < q.n; i++ {
		grown[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	q.ring, q.head = grown, 0
}

// release gives the ring, cleared of the packets still queued, back for the
// next queue to grow into, and leaves the queue empty. Network.Release calls
// it; the packets themselves go back with the network's slabs.
func (q *fifo) release() {
	clear(q.ring)
	queueRings.Put(q.ring)
	q.ring, q.head, q.n, q.bytes = nil, 0, 0, 0
}

func (q *fifo) popHead() *Packet {
	if q.n == 0 {
		return nil
	}
	p := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	q.bytes -= p.Size
	return p
}

func (q *fifo) Len() int   { return q.n }
func (q *fifo) Bytes() int { return q.bytes }
func (q *fifo) Drops() int { return q.drops }

// DropTail drops arriving packets once the buffer holds capacity bytes
// (the classic tail-drop queue, "TDrop" in Fig. 23).
type DropTail struct {
	fifo
	capacity int
}

// NewDropTail returns a tail-drop queue holding at most capacity bytes.
func NewDropTail(capacityBytes int) *DropTail {
	return &DropTail{capacity: capacityBytes}
}

// Enqueue implements Queue.
func (q *DropTail) Enqueue(p *Packet, now sim.Time) bool {
	if q.bytes+p.Size > q.capacity {
		q.drops++
		return false
	}
	q.push(p, now)
	return true
}

// Dequeue implements Queue.
func (q *DropTail) Dequeue(now sim.Time) *Packet { return q.popHead() }

// HeadDrop admits every arrival and evicts from the head of the queue until
// the new packet fits ("HDrop" in Fig. 23). Head drop signals congestion to
// the sender a full queueing delay earlier than tail drop.
type HeadDrop struct {
	fifo
	capacity int
}

// NewHeadDrop returns a head-drop queue holding at most capacity bytes.
func NewHeadDrop(capacityBytes int) *HeadDrop {
	return &HeadDrop{capacity: capacityBytes}
}

// Enqueue implements Queue.
func (q *HeadDrop) Enqueue(p *Packet, now sim.Time) bool {
	if p.Size > q.capacity {
		q.drops++
		return false
	}
	for q.bytes+p.Size > q.capacity && q.n > 0 {
		q.popHead().release() // evicted inside the queue: its life ends here
		q.drops++
	}
	q.push(p, now)
	return true
}

// Dequeue implements Queue.
func (q *HeadDrop) Dequeue(now sim.Time) *Packet { return q.popHead() }

// CoDel implements the Controlled Delay AQM (Nichols & Jacobson, CACM 2012):
// packets whose sojourn time has exceeded Target for a full Interval are
// dropped at dequeue, with the drop rate increasing by a sqrt control law.
type CoDel struct {
	fifo
	capacity int
	Target   sim.Time
	Interval sim.Time

	dropping      bool
	firstAboveAt  sim.Time
	dropNext      sim.Time
	dropCount     int
	lastDropCount int
}

// NewCoDel returns a CoDel queue with the RFC 8289 defaults
// (target 5 ms, interval 100 ms) over a byte-capacity FIFO.
func NewCoDel(capacityBytes int) *CoDel {
	return &CoDel{
		capacity: capacityBytes,
		Target:   5 * sim.Millisecond,
		Interval: 100 * sim.Millisecond,
	}
}

// Enqueue implements Queue.
func (q *CoDel) Enqueue(p *Packet, now sim.Time) bool {
	if q.bytes+p.Size > q.capacity {
		q.drops++
		return false
	}
	q.push(p, now)
	return true
}

func (q *CoDel) controlLaw(t sim.Time, count int) sim.Time {
	return t + sim.Time(float64(q.Interval)/math.Sqrt(float64(count)))
}

// shouldDrop implements the "sojourn above target for interval" detector.
func (q *CoDel) shouldDrop(p *Packet, now sim.Time) bool {
	sojourn := now - p.Enqueued
	if sojourn < q.Target || q.bytes <= 2*MTU {
		q.firstAboveAt = 0
		return false
	}
	if q.firstAboveAt == 0 {
		q.firstAboveAt = now + q.Interval
		return false
	}
	return now >= q.firstAboveAt
}

// Dequeue implements Queue.
func (q *CoDel) Dequeue(now sim.Time) *Packet {
	p := q.popHead()
	if p == nil {
		q.dropping = false
		return nil
	}
	drop := q.shouldDrop(p, now)
	if q.dropping {
		if !drop {
			q.dropping = false
		} else if now >= q.dropNext {
			for now >= q.dropNext && q.dropping {
				q.dropCount++
				q.dropNext = q.controlLaw(q.dropNext, q.dropCount)
				if q.markOrDrop(p) {
					return p // ECN: marked and delivered (RFC 8289 §3)
				}
				p.release()
				p = q.popHead()
				if p == nil {
					q.dropping = false
					return nil
				}
				if !q.shouldDrop(p, now) {
					q.dropping = false
				}
			}
		}
	} else if drop {
		q.dropCount = 1
		if q.lastDropCount > 2 {
			q.dropCount = q.lastDropCount - 2
		}
		q.lastDropCount = q.dropCount
		q.dropping = true
		q.dropNext = q.controlLaw(now, q.dropCount)
		if q.markOrDrop(p) {
			return p
		}
		p.release()
		p = q.popHead()
		if p == nil {
			q.dropping = false
			return nil
		}
	}
	return p
}

// PIE implements the Proportional Integral controller Enhanced AQM
// (RFC 8033): arrivals are dropped with a probability driven toward keeping
// the estimated queueing delay at Target.
type PIE struct {
	fifo
	capacity int
	Target   sim.Time
	TUpdate  sim.Time
	Alpha    float64
	Beta     float64

	rng        *rand.Rand
	prob       float64
	lastUpdate sim.Time
	oldDelay   sim.Time
	drainRate  float64 // bytes/sec, EWMA measured at dequeue
	lastDeq    sim.Time
}

// NewPIE returns a PIE queue with RFC 8033 defaults
// (target 15 ms, update every 15 ms, alpha 0.125, beta 1.25).
func NewPIE(capacityBytes int, seed int64) *PIE {
	return &PIE{
		capacity: capacityBytes,
		Target:   15 * sim.Millisecond,
		TUpdate:  15 * sim.Millisecond,
		Alpha:    0.125,
		Beta:     1.25,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

func (q *PIE) estDelay() sim.Time {
	if q.drainRate <= 0 {
		return 0
	}
	return sim.Time(float64(q.bytes) / q.drainRate * float64(sim.Second))
}

func (q *PIE) updateProb(now sim.Time) {
	if now-q.lastUpdate < q.TUpdate {
		return
	}
	q.lastUpdate = now
	delay := q.estDelay()
	p := q.Alpha*(delay-q.Target).Seconds() + q.Beta*(delay-q.oldDelay).Seconds()
	// RFC 8033 auto-tuning: scale the adjustment with the operating point.
	switch {
	case q.prob < 0.000001:
		p /= 2048
	case q.prob < 0.00001:
		p /= 512
	case q.prob < 0.0001:
		p /= 128
	case q.prob < 0.001:
		p /= 32
	case q.prob < 0.01:
		p /= 8
	case q.prob < 0.1:
		p /= 2
	}
	q.prob += p
	if delay == 0 && q.oldDelay == 0 {
		q.prob *= 0.98
	}
	q.prob = math.Max(0, math.Min(q.prob, 0.9))
	q.oldDelay = delay
}

// Enqueue implements Queue.
func (q *PIE) Enqueue(p *Packet, now sim.Time) bool {
	q.updateProb(now)
	if q.bytes+p.Size > q.capacity {
		q.drops++
		return false
	}
	// RFC 8033 §5.1 burst allowance: never drop below 2 packets of backlog.
	if q.prob > 0 && q.bytes > 2*MTU && q.rng.Float64() < q.prob {
		if !q.markOrDrop(p) {
			return false
		}
		// ECN: marked and admitted.
	}
	q.push(p, now)
	return true
}

// Dequeue implements Queue.
func (q *PIE) Dequeue(now sim.Time) *Packet {
	p := q.popHead()
	if p != nil {
		if q.lastDeq > 0 && now > q.lastDeq {
			inst := float64(p.Size) / (now - q.lastDeq).Seconds()
			if q.drainRate == 0 {
				q.drainRate = inst
			} else {
				q.drainRate = 0.9*q.drainRate + 0.1*inst
			}
		}
		q.lastDeq = now
	}
	return p
}

// BoDe approximates the Bounding-Queue-Delay discipline (Abbasloo & Chao,
// 2019): it measures the drain rate and drops arrivals whose projected
// sojourn would exceed Bound, keeping worst-case queueing delay bounded on
// variable links.
type BoDe struct {
	fifo
	capacity  int
	Bound     sim.Time
	drainRate float64
	lastDeq   sim.Time
}

// NewBoDe returns a BoDe queue bounding queueing delay at bound.
func NewBoDe(capacityBytes int, bound sim.Time) *BoDe {
	return &BoDe{capacity: capacityBytes, Bound: bound}
}

// Enqueue implements Queue.
func (q *BoDe) Enqueue(p *Packet, now sim.Time) bool {
	if q.bytes+p.Size > q.capacity {
		q.drops++
		return false
	}
	if q.drainRate > 0 && q.bytes > 2*MTU {
		projected := sim.Time(float64(q.bytes+p.Size) / q.drainRate * float64(sim.Second))
		if projected > q.Bound {
			q.drops++
			return false
		}
	}
	q.push(p, now)
	return true
}

// Dequeue implements Queue.
func (q *BoDe) Dequeue(now sim.Time) *Packet {
	p := q.popHead()
	if p != nil {
		if q.lastDeq > 0 && now > q.lastDeq {
			inst := float64(p.Size) / (now - q.lastDeq).Seconds()
			if q.drainRate == 0 {
				q.drainRate = inst
			} else {
				q.drainRate = 0.9*q.drainRate + 0.1*inst
			}
		}
		q.lastDeq = now
	}
	return p
}

// AQMKind selects the queue discipline of a scenario.
type AQMKind int

// Queue disciplines available at the bottleneck (Fig. 23 evaluates all five).
const (
	AQMDropTail AQMKind = iota
	AQMHeadDrop
	AQMCoDel
	AQMPIE
	AQMBoDe
)

// String returns the discipline name as used in the paper's figures.
func (k AQMKind) String() string {
	switch k {
	case AQMDropTail:
		return "TDrop"
	case AQMHeadDrop:
		return "HDrop"
	case AQMCoDel:
		return "CoDel"
	case AQMPIE:
		return "PIE"
	case AQMBoDe:
		return "BoDe"
	}
	return "unknown"
}

// NewQueue constructs the queue discipline k with the given byte capacity.
func NewQueue(k AQMKind, capacityBytes int, seed int64) Queue {
	switch k {
	case AQMHeadDrop:
		return NewHeadDrop(capacityBytes)
	case AQMCoDel:
		return NewCoDel(capacityBytes)
	case AQMPIE:
		return NewPIE(capacityBytes, seed)
	case AQMBoDe:
		return NewBoDe(capacityBytes, 20*sim.Millisecond)
	default:
		return NewDropTail(capacityBytes)
	}
}

// ThresholdECN is the datacenter-style step-marking queue DCTCP assumes
// (Alizadeh et al. 2010): every ECN-capable arrival is marked once the
// instantaneous backlog reaches K packets; non-ECT packets are dropped only
// on overflow. Unlike CoDel/PIE, there is no control lag — which is what
// makes the scheme work at microsecond RTTs.
type ThresholdECN struct {
	fifo
	capacity int
	K        int // marking threshold in packets
}

// NewThresholdECN returns a step-marking queue with threshold kPkts.
func NewThresholdECN(capacityBytes, kPkts int) *ThresholdECN {
	return &ThresholdECN{capacity: capacityBytes, K: kPkts}
}

// Enqueue implements Queue.
func (q *ThresholdECN) Enqueue(p *Packet, now sim.Time) bool {
	if q.bytes+p.Size > q.capacity {
		q.drops++
		return false
	}
	if q.Len() >= q.K && p.ECT {
		p.ECE = true
		q.marks++
	}
	q.push(p, now)
	return true
}

// Dequeue implements Queue.
func (q *ThresholdECN) Dequeue(now sim.Time) *Packet { return q.popHead() }
