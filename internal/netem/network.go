package netem

import (
	"math/rand"

	"sage/internal/sim"
)

// Endpoints identifies the two receivers of a flow: the data sink at the far
// end and the ACK sink back at the sender.
type Endpoints struct {
	Data Receiver // receives data packets (the flow's receiver)
	Ack  Receiver // receives ACK packets (the flow's sender)
}

// Network wires senders and receivers through one shared bottleneck with
// symmetric propagation delay. Data packets traverse the bottleneck then a
// one-way delay; ACKs traverse only the return one-way delay (the reverse
// path is assumed uncongested, as in the paper's emulation).
type Network struct {
	Loop *sim.Loop
	Link *Link

	owd      sim.Time // one-way propagation delay, each direction
	jitter   sim.Time // max uniform extra per-packet delay (0 = none)
	lossProb float64  // random (non-congestive) loss on the data path
	rng      *rand.Rand

	// Adversarial conditions (all off by default).
	reorderProb  float64
	reorderDelay sim.Time
	ackLossProb  float64
	ackDupProb   float64
	ge           *geChain

	flows    map[int]Endpoints
	free     *Packet  // released packets; starts empty, grows on demand
	unused   []Packet // the newest slab's packets not yet handed out
	slabs    []*slab  // every slab the network's packets live in
	arrives  sim.Line // packets on either propagation path, delivered by n.deliver
	released bool     // Release has given the network's buffers away

	RandomLosses int64
	BurstLosses  int64 // data packets dropped by the Gilbert-Elliott chain
	Reordered    int64 // data packets given extra reorder delay
	AckLosses    int64 // ACK packets dropped on the reverse path
	AckDups      int64 // ACK packets duplicated on the reverse path
}

// Config parameterizes a Network.
type Config struct {
	Rate     *RateSchedule
	MinRTT   sim.Time // propagation round-trip (split evenly per direction)
	Queue    Queue    // bottleneck buffer; nil means a 1-BDP DropTail
	Jitter   sim.Time // max uniform extra one-way delay per packet
	LossProb float64  // iid random loss probability on the data path
	Seed     int64

	// Adversarial conditions (see Scenario and AdversarialGrid).
	ReorderProb  float64        // probability a data packet gets extra reorder delay
	ReorderDelay sim.Time       // max extra delay for a reordered packet
	AckLossProb  float64        // iid loss on the ACK path
	AckDupProb   float64        // iid duplication on the ACK path
	Gilbert      GilbertElliott // burst loss on the data path
}

// BDPBytes returns the bandwidth-delay product in bytes.
func BDPBytes(bps float64, rtt sim.Time) int {
	return int(bps / 8 * rtt.Seconds())
}

// New creates a network with a single bottleneck described by cfg.
func New(loop *sim.Loop, cfg Config) *Network {
	q := cfg.Queue
	if q == nil {
		q = NewDropTail(BDPBytes(cfg.Rate.At(0), cfg.MinRTT))
	}
	n := &Network{
		Loop:         loop,
		owd:          cfg.MinRTT / 2,
		jitter:       cfg.Jitter,
		lossProb:     cfg.LossProb,
		reorderProb:  cfg.ReorderProb,
		reorderDelay: cfg.ReorderDelay,
		ackLossProb:  cfg.AckLossProb,
		ackDupProb:   cfg.AckDupProb,
		rng:          rand.New(rand.NewSource(cfg.Seed + 1)),
		flows:        make(map[int]Endpoints),
	}
	if cfg.Gilbert.Enabled() {
		n.ge = &geChain{cfg: cfg.Gilbert, rng: rand.New(rand.NewSource(cfg.Seed + 2))}
	}
	n.arrives.Init(loop, n.deliver)
	n.Link = NewLink(loop, q, cfg.Rate, ReceiverFunc(n.afterBottleneck))
	return n
}

// NewPacket returns a zeroed packet from the network's free list. Passing it
// to SendData or SendAck hands it to the network, which recycles it when it
// has been delivered or dropped (see Packet).
func (n *Network) NewPacket() *Packet {
	p := n.free
	if p == nil {
		p = n.fromSlab()
	} else {
		n.free = p.next
	}
	*p = Packet{net: n}
	return p
}

// fromSlab takes a packet the network has never handed out, from a slab it
// holds or the next one it takes — a released network's, if any is left.
func (n *Network) fromSlab() *Packet {
	n.checkLive()
	if len(n.unused) == 0 {
		s := slabs.Get()
		if s == nil {
			s = new(slab)
		}
		n.slabs = append(n.slabs, s)
		n.unused = s[:]
	}
	p := &n.unused[0]
	n.unused = n.unused[1:]
	return p
}

// Release ends the simulation's hold on the network's memory: every packet
// it handed out, free or in flight, goes back in its slab, and the delay
// line's and the queue's rings with them, for the next network on any
// goroutine to reuse. Call it once the loop will not run again. A network
// used after Release panics rather than share a packet with the simulation
// that took it over, and a packet still held is poisoned as a released one
// until it is handed out again. Each packet is cleared of its pointers as
// well, so a pooled slab does not keep this simulation's network, and all
// it reaches, alive.
func (n *Network) Release() {
	n.checkLive()
	n.released = true
	for _, s := range n.slabs {
		for i := range s {
			s[i] = Packet{Seq: releasedSeq}
		}
		slabs.Put(s)
	}
	n.slabs, n.unused, n.free = nil, nil, nil
	n.arrives.Release()
	if q, ok := n.Link.queue.(interface{ release() }); ok {
		q.release()
	}
}

func (n *Network) checkLive() {
	if n.released {
		panic("netem: network used after Release")
	}
}

// MinRTT returns the propagation round-trip time.
func (n *Network) MinRTT() sim.Time { return 2 * n.owd }

// Attach registers the endpoints of flow id.
func (n *Network) Attach(id int, ep Endpoints) { n.flows[id] = ep }

// SendData injects a data packet from flow p.FlowID into the bottleneck.
// It returns false if the packet was dropped at the queue or by random loss.
func (n *Network) SendData(p *Packet, now sim.Time) bool {
	n.checkLive()
	if n.lossProb > 0 && n.rng.Float64() < n.lossProb {
		n.RandomLosses++
		p.release()
		return false
	}
	if n.ge != nil && n.ge.drop() {
		n.BurstLosses++
		p.release()
		return false
	}
	return n.Link.Send(p, now)
}

func (n *Network) afterBottleneck(p *Packet, now sim.Time) {
	d := n.owd + n.extraJitter() + n.extraReorder()
	n.arrives.Push(now+d, p)
}

// deliver hands p to its flow's endpoint at the end of either path; when
// Receive returns, the packet's life is over.
func (n *Network) deliver(t sim.Time, arg any) {
	p := arg.(*Packet)
	p.checkLive()
	ep := n.flows[p.FlowID]
	to := ep.Data
	if p.Ack {
		to = ep.Ack
	}
	if to != nil {
		to.Receive(p, t)
	}
	p.release()
}

// SendAck marks p as an ACK and carries it back to flow p.FlowID's sender
// over the uncongested reverse path. Under adversarial conditions the reverse path
// can drop or duplicate ACKs: the sender must survive both the missing
// acknowledgments (cumulative delivery arrives late, via later ACKs) and
// the duplicate ones (already-resolved sequence numbers re-acknowledged).
func (n *Network) SendAck(p *Packet, now sim.Time) {
	n.checkLive()
	if n.ackLossProb > 0 && n.rng.Float64() < n.ackLossProb {
		n.AckLosses++
		p.release()
		return
	}
	p.Ack = true
	n.arrives.Push(now+n.owd+n.extraJitter(), p)
	if n.ackDupProb > 0 && n.rng.Float64() < n.ackDupProb {
		n.AckDups++
		// The copy is a packet of its own (each is released at its own
		// delivery) and trails the original by a small extra delay, as a
		// duplicated ACK on a real path would.
		dup := n.NewPacket()
		*dup = *p
		dup.net = n
		n.arrives.Push(now+n.owd+n.extraJitter()+n.owd/4+1, dup)
	}
}

func (n *Network) extraJitter() sim.Time {
	if n.jitter <= 0 {
		return 0
	}
	return sim.Time(n.rng.Int63n(int64(n.jitter) + 1))
}

// extraReorder returns the occasional large extra delay that makes later
// packets overtake this one — per-packet reordering, as opposed to the
// small always-on jitter.
func (n *Network) extraReorder() sim.Time {
	if n.reorderProb <= 0 || n.reorderDelay <= 0 {
		return 0
	}
	if n.rng.Float64() >= n.reorderProb {
		return 0
	}
	n.Reordered++
	return 1 + sim.Time(n.rng.Int63n(int64(n.reorderDelay)))
}
