// Package netem is a packet-level network emulator: a single bottleneck link
// with a configurable (possibly time-varying) rate, a finite queue managed by
// a pluggable AQM, and symmetric propagation delay. It plays the role
// Mahimahi plays in the paper: the only emulated component; everything above
// it (TCP datapath, CC logic) is the real control loop. The per-packet path
// allocates nothing: packets are recycled (see Packet for who owns one when).
// Nor does a network built after another has been Released grow from
// nothing: it takes the packet slabs, delay-line ring and queue ring that
// network gave back to this package's pools, on any goroutine.
package netem

import "sage/internal/sim"

// MTU is the default packet size in bytes (payload + headers), matching the
// 1500-byte packets the paper's emulator carries.
const MTU = 1500

// AckItem acknowledges one data packet.
type AckItem struct {
	Seq    int64
	SentAt sim.Time // when the acknowledged data packet was sent
	ECE    bool     // congestion-experienced echo (ECN)
}

// Packet is the unit carried by the emulator. The transport layer stores its
// own bookkeeping in the exported fields; netem itself reads only Size and
// stamps Enqueued.
//
// Ownership: a packet from Network.NewPacket belongs to the network from the
// moment it is passed to SendData or SendAck. The network returns it to its
// free list at the packet's one terminal point — after the receiver's
// Receive returns, or where it is dropped — so a Receiver copies out what it
// needs and never retains the pointer. The network's ownership of every
// packet it handed out, free or in flight, ends at Network.Release: the
// slabs they live in go to a package pool, and another network hands them
// out again. A packet the caller allocated itself (&Packet{...}) is carried
// the same way and never recycled.
type Packet struct {
	FlowID   int
	Seq      int64
	Size     int      // bytes on the wire
	Sent     sim.Time // when the sender handed it to the network
	Enqueued sim.Time // when it entered the bottleneck queue (set by the queue)
	Ack      bool     // true for acknowledgment packets (reverse path)
	Retrans  bool
	ECT      bool // ECN-capable transport: AQMs mark instead of dropping
	ECE      bool // congestion experienced, set by a marking AQM

	// Acks[:NAcks] are the data packets an ACK acknowledges: one, or two
	// when the receiver delays acknowledgments.
	Acks  [2]AckItem
	NAcks int

	net  *Network // whose free list the packet returns to; nil if caller-allocated
	next *Packet  // free-list link
}

// releasedSeq poisons Seq while a packet sits on the free list, so a queue,
// event or receiver still holding the pointer fails loudly in checkLive
// instead of silently reading another packet's fields.
const releasedSeq = -1 << 63

// slabLen is how many packets a network takes at a time: its packets live
// in slabs of this many, and Release gives each slab back whole.
const slabLen = 128

type slab [slabLen]Packet

// slabs holds the slabs of released networks.
var slabs sim.Pool[*slab]

// release ends the packet's life: the holder must not touch it afterwards.
func (p *Packet) release() {
	p.checkLive()
	if p.net == nil {
		return
	}
	p.Seq = releasedSeq
	p.next = p.net.free
	p.net.free = p
}

func (p *Packet) checkLive() {
	if p.Seq == releasedSeq {
		panic("netem: packet used after it was released to the free list")
	}
}

// Receiver consumes packets delivered by the network.
type Receiver interface {
	Receive(p *Packet, now sim.Time)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(p *Packet, now sim.Time)

// Receive implements Receiver.
func (f ReceiverFunc) Receive(p *Packet, now sim.Time) { f(p, now) }
