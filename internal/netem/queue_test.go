package netem

import (
	"testing"
	"testing/quick"

	"sage/internal/sim"
)

func pkt(size int) *Packet { return &Packet{Size: size} }

func TestDropTail(t *testing.T) {
	q := NewDropTail(3000)
	if !q.Enqueue(pkt(1500), 0) || !q.Enqueue(pkt(1500), 0) {
		t.Fatal("admission failed under capacity")
	}
	if q.Enqueue(pkt(1500), 0) {
		t.Fatal("over-capacity packet admitted")
	}
	if q.Drops() != 1 || q.Len() != 2 || q.Bytes() != 3000 {
		t.Fatalf("stats: drops=%d len=%d bytes=%d", q.Drops(), q.Len(), q.Bytes())
	}
	if p := q.Dequeue(0); p == nil || q.Bytes() != 1500 {
		t.Fatal("dequeue broken")
	}
}

func TestHeadDropEvictsOldest(t *testing.T) {
	q := NewHeadDrop(3000)
	a, b, c := pkt(1500), pkt(1500), pkt(1500)
	a.Seq, b.Seq, c.Seq = 1, 2, 3
	q.Enqueue(a, 0)
	q.Enqueue(b, 0)
	if !q.Enqueue(c, 0) {
		t.Fatal("head-drop should admit the newcomer")
	}
	if q.Drops() != 1 {
		t.Fatalf("drops = %d", q.Drops())
	}
	if p := q.Dequeue(0); p.Seq != 2 {
		t.Fatalf("head after evict = %d, want 2", p.Seq)
	}
}

func TestCoDelDropsPersistentQueue(t *testing.T) {
	q := NewCoDel(1 << 20)
	// Fill with packets enqueued at t=0, then dequeue slowly so sojourn
	// stays far above the 5 ms target for longer than the 100 ms interval.
	for i := 0; i < 200; i++ {
		q.Enqueue(pkt(MTU), 0)
	}
	drops := 0
	now := 200 * sim.Millisecond
	for q.Len() > 0 {
		before := q.Drops()
		if q.Dequeue(now) == nil {
			break
		}
		drops += q.Drops() - before
		now += 5 * sim.Millisecond
	}
	if drops == 0 {
		t.Fatal("CoDel never dropped under persistent standing queue")
	}
}

func TestCoDelIdleBelowTarget(t *testing.T) {
	q := NewCoDel(1 << 20)
	for i := 0; i < 50; i++ {
		q.Enqueue(pkt(MTU), sim.Time(i))
		if q.Dequeue(sim.Time(i)+sim.Millisecond) == nil {
			t.Fatal("packet lost")
		}
	}
	if q.Drops() != 0 {
		t.Fatalf("CoDel dropped %d with sub-target sojourn", q.Drops())
	}
}

func TestPIEDropsWhenDelayHigh(t *testing.T) {
	q := NewPIE(1<<20, 42)
	now := sim.Time(0)
	admitted, dropped := 0, 0
	// Arrivals at 2x the drain rate -> delay grows -> PIE probability rises.
	for i := 0; i < 4000; i++ {
		if q.Enqueue(pkt(MTU), now) {
			admitted++
		} else {
			dropped++
		}
		if i%2 == 0 {
			q.Dequeue(now) // drain at half the arrival rate
		}
		now += sim.Millisecond
	}
	if dropped == 0 {
		t.Fatal("PIE never dropped under sustained overload")
	}
	if admitted == 0 {
		t.Fatal("PIE admitted nothing")
	}
}

func TestBoDeBoundsDelay(t *testing.T) {
	q := NewBoDe(1<<20, 20*sim.Millisecond)
	now := sim.Time(0)
	// Establish a drain rate of one MTU per ms (12 Mb/s).
	for i := 0; i < 50; i++ {
		q.Enqueue(pkt(MTU), now)
		q.Dequeue(now)
		now += sim.Millisecond
	}
	// Now flood without draining: backlog beyond 20 ms worth must be refused.
	refused := 0
	for i := 0; i < 100; i++ {
		if !q.Enqueue(pkt(MTU), now) {
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("BoDe never bounded the projected delay")
	}
	if q.Bytes() > 30*MTU {
		t.Fatalf("BoDe backlog %d bytes exceeds bound region", q.Bytes())
	}
}

func TestNewQueueKinds(t *testing.T) {
	kinds := []AQMKind{AQMDropTail, AQMHeadDrop, AQMCoDel, AQMPIE, AQMBoDe}
	names := []string{"TDrop", "HDrop", "CoDel", "PIE", "BoDe"}
	for i, k := range kinds {
		q := NewQueue(k, 10*MTU, 1)
		if q == nil {
			t.Fatalf("NewQueue(%v) = nil", k)
		}
		if k.String() != names[i] {
			t.Fatalf("String(%v) = %q", k, k.String())
		}
		if !q.Enqueue(pkt(MTU), 0) {
			t.Fatalf("%v rejected first packet", k)
		}
		if p := q.Dequeue(sim.Millisecond); p == nil {
			t.Fatalf("%v lost the packet", k)
		}
	}
	if AQMKind(99).String() != "unknown" {
		t.Fatal("unknown kind name")
	}
}

// Property: for every discipline, bytes accounting stays consistent and
// non-negative through arbitrary enqueue/dequeue interleavings.
func TestQueueAccountingProperty(t *testing.T) {
	f := func(ops []bool, kindSel uint8) bool {
		k := AQMKind(int(kindSel) % 5)
		q := NewQueue(k, 20*MTU, 7)
		now := sim.Time(0)
		for _, enq := range ops {
			if enq {
				q.Enqueue(pkt(MTU), now)
			} else {
				q.Dequeue(now)
			}
			now += 100 * sim.Microsecond
			if q.Bytes() < 0 || q.Len() < 0 || q.Bytes() != q.Len()*MTU {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdECNStepMarking(t *testing.T) {
	q := NewThresholdECN(100*MTU, 5)
	// Below K: no marks.
	for i := 0; i < 5; i++ {
		p := &Packet{Size: MTU, ECT: true}
		q.Enqueue(p, 0)
		if p.ECE {
			t.Fatalf("marked below threshold at depth %d", i)
		}
	}
	// At and above K: every ECT arrival marked.
	p := &Packet{Size: MTU, ECT: true}
	q.Enqueue(p, 0)
	if !p.ECE {
		t.Fatal("not marked at threshold")
	}
	// Non-ECT packets pass unmarked.
	np := &Packet{Size: MTU}
	q.Enqueue(np, 0)
	if np.ECE {
		t.Fatal("non-ECT packet marked")
	}
	if q.Marks() != 1 {
		t.Fatalf("marks = %d", q.Marks())
	}
	// Overflow still drops.
	for i := 0; i < 200; i++ {
		q.Enqueue(&Packet{Size: MTU, ECT: true, Seq: int64(i)}, 0)
	}
	if q.Drops() == 0 {
		t.Fatal("overflow did not drop")
	}
	// Drain: the seven packets above come out first, then the admitted
	// overflow arrivals in arrival order, and nothing is left behind.
	for i := 0; i < 7; i++ {
		if q.Dequeue(0) == nil {
			t.Fatalf("queue empty after %d dequeues", i)
		}
	}
	for want := int64(0); q.Len() > 0; want++ {
		if p := q.Dequeue(0); p.Seq != want {
			t.Fatalf("dequeued seq %d, want %d: not FIFO", p.Seq, want)
		}
	}
	if q.Bytes() != 0 || q.Dequeue(0) != nil {
		t.Fatalf("after the drain: %d bytes queued, want 0 and nothing to dequeue", q.Bytes())
	}
	// Back under K, an ECT arrival passes unmarked again.
	p = &Packet{Size: MTU, ECT: true}
	q.Enqueue(p, 0)
	if p.ECE || q.Marks() != 1+100-7 {
		t.Fatalf("ECE = %v, marks = %d after the backlog fell under K", p.ECE, q.Marks())
	}
}
