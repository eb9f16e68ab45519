package netem

import (
	"math/rand"
	"testing"
)

// ThresholdECN over a ring another queue released: a random mix of ECT and
// plain arrivals and departures, wrapping the ring many times, against a
// slice model of the queue. Every departure is the model's oldest packet,
// every arrival is marked exactly when the model holds K or more, and the
// counters agree throughout.
func TestThresholdECNAcrossRecycledRing(t *testing.T) {
	old := NewThresholdECN(1000*MTU, 5)
	for i := 0; i < 100; i++ {
		old.Enqueue(&Packet{Size: MTU, Seq: -1, ECT: true}, 0)
		if i%3 == 0 {
			old.Dequeue(0)
		}
	}
	ring := old.ring
	old.release()

	const k = 8
	q := NewThresholdECN(40*MTU, k)
	var model []*Packet
	rng := rand.New(rand.NewSource(1))
	seq, marks, drops := int64(0), 0, 0
	for op := 0; op < 20000; op++ {
		if rng.Intn(2) == 0 {
			p := &Packet{Size: MTU, Seq: seq, ECT: rng.Intn(3) > 0}
			seq++
			admitted := q.Enqueue(p, 0)
			wantMark := p.ECT && len(model) >= k
			switch {
			case len(model) == 40:
				if admitted {
					t.Fatalf("op %d: arrival admitted over capacity", op)
				}
				drops++
				continue
			case !admitted:
				t.Fatalf("op %d: arrival refused at depth %d", op, len(model))
			case p.ECE != wantMark:
				t.Fatalf("op %d: ECE = %v at depth %d (ECT %v), want %v", op, p.ECE, len(model), p.ECT, wantMark)
			}
			if wantMark {
				marks++
			}
			model = append(model, p)
		} else {
			p := q.Dequeue(0)
			if len(model) == 0 {
				if p != nil {
					t.Fatalf("op %d: empty queue dequeued seq %d", op, p.Seq)
				}
				continue
			}
			if p != model[0] {
				t.Fatalf("op %d: dequeued %+v, want seq %d", op, p, model[0].Seq)
			}
			model = model[1:]
		}
		if q.Len() != len(model) || q.Bytes() != len(model)*MTU || q.Marks() != marks || q.Drops() != drops {
			t.Fatalf("op %d: len %d bytes %d marks %d drops %d, want %d %d %d %d",
				op, q.Len(), q.Bytes(), q.Marks(), q.Drops(), len(model), len(model)*MTU, marks, drops)
		}
	}
	if &q.ring[0] != &ring[0] {
		t.Fatal("the queue did not take the released ring")
	}
	if marks == 0 || drops == 0 {
		t.Fatalf("%d marks and %d drops: the mix never reached K or the capacity", marks, drops)
	}
}
