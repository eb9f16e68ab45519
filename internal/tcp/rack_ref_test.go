package tcp

import (
	"fmt"
	"slices"

	"sage/internal/sim"
)

// rackDetectRef is the full RACK scan: it walks every unresolved record sent
// before the newest delivered one and takes the minimum over the deadlines
// not yet due. It is the oracle for rackDetect, which stops at the first
// record not yet due, and it has no side effects: it returns the seqs it
// would mark lost and the deadline it would arm (0 for none).
func rackDetectRef(c *Conn, now sim.Time) (lost []int64, earliest sim.Time) {
	if c.lastAckedSentAt == 0 {
		return nil, 0
	}
	reorder := c.reorderWnd()
	for seq := c.head; seq < c.nextSeq; seq++ {
		r := c.rec(seq)
		if r.resolved() {
			continue
		}
		if r.sentAt >= c.lastAckedSentAt {
			break
		}
		deadline := r.sentAt + c.rackRTT + reorder
		if now >= deadline {
			lost = append(lost, seq)
		} else if earliest == 0 || deadline < earliest {
			earliest = deadline
		}
	}
	return lost, earliest
}

// RACKAudit counts what AuditRACK has seen, so a test can show that its
// scenarios reached the cases the scan shortcut is about.
type RACKAudit struct {
	Checks   int // audits run
	Marking  int // audits where the scan would mark at least one packet
	Multi    int // ... at least two
	MarkWait int // ... at least one, with a deadline still pending after it
	scratch  []txRecord
	suspects []int64
}

// AuditRACK checks c without disturbing it. sentAt must be nondecreasing
// over [base, nextSeq). Then rackDetect, run on a copy of c that schedules
// on a throwaway loop, must mark exactly the seqs rackDetectRef names and
// arm its timer at the same deadline: at the loop's clock, and, when
// several packets are suspect, at the deadline of the middle one, where
// the scan marks the older half and waits on the newer.
func (a *RACKAudit) AuditRACK(c *Conn) error {
	now := c.loop.Now()
	suspects := a.suspects[:0]
	for seq := c.base; seq < c.nextSeq; seq++ {
		r := c.rec(seq)
		if seq > c.base && r.sentAt < c.rec(seq-1).sentAt {
			return fmt.Errorf("flow %d at %v: sentAt of seq %d (%v) precedes seq %d's (%v)", c.ID, now, seq, r.sentAt, seq-1, c.rec(seq-1).sentAt)
		}
		if seq >= c.head && !r.resolved() && r.sentAt < c.lastAckedSentAt {
			suspects = append(suspects, seq)
		}
	}
	a.suspects = suspects
	if err := a.auditAt(c, now); err != nil {
		return err
	}
	if len(suspects) < 2 {
		return nil
	}
	mid := c.rec(suspects[len(suspects)/2]).sentAt + c.rackRTT + c.reorderWnd()
	return a.auditAt(c, max(now, mid))
}

func (a *RACKAudit) auditAt(c *Conn, now sim.Time) error {
	wantLost, wantAt := rackDetectRef(c, now)

	if len(a.scratch) != len(c.tx) {
		a.scratch = make([]txRecord, len(c.tx))
	}
	for seq := c.head; seq < c.nextSeq; seq++ {
		a.scratch[seq&int64(len(c.tx)-1)] = *c.rec(seq)
	}
	cp := *c
	cp.tx = a.scratch
	cp.loop = sim.NewLoop()
	var armedAt sim.Time
	cp.rackTimer.Init(cp.loop, func(at sim.Time) { armedAt = at })
	marked := cp.rackDetect(now)
	cp.loop.Run()

	var gotLost []int64
	for seq := c.head; seq < c.nextSeq; seq++ {
		if cp.rec(seq).lost != c.rec(seq).lost {
			gotLost = append(gotLost, seq)
		}
	}
	a.Checks++
	if len(wantLost) > 0 {
		a.Marking++
		if len(wantLost) > 1 {
			a.Multi++
		}
		if wantAt > 0 {
			a.MarkWait++
		}
	}
	if !slices.Equal(gotLost, wantLost) || marked != len(wantLost) || armedAt != wantAt {
		return fmt.Errorf("flow %d at %v: rackDetect marked %v (returned %d) and armed %v; the full scan marks %v and arms %v",
			c.ID, now, gotLost, marked, armedAt, wantLost, wantAt)
	}
	return nil
}
