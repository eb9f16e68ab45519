package tcp_test

import (
	"fmt"
	"testing"

	"sage/internal/cc"
	"sage/internal/netem"
	"sage/internal/sim"
	"sage/internal/tcp"
)

// TestRACKScanMatchesFullScan holds rackDetect, which stops at the first
// unresolved packet not yet due, to the full scan it replaced, at every event
// of the adversarial grid (flaps, blackout, reordering, ACK loss and
// duplication, burst loss) under all five AQMs, for Cubic and BBR2. The two
// agree only because sentAt never decreases with seq, which the audit asserts
// at every event too.
func TestRACKScanMatchesFullScan(t *testing.T) {
	dur := sim.Second
	if testing.Short() {
		dur = sim.Second / 2
	}
	scens := netem.AdversarialGrid(netem.AdversarialOptions{Level: netem.GridTiny, Duration: dur, Seed: 3})
	var audit tcp.RACKAudit
	for _, sc := range scens {
		for _, aqm := range []netem.AQMKind{netem.AQMDropTail, netem.AQMHeadDrop, netem.AQMCoDel, netem.AQMPIE, netem.AQMBoDe} {
			for _, scheme := range []string{"cubic", "bbr2"} {
				name := fmt.Sprintf("%s/%s/%s", sc.Name, aqm, scheme)
				sc.AQM = aqm
				loop := sim.NewLoop()
				fl := tcp.NewFlow(loop, sc.Build(loop), 1, cc.MustNew(scheme), tcp.Options{})
				fl.Conn.Start(0)
				for loop.Step() && loop.Now() <= sc.Duration {
					if err := audit.AuditRACK(fl.Conn); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		}
	}
	t.Logf("%d audits: %d would mark, %d mark several, %d mark with a deadline still pending", audit.Checks, audit.Marking, audit.Multi, audit.MarkWait)
	if audit.Multi == 0 || audit.MarkWait == 0 {
		t.Fatalf("the grid never reached a scan that marks several packets (%d) or marks and then waits (%d)", audit.Multi, audit.MarkWait)
	}
}
