package tcp

import (
	"fmt"
	"strings"
	"testing"

	"sage/internal/netem"
	"sage/internal/sim"
)

// Release gives the tx ring to whichever connection sends next. A released
// connection must fail loudly on an ACK or a send instead of writing into
// that ring; its counters stay readable.
func TestConnUsedAfterReleasePanics(t *testing.T) {
	loop := sim.NewLoop()
	n := netem.New(loop, netem.Config{Rate: netem.FlatRate(netem.Mbps(12)), MinRTT: 20 * sim.Millisecond})
	fl := NewFlow(loop, n, 1, &fixedCC{w: 20}, Options{})
	fl.Conn.Start(0)
	loop.RunUntil(30 * sim.Millisecond)
	c := fl.Conn
	sent := c.SentPkts()
	if c.InflightPkts() == 0 {
		t.Fatal("nothing in flight at release")
	}
	c.Release()
	if c.SentPkts() != sent || c.tx != nil {
		t.Fatalf("after Release: sent %d (was %d), ring %d records", c.SentPkts(), sent, len(c.tx))
	}

	loop2 := sim.NewLoop()
	n2 := netem.New(loop2, netem.Config{Rate: netem.FlatRate(netem.Mbps(12)), MinRTT: 20 * sim.Millisecond})
	NewFlow(loop2, n2, 1, &fixedCC{w: 20}, Options{}).Conn.Start(0) // may take c's ring

	ack := &netem.Packet{FlowID: 1, Ack: true, NAcks: 1}
	ack.Acks[0] = netem.AckItem{Seq: c.head, SentAt: 0}
	for what, use := range map[string]func(){
		"an ACK after Release": func() { c.Receive(ack, loop.Now()) },
		"a send after Release": func() { c.SetCwnd(100); c.Kick(loop.Now()) },
		"the old loop run on":  func() { loop.Run() }, // ACKs still on the path, the RTO
		"a second Release":     c.Release,
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "connection used after Release") {
					t.Errorf("%s: recovered %v, want the used-after-Release panic", what, r)
				}
			}()
			use()
		}()
	}
}
