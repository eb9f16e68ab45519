package cc

import (
	"testing"

	"sage/internal/netem"
	"sage/internal/sim"
	"sage/internal/tcp"
)

// rtoProbe wraps a scheme and records the window on either side of its
// first OnRTO.
type rtoProbe struct {
	tcp.CongestionControl
	rtos          int
	before, after float64
}

func (p *rtoProbe) OnRTO(c *tcp.Conn, now sim.Time) {
	p.rtos++
	before := c.Cwnd
	p.CongestionControl.OnRTO(c, now)
	if p.rtos == 1 {
		p.before, p.after = before, c.Cwnd
	}
}

// rtoFloor is the window each scheme's timeout response may leave, where it
// is not RFC 5681's loss window of one packet (DESIGN.md §1 says why).
var rtoFloor = map[string]float64{
	"bbr2":  4, // BBR's minimum cwnd target
	"natcp": 2, // the network-assisted window's floor
}

// TestOnRTOCollapsesWindow drives every registered scheme, and the NATCP
// oracle, through a real tcp.Conn over a link that goes dark for two
// seconds, which no ACK survives, so the retransmission timer fires: each
// scheme's OnRTO must collapse the window it had grown — to one packet, or
// to the floor in rtoFloor — and Vivace, whose window follows its pacing
// rate, must at least halve it.
func TestOnRTOCollapsesWindow(t *testing.T) {
	rate, mrtt := netem.Mbps(24), 40*sim.Millisecond
	sc := netem.Scenario{
		Name:       "rto",
		Rate:       netem.BlackoutRate(rate, 2*sim.Second, 2*sim.Second),
		MinRTT:     mrtt,
		QueueBytes: netem.BDPBytes(rate, mrtt),
		Duration:   5 * sim.Second,
	}
	schemes := map[string]func() tcp.CongestionControl{
		"natcp": func() tcp.CongestionControl { return NewNATCP(sc, 1) },
	}
	for name, f := range registry {
		schemes[name] = f
	}
	for name, f := range schemes {
		t.Run(name, func(t *testing.T) {
			loop := sim.NewLoop()
			probe := &rtoProbe{CongestionControl: f()}
			fl := tcp.NewFlow(loop, sc.Build(loop), 1, probe, tcp.Options{})
			fl.Conn.Start(0)
			loop.RunUntil(sc.Duration)

			if probe.rtos == 0 {
				t.Fatalf("no RTO during a 2 s outage (%d RTOs counted by the conn)", fl.Conn.Stats().RTOs)
			}
			// NATCP is told the outage's zero capacity, so its window already
			// sits at its floor when the timer fires; every other scheme
			// must have grown one.
			if probe.before < 4 && name != "natcp" {
				t.Fatalf("window before the RTO was %.2f: nothing to collapse", probe.before)
			}
			limit, ok := rtoFloor[name]
			switch {
			case name == "vivace":
				limit = probe.before / 2
			case !ok:
				limit = 1
			}
			if probe.after > limit {
				t.Errorf("OnRTO left cwnd %.2f (from %.2f), want ≤ %.2f", probe.after, probe.before, limit)
			}
		})
	}
}
