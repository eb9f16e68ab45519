package tcp

import (
	"math"
	"testing"

	"sage/internal/netem"
	"sage/internal/sim"
)

// fixedCC holds a constant congestion window: the simplest possible scheme,
// used to validate the datapath itself.
type fixedCC struct{ w float64 }

func (f *fixedCC) Name() string                      { return "fixed" }
func (f *fixedCC) Init(c *Conn)                      { c.SetCwnd(f.w) }
func (f *fixedCC) OnAck(c *Conn, e AckEvent)         { c.SetCwnd(f.w) }
func (f *fixedCC) OnLoss(c *Conn, n int, t sim.Time) {}
func (f *fixedCC) OnRTO(c *Conn, t sim.Time)         { c.SetCwnd(f.w) }

func runScenario(t *testing.T, rate *netem.RateSchedule, rtt sim.Time, qBytes int, cc CongestionControl, dur sim.Time) (*Flow, *sim.Loop) {
	t.Helper()
	loop := sim.NewLoop()
	n := netem.New(loop, netem.Config{Rate: rate, MinRTT: rtt, Queue: netem.NewDropTail(qBytes)})
	fl := NewFlow(loop, n, 1, cc, Options{})
	fl.Conn.Start(0)
	loop.RunUntil(dur)
	return fl, loop
}

func TestFixedWindowThroughputBelowBDP(t *testing.T) {
	// 12 Mb/s, 40 ms RTT: BDP = 40 pkts. cwnd=10 -> thr ~ 10*1500*8/40ms = 3 Mb/s.
	fl, _ := runScenario(t, netem.FlatRate(netem.Mbps(12)), 40*sim.Millisecond, 1<<20, &fixedCC{w: 10}, 10*sim.Second)
	thr := float64(fl.Sink.RxBytes) * 8 / 10 // bits/sec over 10 s
	if math.Abs(thr-3e6)/3e6 > 0.1 {
		t.Fatalf("throughput = %.2f Mb/s, want ~3", thr/1e6)
	}
	if fl.Conn.LostPkts() != 0 {
		t.Fatalf("unexpected losses: %d", fl.Conn.LostPkts())
	}
	// RTT should be close to the propagation floor (tiny queueing).
	if fl.Conn.SRTT() < 40*sim.Millisecond || fl.Conn.SRTT() > 45*sim.Millisecond {
		t.Fatalf("srtt = %v", fl.Conn.SRTT())
	}
}

func TestFixedWindowSaturatesLink(t *testing.T) {
	// cwnd=200 over a 40-pkt BDP with a large buffer: the link saturates.
	fl, _ := runScenario(t, netem.FlatRate(netem.Mbps(12)), 40*sim.Millisecond, 1<<22, &fixedCC{w: 200}, 10*sim.Second)
	thr := float64(fl.Sink.RxBytes) * 8 / 10
	if thr < 0.9*12e6 {
		t.Fatalf("throughput = %.2f Mb/s, want ~12", thr/1e6)
	}
	// Standing queue of ~160 pkts at 1 ms/pkt -> RTT inflated by ~160 ms.
	if fl.Conn.SRTT() < 150*sim.Millisecond {
		t.Fatalf("srtt = %v, expected bufferbloat", fl.Conn.SRTT())
	}
	if got := fl.Conn.MinRTT(); got > 45*sim.Millisecond {
		t.Fatalf("minRTT = %v, want near propagation", got)
	}
}

func TestLossDetectedInShallowBuffer(t *testing.T) {
	// cwnd=200 but buffer only holds ~8 packets: overflow must be detected
	// as loss, not hang the connection.
	fl, _ := runScenario(t, netem.FlatRate(netem.Mbps(12)), 20*sim.Millisecond, 8*netem.MTU, &fixedCC{w: 200}, 5*sim.Second)
	if fl.Conn.LostPkts() == 0 {
		t.Fatal("no losses detected despite overflow")
	}
	if fl.Conn.RecoveryEpisodes() == 0 {
		t.Fatal("never entered recovery")
	}
	// The flow must keep delivering after losses.
	if fl.Sink.RxBytes < int64(2*1e6/8) {
		t.Fatalf("throughput collapsed: %d bytes", fl.Sink.RxBytes)
	}
	// Packet conservation: sent = delivered + lost + still-in-flight (+spurious overlap).
	c := fl.Conn
	if c.SentPkts() != c.DeliveredPkts()+c.LostPkts()-c.SpuriousRetrans()+int64(c.InflightPkts()) {
		t.Fatalf("conservation: sent=%d delivered=%d lost=%d spurious=%d inflight=%d",
			c.SentPkts(), c.DeliveredPkts(), c.LostPkts(), c.SpuriousRetrans(), c.InflightPkts())
	}
}

func TestRTOOnBlackout(t *testing.T) {
	// Link goes permanently dark after 1 s: only the RTO can notice.
	rate, err := netem.NewRateSchedule([]sim.Time{0, sim.Second}, []float64{netem.Mbps(12), 0})
	if err != nil {
		t.Fatal(err)
	}
	fl, _ := runScenario(t, rate, 20*sim.Millisecond, 1<<20, &fixedCC{w: 10}, 10*sim.Second)
	if fl.Conn.RTOCount() == 0 {
		t.Fatal("RTO never fired during blackout")
	}
	if fl.Conn.State() != StateLoss {
		t.Fatalf("state = %v, want Loss", fl.Conn.State())
	}
}

func TestPacingSpacesPackets(t *testing.T) {
	loop := sim.NewLoop()
	n := netem.New(loop, netem.Config{Rate: netem.FlatRate(netem.Mbps(100)), MinRTT: 20 * sim.Millisecond, Queue: netem.NewDropTail(1 << 22)})
	cc := &fixedCC{w: 1000}
	fl := NewFlow(loop, n, 1, cc, Options{})
	fl.Conn.PacingRate = netem.Mbps(12) / 8 // bytes/sec
	fl.Conn.Start(0)
	loop.RunUntil(2 * sim.Second)
	// Paced at 12 Mb/s = 1000 pkt/s: ~2000 packets in 2 s, far below the
	// 1000-packet window burst the link could otherwise absorb.
	if got := fl.Conn.SentPkts(); got < 1800 || got > 2200 {
		t.Fatalf("sent %d packets, want ~2000 (paced)", got)
	}
}

func TestRTTEstimatorRFC6298(t *testing.T) {
	c := &Conn{opt: Options{MinRTO: 200 * sim.Millisecond}, minRTTFilter: NewMinFilter(10 * sim.Second), loop: sim.NewLoop()}
	c.updateRTT(100 * sim.Millisecond)
	if c.srtt != 100*sim.Millisecond || c.rttvar != 50*sim.Millisecond {
		t.Fatalf("first sample: srtt=%v rttvar=%v", c.srtt, c.rttvar)
	}
	c.updateRTT(200 * sim.Millisecond)
	// srtt = 7/8*100 + 1/8*200 = 112.5ms; rttvar = 3/4*50 + 1/4*100 = 62.5ms
	if c.srtt != 112500 || c.rttvar != 62500 {
		t.Fatalf("second sample: srtt=%v rttvar=%v", c.srtt, c.rttvar)
	}
	if c.rto != c.srtt+4*c.rttvar {
		t.Fatalf("rto = %v", c.rto)
	}
	c.updateRTT(0) // ignored
	if c.lastRTT != 200*sim.Millisecond {
		t.Fatal("zero RTT sample not ignored")
	}
}

func TestWindowedFilter(t *testing.T) {
	f := NewMinFilter(10 * sim.Second)
	f.Update(0, 100)
	f.Update(sim.Second, 50)
	if f.Get() != 50 {
		t.Fatalf("min = %v", f.Get())
	}
	f.Update(2*sim.Second, 80)
	if f.Get() != 50 {
		t.Fatalf("min = %v", f.Get())
	}
	// After the window passes the 50 sample, it must expire.
	f.Update(12*sim.Second+1, 90)
	if f.Get() == 50 {
		t.Fatal("expired sample retained")
	}

	m := NewMaxFilter(sim.Second)
	m.Update(0, 5)
	m.Update(100*sim.Millisecond, 3)
	if m.Get() != 5 {
		t.Fatalf("max = %v", m.Get())
	}
	m.Reset()
	if m.Get() != 0 {
		t.Fatal("reset failed")
	}
}

func TestCAStateString(t *testing.T) {
	if StateOpen.String() != "Open" || StateRecovery.String() != "Recovery" || StateLoss.String() != "Loss" {
		t.Fatal("state names")
	}
	if CAState(9).String() != "unknown" {
		t.Fatal("unknown state name")
	}
}

func TestJitterReorderingHandledByRACK(t *testing.T) {
	// Heavy per-packet jitter reorders deliveries; RACK's reordering window
	// must not declare massive spurious losses, and any spurious marks must
	// be recognized when the "lost" packets' ACKs arrive.
	loop := sim.NewLoop()
	n := netem.New(loop, netem.Config{
		Rate:   netem.FlatRate(netem.Mbps(24)),
		MinRTT: 40 * sim.Millisecond,
		Queue:  netem.NewDropTail(1 << 22),
		Jitter: 3 * sim.Millisecond,
		Seed:   11,
	})
	fl := NewFlow(loop, n, 1, &fixedCC{w: 40}, Options{})
	fl.Conn.Start(0)
	loop.RunUntil(10 * sim.Second)
	c := fl.Conn
	if c.DeliveredPkts() < 8000 {
		t.Fatalf("delivered only %d", c.DeliveredPkts())
	}
	// Nothing was actually dropped: every "loss" must be spurious, and rare.
	if c.LostPkts() != c.SpuriousRetrans() {
		t.Fatalf("real losses on a lossless path: lost=%d spurious=%d", c.LostPkts(), c.SpuriousRetrans())
	}
	if float64(c.LostPkts()) > 0.02*float64(c.DeliveredPkts()) {
		t.Fatalf("too many spurious marks: %d of %d", c.LostPkts(), c.DeliveredPkts())
	}
}

func TestConnDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		loop := sim.NewLoop()
		n := netem.New(loop, netem.Config{
			Rate:   netem.FlatRate(netem.Mbps(24)),
			MinRTT: 20 * sim.Millisecond,
			Queue:  netem.NewDropTail(20 * netem.MTU),
			Jitter: 2 * sim.Millisecond,
			Seed:   5,
		})
		fl := NewFlow(loop, n, 1, &fixedCC{w: 60}, Options{})
		fl.Conn.Start(0)
		loop.RunUntil(5 * sim.Second)
		return fl.Sink.RxBytes, fl.Conn.LostPkts()
	}
	b1, l1 := run()
	b2, l2 := run()
	if b1 != b2 || l1 != l2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", b1, l1, b2, l2)
	}
}
