package cc

import (
	"math"
	"testing"

	"sage/internal/netem"
	"sage/internal/sim"
	"sage/internal/tcp"
)

// result summarizes one single-flow run.
type result struct {
	thrBps float64
	owdAvg sim.Time
	lost   int64
	util   float64
}

func run1(t *testing.T, name string, bwMbps, rttMs, bdpMult float64, dur sim.Time) result {
	t.Helper()
	loop := sim.NewLoop()
	rate := netem.FlatRate(netem.Mbps(bwMbps))
	mrtt := sim.FromMillis(rttMs)
	qb := int(float64(netem.BDPBytes(rate.At(0), mrtt)) * bdpMult)
	if qb < 2*netem.MTU {
		qb = 2 * netem.MTU
	}
	n := netem.New(loop, netem.Config{Rate: rate, MinRTT: mrtt, Queue: netem.NewDropTail(qb)})
	fl := tcp.NewFlow(loop, n, 1, MustNew(name), tcp.Options{})
	fl.Conn.Start(0)
	loop.RunUntil(dur)
	thr := float64(fl.Sink.RxBytes) * 8 / dur.Seconds()
	return result{
		thrBps: thr,
		owdAvg: fl.Sink.OWDAvg(),
		lost:   fl.Conn.LostPkts(),
		util:   thr / netem.Mbps(bwMbps),
	}
}

func TestRegistryComplete(t *testing.T) {
	for _, n := range PoolNames() {
		if _, err := New(n); err != nil {
			t.Fatalf("pool scheme missing: %v", err)
		}
	}
	for _, n := range DelayLeagueNames() {
		if _, err := New(n); err != nil {
			t.Fatalf("delay-league scheme missing: %v", err)
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if len(Names()) < 17 {
		t.Fatalf("only %d schemes registered", len(Names()))
	}
	// Name() must match the registry key.
	for _, n := range Names() {
		if got := MustNew(n).Name(); got != n {
			t.Fatalf("scheme %q reports Name %q", n, got)
		}
	}
}

func TestMustNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew("nope")
}

// Every scheme must achieve reasonable utilization alone on a friendly path
// (24 Mb/s, 20 ms, 2 BDP buffer) without collapsing.
func TestAllSchemesUtilizeFriendlyPath(t *testing.T) {
	for _, name := range Names() {
		name := name
		if name == "pure" {
			continue // no policy of its own: driven externally
		}
		t.Run(name, func(t *testing.T) {
			r := run1(t, name, 24, 20, 2, 10*sim.Second)
			min := 0.5
			if name == "sprout" || name == "ledbat" || name == "vegas" || name == "cdg" {
				min = 0.3 // conservative delay-based schemes may sit lower
			}
			if r.util < min {
				t.Fatalf("utilization %.2f below %.2f (thr %.2f Mb/s)", r.util, min, r.thrBps/1e6)
			}
		})
	}
}

// Loss-based schemes must fill deep buffers (bufferbloat); delay-based
// schemes must keep the queue — and hence one-way delay — low.
func TestDelayVsLossBasedQueueOccupancy(t *testing.T) {
	cubic := run1(t, "cubic", 24, 20, 8, 15*sim.Second)
	vegas := run1(t, "vegas", 24, 20, 8, 15*sim.Second)
	copa := run1(t, "copa", 24, 20, 8, 15*sim.Second)
	if cubic.owdAvg <= vegas.owdAvg {
		t.Fatalf("cubic owd %v should exceed vegas owd %v in a deep buffer", cubic.owdAvg, vegas.owdAvg)
	}
	if cubic.owdAvg <= copa.owdAvg {
		t.Fatalf("cubic owd %v should exceed copa owd %v", cubic.owdAvg, copa.owdAvg)
	}
	// Vegas holds only alpha..beta packets of backlog: owd stays near the
	// propagation floor (10 ms) plus the slow-start transient in the average.
	if vegas.owdAvg > 40*sim.Millisecond {
		t.Fatalf("vegas owd %v too high", vegas.owdAvg)
	}
}

func TestCubicRecoversAfterLoss(t *testing.T) {
	r := run1(t, "cubic", 48, 20, 0.5, 15*sim.Second)
	if r.lost == 0 {
		t.Fatal("cubic never overflowed a half-BDP buffer")
	}
	if r.util < 0.6 {
		t.Fatalf("cubic utilization %.2f after losses", r.util)
	}
}

func TestBBR2KeepsDelayLowInDeepBuffer(t *testing.T) {
	bbr := run1(t, "bbr2", 24, 20, 16, 15*sim.Second)
	cubic := run1(t, "cubic", 24, 20, 16, 15*sim.Second)
	if bbr.util < 0.7 {
		t.Fatalf("bbr2 utilization %.2f", bbr.util)
	}
	if bbr.owdAvg >= cubic.owdAvg {
		t.Fatalf("bbr2 owd %v should be below cubic %v in deep buffer", bbr.owdAvg, cubic.owdAvg)
	}
}

func TestHighSpeedResponseFunction(t *testing.T) {
	if hsA(10) != 1 || hsB(10) != 0.5 {
		t.Fatal("below LowWindow must be Reno")
	}
	if a := hsA(1000); a <= 1 {
		t.Fatalf("a(1000) = %v, want >1", a)
	}
	if hsA(10000) <= hsA(1000) {
		t.Fatal("a(w) must grow with w")
	}
	if b := hsB(83000); math.Abs(b-0.1) > 0.01 {
		t.Fatalf("b(83000) = %v, want ~0.1", b)
	}
	if hsB(1000) >= 0.5 || hsB(1000) <= 0.1 {
		t.Fatalf("b(1000) = %v out of range", hsB(1000))
	}
}

func TestHyblaRhoScaling(t *testing.T) {
	// Hybla on a 200 ms path should grow far faster than Reno.
	hybla := run1(t, "hybla", 48, 200, 2, 6*sim.Second)
	reno := run1(t, "newreno", 48, 200, 2, 6*sim.Second)
	if hybla.thrBps <= reno.thrBps {
		t.Fatalf("hybla %.2f Mb/s should beat reno %.2f Mb/s on long RTT",
			hybla.thrBps/1e6, reno.thrBps/1e6)
	}
}

func TestIllinoisAlphaBetaAdaptation(t *testing.T) {
	il := NewIllinois()
	loop := sim.NewLoop()
	n := netem.New(loop, netem.Config{Rate: netem.FlatRate(netem.Mbps(24)), MinRTT: 20 * sim.Millisecond, Queue: netem.NewDropTail(1 << 20)})
	conn := tcp.NewConn(loop, n, 1, il, tcp.Options{})
	forceBaseRTT(t, loop, n, conn)
	base := conn.BaseRTT()

	// Empty queue (avg == base): alpha at its maximum, beta at its minimum.
	il.maxRTT = base + 20*sim.Millisecond
	il.sumRTT = base
	il.cntRTT = 1
	il.updateParams(conn)
	if il.alpha != il.AlphaMax {
		t.Fatalf("alpha = %v at empty queue, want max", il.alpha)
	}
	if il.beta != il.BetaMin {
		t.Fatalf("beta = %v at empty queue, want min", il.beta)
	}

	// Full queue (avg == max observed): alpha shrinks, beta at its maximum.
	il.sumRTT = il.maxRTT
	il.cntRTT = 1
	il.updateParams(conn)
	if il.alpha >= il.AlphaMax {
		t.Fatalf("alpha = %v at full queue", il.alpha)
	}
	if il.beta != il.BetaMax {
		t.Fatalf("beta = %v at full queue, want max", il.beta)
	}
}

// forceBaseRTT gives conn a 20 ms base RTT sample by running it briefly.
func forceBaseRTT(t *testing.T, loop *sim.Loop, n *netem.Network, conn *tcp.Conn) {
	t.Helper()
	sink := tcp.NewSink(n)
	n.Attach(conn.ID, netem.Endpoints{Data: sink, Ack: conn})
	conn.Start(loop.Now())
	loop.RunUntil(loop.Now() + 500*sim.Millisecond)
	if conn.BaseRTT() <= 0 {
		t.Fatal("no base RTT established")
	}
}

func TestLEDBATYieldsToQueueGrowth(t *testing.T) {
	// LEDBAT alone targets ~100 ms queueing delay.
	r := run1(t, "ledbat", 24, 20, 16, 15*sim.Second)
	if r.owdAvg < 30*sim.Millisecond || r.owdAvg > 200*sim.Millisecond {
		t.Fatalf("ledbat owd %v, want near its 100 ms target", r.owdAvg)
	}
}

func TestC2TCPBoundsDelayBelowCubic(t *testing.T) {
	c2 := run1(t, "c2tcp", 24, 20, 16, 15*sim.Second)
	cubic := run1(t, "cubic", 24, 20, 16, 15*sim.Second)
	if c2.owdAvg >= cubic.owdAvg {
		t.Fatalf("c2tcp owd %v not below cubic %v", c2.owdAvg, cubic.owdAvg)
	}
}

func TestStepDownSchemesAdapt(t *testing.T) {
	// 96 -> 24 Mb/s at t=5 s: schemes must not stall after the cut.
	for _, name := range []string{"cubic", "bbr2", "vegas", "yeah"} {
		name := name
		t.Run(name, func(t *testing.T) {
			loop := sim.NewLoop()
			rate := netem.StepRate(netem.Mbps(96), netem.Mbps(24), 5*sim.Second)
			mrtt := 20 * sim.Millisecond
			qb := netem.BDPBytes(netem.Mbps(96), mrtt) * 2
			n := netem.New(loop, netem.Config{Rate: rate, MinRTT: mrtt, Queue: netem.NewDropTail(qb)})
			fl := tcp.NewFlow(loop, n, 1, MustNew(name), tcp.Options{})
			fl.Conn.Start(0)
			loop.RunUntil(5 * sim.Second)
			before := fl.Sink.RxBytes
			loop.RunUntil(10 * sim.Second)
			after := fl.Sink.RxBytes - before
			thrAfter := float64(after) * 8 / 5
			if thrAfter < 0.4*24e6 {
				t.Fatalf("post-step throughput %.2f Mb/s", thrAfter/1e6)
			}
			if thrAfter > 1.05*24e6 {
				t.Fatalf("post-step throughput %.2f Mb/s exceeds capacity", thrAfter/1e6)
			}
		})
	}
}

func TestVenoMildCutOnRandomLoss(t *testing.T) {
	v := NewVeno()
	loop := sim.NewLoop()
	n := netem.New(loop, netem.Config{Rate: netem.FlatRate(netem.Mbps(24)), MinRTT: 20 * sim.Millisecond, Queue: netem.NewDropTail(1 << 20)})
	c := tcp.NewConn(loop, n, 1, v, tcp.Options{})
	c.SetCwnd(100)
	v.n = 1 // small backlog: random loss
	v.OnLoss(c, 1, 0)
	if math.Abs(c.Cwnd-80) > 1e-9 {
		t.Fatalf("random-loss cut to %v, want 80", c.Cwnd)
	}
	c.SetCwnd(100)
	v.n = 10 // congestive
	v.OnLoss(c, 1, 0)
	if math.Abs(c.Cwnd-50) > 1e-9 {
		t.Fatalf("congestive cut to %v, want 50", c.Cwnd)
	}
}

func TestCubicFastConvergence(t *testing.T) {
	cu := NewCubic()
	loop := sim.NewLoop()
	n := netem.New(loop, netem.Config{Rate: netem.FlatRate(netem.Mbps(24)), MinRTT: 20 * sim.Millisecond, Queue: netem.NewDropTail(1 << 20)})
	c := tcp.NewConn(loop, n, 1, cu, tcp.Options{})
	c.SetCwnd(100)
	cu.OnLoss(c, 1, 0)
	first := cu.wMax
	if first != 100 {
		t.Fatalf("wMax = %v", first)
	}
	// Second loss at a lower point triggers fast convergence: wMax < cwnd.
	c.SetCwnd(80)
	cu.OnLoss(c, 1, 0)
	if cu.wMax >= 80 {
		t.Fatalf("fast convergence: wMax = %v, want < 80", cu.wMax)
	}
}

func TestTwoCubicFlowsShareFairly(t *testing.T) {
	loop := sim.NewLoop()
	mrtt := 40 * sim.Millisecond
	rate := netem.FlatRate(netem.Mbps(48))
	qb := netem.BDPBytes(rate.At(0), mrtt)
	n := netem.New(loop, netem.Config{Rate: rate, MinRTT: mrtt, Queue: netem.NewDropTail(qb)})
	f1 := tcp.NewFlow(loop, n, 1, MustNew("cubic"), tcp.Options{})
	f2 := tcp.NewFlow(loop, n, 2, MustNew("cubic"), tcp.Options{})
	f1.Conn.Start(0)
	f2.Conn.Start(0)
	loop.RunUntil(30 * sim.Second)
	t1 := float64(f1.Sink.RxBytes)
	t2 := float64(f2.Sink.RxBytes)
	ratio := t1 / t2
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("cubic/cubic share ratio %.2f (%.1f vs %.1f Mb/s)", ratio, t1*8/30e6, t2*8/30e6)
	}
	if (t1+t2)*8/30 < 0.85*48e6 {
		t.Fatalf("aggregate utilization %.2f", (t1+t2)*8/30/48e6)
	}
}
