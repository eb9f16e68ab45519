package tcp_test

import (
	"testing"

	"sage/internal/cc"
	"sage/internal/netem"
	"sage/internal/sim"
	"sage/internal/tcp"
)

// BenchmarkFlowPerPacket is the whole datapath's cost per delivered packet:
// one flow alone on a lossless 1 Gb/s, 10 ms path (the regime of the repo
// benchmark's tcp.flow_ns_per_pkt probe), in 100 ms slices of simulated time.
// The cubic-lossy case adds 1 % random loss and 0.5 ms of jitter, so that
// the window keeps holes open and RACK's loss detection runs on every ACK.
func BenchmarkFlowPerPacket(b *testing.B) {
	clean := netem.Config{Rate: netem.FlatRate(netem.Mbps(1000)), MinRTT: 10 * sim.Millisecond}
	lossy := clean
	lossy.LossProb, lossy.Jitter, lossy.Seed = 0.01, 500*sim.Microsecond, 1
	for _, c := range []struct {
		name, scheme string
		net          netem.Config
	}{
		{"cubic", "cubic", clean},
		{"bbr2", "bbr2", clean},
		{"vegas", "vegas", clean},
		{"cubic-lossy", "cubic", lossy},
	} {
		b.Run(c.name, func(b *testing.B) {
			loop := sim.NewLoop()
			n := netem.New(loop, c.net)
			fl := tcp.NewFlow(loop, n, 1, cc.MustNew(c.scheme), tcp.Options{})
			fl.Conn.Start(0)
			loop.RunUntil(sim.Second)
			before := fl.Sink.RxPkts
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loop.RunUntil(loop.Now() + 100*sim.Millisecond)
			}
			b.StopTimer()
			pkts := float64(fl.Sink.RxPkts - before)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pkts, "ns/pkt")
			b.ReportMetric(pkts/float64(b.N), "pkts/op")
		})
	}
}
