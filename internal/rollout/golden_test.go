package rollout_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"sage/internal/cc"
	"sage/internal/collector"
	"sage/internal/golden"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rollout"
	"sage/internal/serve"
	"sage/internal/sim"
	"sage/internal/tcp"
)

// The golden pins (testdata/*.golden) hold the simulator's outputs across
// commits: the datapath (sim → netem → tcp) may be made cheaper, never
// different.

// goldenCells is one scenario per path where a recycled packet or a
// reordered event would show: each AdversarialGrid family that touches
// packets, every AQM that drops inside the queue (CoDel at dequeue, HeadDrop
// evicting its head, PIE and BoDe on arrival) and a delayed-ACK receiver
// (two data packets per ACK).
var goldenCells = []string{"flap", "reorder", "ackloss", "ackdup", "burstloss", "codel", "hdrop", "pie", "bode", "delack"}

func digestSteps(d *golden.Digest, steps []gr.Step) {
	d.U64(uint64(len(steps)))
	for _, s := range steps {
		for _, v := range s.State {
			d.F64(v)
		}
		d.F64(s.Action)
		d.F64(s.Reward)
	}
}

// TestGoldenPool hashes every step of the 13 pool schemes over a four-
// scenario slice of Set I ∪ Set II with 0.5 ms of per-packet jitter.
func TestGoldenPool(t *testing.T) {
	setI := netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: sim.Second, Seed: 1})
	setII := netem.SetII(netem.SetIIOptions{Level: netem.GridTiny, Duration: 1500 * sim.Millisecond, Seed: 1})
	scs := []netem.Scenario{setI[0], setI[len(setI)-1], setII[0], setII[len(setII)-1]}
	for i := range scs {
		scs[i].Jitter = 500 * sim.Microsecond
	}
	pool, err := collector.Collect(context.Background(), cc.PoolNames(), scs, collector.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Trajs) != len(cc.PoolNames())*len(scs) || len(pool.Failed) != 0 {
		t.Fatalf("%d trajectories, %d failed cells", len(pool.Trajs), len(pool.Failed))
	}
	d := golden.NewDigest()
	for _, tr := range pool.Trajs {
		d.Str(tr.Scheme)
		d.Str(tr.Env)
		digestSteps(d, tr.Steps)
	}
	golden.Check(t, "pool", d.Sum())
}

// TestGoldenFleet hashes every FlowResult of a 16-flow RunMulti: twelve
// TCP Pure flows under one shared serve.Engine capped at 12 packets, and
// four Cubic flows that supply loss and recovery.
func TestGoldenFleet(t *testing.T) {
	golden.Check(t, "fleet", fleetDigest(16, 3*sim.Second, serve.Config{}))
}

// TestGoldenFleetSharded is the same fleet at 96 flows, 72 of them under
// one engine: a batch large enough that Flush splits its forward across
// Config.Workers, in deterministic and in stochastic mode (whose GMM draws
// must stay one serial stream in enqueue order).
func TestGoldenFleetSharded(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  serve.Config
	}{
		{"deterministic", serve.Config{}},
		{"stochastic", serve.Config{Stochastic: true, Seed: 3}},
	} {
		golden.Check(t, "fleet-sharded-"+c.name, fleetDigest(96, 2*sim.Second, c.cfg))
	}
}

// fleetDigest runs flows flows on one bottleneck — every fourth Cubic, the
// rest TCP Pure under one shared serve.Engine built from cfg with a 12-packet
// cap — and hashes every FlowResult.
func fleetDigest(flows int, dur sim.Time, cfg serve.Config) string {
	pol := nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim, Seed: 1})
	rng := rand.New(rand.NewSource(1))
	samples := make([][]float64, 64)
	for i := range samples {
		samples[i] = make([]float64, gr.StateDim)
		for j := range samples[i] {
			samples[i][j] = rng.NormFloat64()
		}
	}
	pol.Norm = nn.FitNormalizer(samples)
	cfg.Policy, cfg.MaxSessions, cfg.MaxCwnd = pol, flows+1, 12
	eng := serve.NewEngine(cfg)

	rate, rtt := netem.Mbps(3*float64(flows)), 40*sim.Millisecond
	sc := netem.Scenario{
		Name:       "golden-fleet",
		Rate:       netem.FlatRate(rate),
		MinRTT:     rtt,
		QueueBytes: netem.BDPBytes(rate, rtt),
		Duration:   dur,
		Seed:       1,
	}
	specs := make([]rollout.FlowSpec, flows)
	for j := range specs {
		specs[j].Start = sim.Time(j) * 5 * sim.Millisecond
		if j%4 == 3 {
			specs[j].Name, specs[j].CC = "cubic", cc.MustNew("cubic")
			continue
		}
		specs[j].Name, specs[j].CC = "sage", cc.MustNew("pure")
		specs[j].Controller = serve.NewController(eng)
	}
	d := golden.NewDigest()
	for _, r := range rollout.RunMulti(sc, specs, rollout.MultiOptions{SamplePeriod: 500 * sim.Millisecond}) {
		d.Str(r.Name)
		d.F64(r.ThroughputBps)
		d.U64(uint64(r.AvgOWD))
		for _, s := range r.Series {
			d.U64(uint64(s.At))
			d.F64(s.Cwnd)
			d.F64(s.ThrBps)
			d.U64(uint64(s.OWD))
			d.U64(uint64(s.SRTT))
		}
	}
	return d.Sum()
}

// TestGoldenCells hashes a Cubic rollout's result and GR trajectory over
// each of goldenCells' scenarios.
func TestGoldenCells(t *testing.T) {
	cells := map[string]netem.Scenario{}
	for _, sc := range netem.AdversarialGrid(netem.AdversarialOptions{Level: netem.GridTiny, Duration: 3 * sim.Second, Seed: 1}) {
		cells[sc.Name[:strings.IndexByte(sc.Name, '-')]] = sc
	}
	base := netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: 3 * sim.Second, Seed: 1})[0]
	base.Jitter = 500 * sim.Microsecond
	cells["delack"] = base
	for name, aqm := range map[string]netem.AQMKind{"codel": netem.AQMCoDel, "hdrop": netem.AQMHeadDrop, "pie": netem.AQMPIE, "bode": netem.AQMBoDe} {
		sc := base
		sc.AQM = aqm
		cells[name] = sc
	}

	for _, name := range goldenCells {
		sc, ok := cells[name]
		if !ok {
			t.Errorf("%s: no such scenario", name)
			continue
		}
		res := rollout.Run(sc, cc.MustNew("cubic"), rollout.Options{
			CollectSteps: true,
			TCP:          tcp.Options{DelAck: name == "delack"},
		})
		d := golden.NewDigest()
		d.F64(res.ThroughputBps)
		d.U64(uint64(res.AvgRTT))
		d.U64(uint64(res.AvgOWD))
		d.F64(res.LossRate)
		for _, iv := range res.Intervals {
			d.F64(iv.ThroughputBps)
			d.U64(uint64(iv.AvgRTT))
			d.U64(uint64(iv.LossPkts))
		}
		digestSteps(d, res.Steps)
		golden.Check(t, "cell-"+name, d.Sum())
	}
}
