package rollout_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sage/internal/cc"
	"sage/internal/collector"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rollout"
	"sage/internal/serve"
	"sage/internal/sim"
	"sage/internal/tcp"
)

// The golden digests pin the simulator's outputs across commits: the
// datapath (sim → netem → tcp) may be made cheaper, never different. A
// constant below changes only with a CHANGES.md sentence saying why.
const (
	goldenPool  = "f90decce1b7e92de"
	goldenFleet = "dc89659a3db53172"

	goldenFleetSharded    = "cf3a4142a78a153c"
	goldenFleetStochastic = "7f09921bab7bdef0"
)

// goldenCells is one scenario per path where a recycled packet or a
// reordered event would show: each AdversarialGrid family that touches
// packets, every AQM that drops inside the queue (CoDel at dequeue, HeadDrop
// evicting its head, PIE and BoDe on arrival) and a delayed-ACK receiver
// (two data packets per ACK).
var goldenCells = map[string]string{
	"flap":      "8f318f2237a42676",
	"reorder":   "648109cc128d9abc",
	"ackloss":   "a626145750aace58",
	"ackdup":    "38cf01cdddd02ec3",
	"burstloss": "491cc62671390fbc",
	"codel":     "923871cd4d5f02af",
	"hdrop":     "804c685dd21285f6",
	"pie":       "fb462a2b5c0d9c5f",
	"bode":      "124336b8cedc8400",
	"delack":    "5421b89bcfe2d3b9",
}

type fnvDigest struct{ h hash.Hash64 }

func newFNV() fnvDigest { return fnvDigest{fnv.New64a()} }

func (d fnvDigest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}
func (d fnvDigest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d fnvDigest) str(s string)  { d.u64(uint64(len(s))); d.h.Write([]byte(s)) }
func (d fnvDigest) steps(steps []gr.Step) {
	d.u64(uint64(len(steps)))
	for _, s := range steps {
		for _, v := range s.State {
			d.f64(v)
		}
		d.f64(s.Action)
		d.f64(s.Reward)
	}
}
func (d fnvDigest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

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
	d := newFNV()
	for _, tr := range pool.Trajs {
		d.str(tr.Scheme)
		d.str(tr.Env)
		d.steps(tr.Steps)
	}
	if got := d.sum(); got != goldenPool {
		t.Errorf("pool digest = %s, want %s (%d transitions)", got, goldenPool, pool.Transitions())
	}
}

// TestGoldenFleet hashes every FlowResult of a 16-flow RunMulti: twelve
// TCP Pure flows under one shared serve.Engine capped at 12 packets, and
// four Cubic flows that supply loss and recovery.
func TestGoldenFleet(t *testing.T) {
	if got := fleetDigest(16, 3*sim.Second, serve.Config{}); got != goldenFleet {
		t.Errorf("fleet digest = %s, want %s", got, goldenFleet)
	}
}

// TestGoldenFleetSharded is the same fleet at 96 flows, 72 of them under
// one engine: a batch large enough that Flush splits its forward across
// Config.Workers, in deterministic and in stochastic mode (whose GMM draws
// must stay one serial stream in enqueue order).
func TestGoldenFleetSharded(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  serve.Config
		want string
	}{
		{"deterministic", serve.Config{}, goldenFleetSharded},
		{"stochastic", serve.Config{Stochastic: true, Seed: 3}, goldenFleetStochastic},
	} {
		if got := fleetDigest(96, 2*sim.Second, c.cfg); got != c.want {
			t.Errorf("%s: fleet digest = %s, want %s", c.name, got, c.want)
		}
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
	d := newFNV()
	for _, r := range rollout.RunMulti(sc, specs, rollout.MultiOptions{SamplePeriod: 500 * sim.Millisecond}) {
		d.str(r.Name)
		d.f64(r.ThroughputBps)
		d.u64(uint64(r.AvgOWD))
		for _, s := range r.Series {
			d.u64(uint64(s.At))
			d.f64(s.Cwnd)
			d.f64(s.ThrBps)
			d.u64(uint64(s.OWD))
			d.u64(uint64(s.SRTT))
		}
	}
	return d.sum()
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

	for name, want := range goldenCells {
		sc, ok := cells[name]
		if !ok {
			t.Errorf("%s: no such scenario", name)
			continue
		}
		res := rollout.Run(sc, cc.MustNew("cubic"), rollout.Options{
			CollectSteps: true,
			TCP:          tcp.Options{DelAck: name == "delack"},
		})
		d := newFNV()
		d.f64(res.ThroughputBps)
		d.u64(uint64(res.AvgRTT))
		d.u64(uint64(res.AvgOWD))
		d.f64(res.LossRate)
		for _, iv := range res.Intervals {
			d.f64(iv.ThroughputBps)
			d.u64(uint64(iv.AvgRTT))
			d.u64(uint64(iv.LossPkts))
		}
		d.steps(res.Steps)
		if got := d.sum(); got != want {
			t.Errorf("%s (%s): digest = %s, want %s (thr %.2f Mb/s, loss %.4f)", name, sc.Name, got, want, res.ThroughputBps/1e6, res.LossRate)
		}
	}
}
