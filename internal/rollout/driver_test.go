package rollout_test

import (
	"math/rand"
	"reflect"
	"testing"

	"sage/internal/cc"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rl"
	"sage/internal/rollout"
	"sage/internal/serve"
	"sage/internal/sim"
	"sage/internal/tcp"
	"sage/internal/telemetry"
)

// flushCounter is a batching controller that sets its flow's cwnd to 10+k
// at its k-th flush.
type flushCounter struct {
	conn *tcp.Conn
	k    int
}

func (c *flushCounter) Control(_ sim.Time, conn *tcp.Conn, _ []float64) { c.conn = conn }

func (c *flushCounter) FlushBatch(now sim.Time) {
	c.k++
	c.conn.SetCwnd(float64(10 + c.k))
	c.conn.Kick(now)
}

// A flow's trace sample of an interval reads its cwnd after the interval's
// flush has applied the batched decision, in Run and in RunMulti alike.
func TestTraceReadsAfterFlush(t *testing.T) {
	sc := netem.Scenario{
		Name:       "flush-trace",
		Rate:       netem.FlatRate(netem.Mbps(24)),
		MinRTT:     20 * sim.Millisecond,
		QueueBytes: 1 << 20,
		Duration:   sim.Second,
	}
	for _, c := range []struct {
		name string
		run  func(rollout.Controller, *telemetry.FlowTrace)
	}{
		{"Run", func(ctl rollout.Controller, tr *telemetry.FlowTrace) {
			rollout.Run(sc, cc.MustNew("pure"), rollout.Options{Controller: ctl, Trace: tr})
		}},
		{"RunMulti", func(ctl rollout.Controller, tr *telemetry.FlowTrace) {
			specs := []rollout.FlowSpec{{Name: "ctl", CC: cc.MustNew("pure"), Controller: ctl}}
			rollout.RunMulti(sc, specs, rollout.MultiOptions{Trace: tr})
		}},
	} {
		ctl, tr := &flushCounter{}, telemetry.NewFlowTrace(0)
		c.run(ctl, tr)
		samples := tr.Samples()
		if len(samples) == 0 || len(samples) != ctl.k {
			t.Fatalf("%s: %d trace samples over %d flushes", c.name, len(samples), ctl.k)
		}
		for i, s := range samples {
			if want := float64(10 + i + 1); s.Cwnd != want {
				t.Fatalf("%s: trace sample %d reads cwnd %v, want %v as set by flush %d", c.name, i+1, s.Cwnd, want, i+1)
			}
		}
	}
}

// Run's flush branch: a policy served through a batching engine must give
// the same Result, bit for bit, as the same policy acting inline.
func TestRunBatchedMatchesInline(t *testing.T) {
	pol := nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim, Seed: 2})
	rng := rand.New(rand.NewSource(2))
	samples := make([][]float64, 64)
	for i := range samples {
		samples[i] = make([]float64, gr.StateDim)
		for j := range samples[i] {
			samples[i][j] = rng.NormFloat64()
		}
	}
	pol.Norm = nn.FitNormalizer(samples)

	setI := netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: 2 * sim.Second, Seed: 1})
	cells := []netem.Scenario{setI[0]}
	for _, sc := range netem.SetII(netem.SetIIOptions{Level: netem.GridTiny, Duration: 3 * sim.Second, Seed: 1}) {
		if sc.CubicFlows == 1 {
			cells = append(cells, sc)
			break
		}
	}
	if len(cells) != 2 {
		t.Fatal("no Set II cell with one Cubic flow")
	}
	for _, sc := range cells {
		run := func(ctl rollout.Controller) rollout.Result {
			return rollout.Run(sc, cc.MustNew("pure"), rollout.Options{
				Controller:   ctl,
				CollectSteps: true,
				SamplePeriod: 100 * sim.Millisecond,
			})
		}
		inline := run(rl.NewPolicyController(pol, nil, false, 0))
		batched := run(serve.NewController(serve.NewEngine(serve.Config{Policy: pol})))
		if len(inline.Steps) == 0 || len(inline.Series) == 0 {
			t.Fatalf("%s: %d steps, %d samples", sc.Name, len(inline.Steps), len(inline.Series))
		}
		if !reflect.DeepEqual(inline, batched) {
			t.Errorf("%s: batched result differs from inline (throughput %v vs %v, loss %v vs %v)",
				sc.Name, batched.ThroughputBps, inline.ThroughputBps, batched.LossRate, inline.LossRate)
		}
	}
}
