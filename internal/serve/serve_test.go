package serve_test

import (
	"math"
	"math/rand"
	"testing"

	"sage/internal/cc"
	"sage/internal/gr"
	"sage/internal/guard"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rl"
	"sage/internal/rollout"
	"sage/internal/serve"
	"sage/internal/sim"
	"sage/internal/tcp"
	"sage/internal/telemetry"
)

func testPolicy(seed int64) *nn.Policy {
	p := nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim, Enc: 32, Hidden: 24, ResBlocks: 2, K: 5, Seed: seed})
	rng := rand.New(rand.NewSource(seed + 31))
	var fit [][]float64
	for i := 0; i < 64; i++ {
		v := make([]float64, gr.StateDim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		fit = append(fit, v)
	}
	p.Norm = nn.FitNormalizer(fit)
	return p
}

func randState(rng *rand.Rand) []float64 {
	v := make([]float64, gr.StateDim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func testScenario(dur sim.Time) netem.Scenario {
	mrtt := 20 * sim.Millisecond
	return netem.Scenario{
		Name:       "serve",
		Rate:       netem.FlatRate(netem.Mbps(48)),
		MinRTT:     mrtt,
		QueueBytes: netem.BDPBytes(netem.Mbps(48), mrtt),
		Duration:   dur,
	}
}

// A RunMulti fleet served by one shared engine must behave bitwise
// identically to the same fleet where every flow owns a sequential
// rl.PolicyController: same cwnd at every sample, same throughput.
func TestEngineMatchesSequential(t *testing.T) {
	pol := testPolicy(5)
	const flows = 4
	sc := testScenario(8 * sim.Second)

	run := func(batched bool) []rollout.FlowResult {
		var eng *serve.Engine
		if batched {
			eng = serve.NewEngine(serve.Config{Policy: pol})
		}
		specs := make([]rollout.FlowSpec, flows)
		for i := range specs {
			var ctl rollout.Controller
			if batched {
				ctl = serve.NewController(eng)
			} else {
				ctl = rl.NewPolicyController(pol, nil, false, 0)
			}
			specs[i] = rollout.FlowSpec{
				Name:       "f",
				CC:         cc.MustNew("pure"),
				Controller: ctl,
				Start:      sim.Time(i) * 500 * sim.Millisecond,
			}
		}
		return rollout.RunMulti(sc, specs, rollout.MultiOptions{SamplePeriod: sim.Second})
	}

	seq := run(false)
	bat := run(true)
	for i := range seq {
		if seq[i].ThroughputBps != bat[i].ThroughputBps {
			t.Errorf("flow %d throughput: sequential %v, batched %v", i, seq[i].ThroughputBps, bat[i].ThroughputBps)
		}
		if len(seq[i].Series) != len(bat[i].Series) {
			t.Fatalf("flow %d series length %d vs %d", i, len(seq[i].Series), len(bat[i].Series))
		}
		for j := range seq[i].Series {
			if seq[i].Series[j].Cwnd != bat[i].Series[j].Cwnd {
				t.Fatalf("flow %d sample %d cwnd: sequential %v, batched %v",
					i, j, seq[i].Series[j].Cwnd, bat[i].Series[j].Cwnd)
			}
		}
	}
}

// newGuarded wraps a fresh per-flow serve controller in the runtime
// guardian, production-style: the guard keeps the flush path intact and a
// trip would reset only this flow's session.
func newGuarded(tb testing.TB, eng *serve.Engine) rollout.Controller {
	tb.Helper()
	return guard.NewBatched(serve.NewController(eng), guard.Config{})
}

// A guard-wrapped batching controller must keep the flush path intact:
// the fleet runs, decisions are served, and nothing trips on a healthy
// policy.
func TestGuardedBatchedFleet(t *testing.T) {
	pol := testPolicy(11)
	eng := serve.NewEngine(serve.Config{Policy: pol})
	sc := testScenario(4 * sim.Second)
	specs := []rollout.FlowSpec{
		{Name: "a", CC: cc.MustNew("pure"), Controller: newGuarded(t, eng), Start: 0},
		{Name: "b", CC: cc.MustNew("pure"), Controller: newGuarded(t, eng), Start: 0},
	}
	res := rollout.RunMulti(sc, specs, rollout.MultiOptions{})
	for i, r := range res {
		if r.ThroughputBps <= 0 {
			t.Errorf("flow %d moved no data through the guarded batched path", i)
		}
	}
}

// Sessions past the cap are LRU-evicted, and an evicted session's next
// use restarts from a fresh hidden state.
func TestSessionEviction(t *testing.T) {
	pol := testPolicy(7)
	reg := telemetry.NewRegistry()
	eng := serve.NewEngine(serve.Config{Policy: pol, MaxSessions: 4, Metrics: reg})
	rng := rand.New(rand.NewSource(3))

	conn := benchConn(t)
	const ids = 10
	for round := 0; round < 2; round++ {
		for id := uint64(1); id <= ids; id++ {
			eng.Enqueue(id, conn, randState(rng))
			eng.Flush(sim.Second)
		}
	}
	if got := eng.Sessions(); got > 4 {
		t.Errorf("resident sessions = %d, cap 4", got)
	}
	evicted := reg.Counter(serve.MetricSessEvicted).Value()
	if evicted < ids-4 {
		t.Errorf("evictions = %d, want >= %d", evicted, ids-4)
	}
	// Round 2 recreated evicted ids from scratch.
	opened := reg.Counter(serve.MetricSessOpened).Value()
	if opened <= ids {
		t.Errorf("sessions opened = %d, want > %d (evicted ids must be recreated)", opened, ids)
	}
}

// A non-finite observation is served as a safety no-op: ratio 1, hidden
// untouched, fallback counted — and other rows in the same batch are
// unaffected.
func TestFallbackIsolatesBatch(t *testing.T) {
	pol := testPolicy(13)
	reg := telemetry.NewRegistry()
	eng := serve.NewEngine(serve.Config{Policy: pol, Metrics: reg})
	rng := rand.New(rand.NewSource(9))

	good, bad := benchConn(t), benchConn(t)
	goodBefore, badBefore := good.Cwnd, bad.Cwnd

	poison := randState(rng)
	poison[3] = math.NaN()
	eng.Enqueue(1, good, randState(rng))
	eng.Enqueue(2, bad, poison)
	eng.Flush(sim.Second)

	if bad.Cwnd != math.Max(badBefore, 2) {
		t.Errorf("poisoned flow cwnd = %v, want unchanged %v", bad.Cwnd, badBefore)
	}
	if good.Cwnd == goodBefore {
		t.Errorf("healthy flow in the same batch got no decision (cwnd still %v)", good.Cwnd)
	}
	if got := reg.Counter(serve.MetricFallbacks).Value(); got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}
	if got := reg.Counter(serve.MetricDecisions).Value(); got != 2 {
		t.Errorf("decisions = %d, want 2", got)
	}
}

// One outstanding request per session: a second Decide for a session with
// one in flight reports ErrSessionBusy instead of racing the hidden state.
func TestSessionBusy(t *testing.T) {
	eng := serve.NewEngine(serve.Config{Policy: testPolicy(19), Workers: 1})
	hold := serve.HoldWorker(eng)
	eng.Start()
	defer eng.Close()

	// The worker is parked on session 1's decision, so session 1 is busy
	// for as long as the test says.
	winner := make(chan error, 1)
	go func() {
		_, _, err := eng.Decide(1, 10, randState(rand.New(rand.NewSource(21))))
		winner <- err
	}()
	<-hold.Held()
	if _, _, err := eng.Decide(1, 10, randState(rand.New(rand.NewSource(22)))); err != serve.ErrSessionBusy {
		t.Fatalf("second Decide on a busy session returned %v, want ErrSessionBusy", err)
	}
	hold.Release()
	if err := <-winner; err != nil {
		t.Fatalf("winner returned %v, want nil", err)
	}
	// Released: the session takes its next request.
	if _, _, err := eng.Decide(1, 10, randState(rand.New(rand.NewSource(23)))); err != nil {
		t.Fatalf("Decide after release: %v", err)
	}
}

// benchConn builds a standalone connection whose cwnd can be driven
// without running the simulation (an unstarted conn never transmits).
func benchConn(tb testing.TB) *tcp.Conn {
	tb.Helper()
	loop := sim.NewLoop()
	n := testScenario(sim.Second).Build(loop)
	f := tcp.NewFlow(loop, n, 1, cc.MustNew("pure"), tcp.Options{})
	return f.Conn
}
