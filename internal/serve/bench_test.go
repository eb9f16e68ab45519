package serve_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sage/internal/cc"
	"sage/internal/gr"
	"sage/internal/nn"
	"sage/internal/rl"
	"sage/internal/serve"
	"sage/internal/sim"
	"sage/internal/tcp"
	"sage/internal/telemetry"
)

// benchFleet builds n standalone connections plus a per-flow random
// state sequence — everything both serving paths need for one control
// interval over the whole fleet.
type benchFleet struct {
	conns  []*tcp.Conn
	states [][]float64
}

// benchPolicy uses the production default architecture (Enc 64, Hidden
// 32, 2 res blocks, K 5) rather than the smaller test policy, so the
// scaling numbers reflect what a deployment serves.
func benchPolicy() *nn.Policy {
	p := nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim, Seed: 1})
	rng := rand.New(rand.NewSource(2))
	var fit [][]float64
	for i := 0; i < 64; i++ {
		fit = append(fit, randState(rng))
	}
	p.Norm = nn.FitNormalizer(fit)
	return p
}

func newBenchFleet(tb testing.TB, n int) *benchFleet {
	tb.Helper()
	loop := sim.NewLoop()
	net := testScenario(sim.Second).Build(loop)
	rng := rand.New(rand.NewSource(1))
	f := &benchFleet{}
	for i := 0; i < n; i++ {
		fl := tcp.NewFlow(loop, net, i+1, cc.MustNew("pure"), tcp.Options{})
		f.conns = append(f.conns, fl.Conn)
		f.states = append(f.states, randState(rng))
	}
	return f
}

// BenchmarkServe{10,64,95,100,1000}Flows vs BenchmarkSequential*Flows pins
// the engine's scaling claim: one interval of decisions for the whole fleet,
// batched through the shared engine versus run as N independent
// rl.PolicyController decisions — the same kernel at B = 1, so the gap is
// what the blocked and AVX2 tiers buy (≈ 2.3x at 1000 flows on one core),
// plus, from two tiles up, the helpers that forward tiles on every core
// GOMAXPROCS allows. The loop enqueues back to back, so it shows the tile
// balancing at Flush more than the overlap with a sweep.
func benchmarkServe(b *testing.B, flows int) {
	pol := benchPolicy()
	fleet := newBenchFleet(b, flows)
	eng := serve.NewEngine(serve.Config{Policy: pol, MaxBatch: 1024, MaxSessions: flows + 1})
	ctls := make([]*serve.Controller, flows)
	for i := range ctls {
		ctls[i] = serve.NewController(eng)
	}
	now := sim.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range ctls {
			c.Control(now, fleet.conns[j], fleet.states[j])
		}
		ctls[0].FlushBatch(now)
	}
}

func benchmarkSequential(b *testing.B, flows int) {
	pol := benchPolicy()
	fleet := newBenchFleet(b, flows)
	ctls := make([]*rl.PolicyController, flows)
	for i := range ctls {
		ctls[i] = rl.NewPolicyController(pol, nil, false, int64(i))
	}
	now := sim.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range ctls {
			c.Control(now, fleet.conns[j], fleet.states[j])
		}
	}
}

func BenchmarkServe10Flows(b *testing.B)        { benchmarkServe(b, 10) }
func BenchmarkServe64Flows(b *testing.B)        { benchmarkServe(b, 64) } // four full tiles
func BenchmarkServe95Flows(b *testing.B)        { benchmarkServe(b, 95) } // six tiles, the last partial
func BenchmarkServe100Flows(b *testing.B)       { benchmarkServe(b, 100) }
func BenchmarkServe1000Flows(b *testing.B)      { benchmarkServe(b, 1000) }
func BenchmarkSequential10Flows(b *testing.B)   { benchmarkSequential(b, 10) }
func BenchmarkSequential100Flows(b *testing.B)  { benchmarkSequential(b, 100) }
func BenchmarkSequential1000Flows(b *testing.B) { benchmarkSequential(b, 1000) }

// BenchmarkWireDecide is the wire path end to end at a range of
// concurrencies: a real Server and conns Clients on a unix socket, each
// client a closed loop on one session (its next decision leaves when the
// last reply arrives), engine at the daemon's defaults. Overload protection
// stays off so that a stall of the benchmark process cannot turn into
// brownout fallbacks. One op is one decision; besides ns/op it reports
// decisions/s, the median decision latency, and the mean batch size — how
// much batching the load produced by itself.
func BenchmarkWireDecide(b *testing.B) {
	for _, conns := range []int{1, 2, 8, 64, 256} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) { benchmarkWireDecide(b, conns) })
	}
}

func benchmarkWireDecide(b *testing.B, conns int) {
	reg := telemetry.NewRegistry()
	eng := serve.NewEngine(serve.Config{Policy: benchPolicy(), Metrics: reg})
	sock, stop := startServer(b, eng)
	defer stop()

	clients := make([]*serve.Client, conns)
	for i := range clients {
		var err error
		if clients[i], err = serve.Dial(sock); err != nil {
			b.Fatalf("dial: %v", err)
		}
		defer clients[i].Close()
	}

	// run drives every client in a closed loop until n decisions are done
	// in all, and returns each decision's latency.
	run := func(n int64) []time.Duration {
		var (
			next atomic.Int64
			wg   sync.WaitGroup
			lats = make([][]time.Duration, conns)
		)
		for i, cl := range clients {
			wg.Add(1)
			go func(i int, cl *serve.Client) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(i)))
				state, cwnd := randState(rng), 10.0
				for next.Add(1) <= n {
					t0 := time.Now()
					w, status, err := cl.Decide(uint64(i+1), cwnd, state)
					if err != nil || status != serve.StatusOK {
						b.Errorf("conn %d: status %d, err %v", i, status, err)
						return
					}
					lats[i] = append(lats[i], time.Since(t0))
					cwnd = w
				}
			}(i, cl)
		}
		wg.Wait()
		var all []time.Duration
		for _, l := range lats {
			all = append(all, l...)
		}
		return all
	}

	run(int64(16 * conns)) // sessions resident, re-prime rings full, scratch sized
	before := reg.Histogram(serve.MetricBatchSize).Summary()
	b.ResetTimer()
	lats := run(int64(b.N))
	b.StopTimer()
	after := reg.Histogram(serve.MetricBatchSize).Summary()

	if len(lats) == 0 {
		return // every client failed; b.Errorf has said why
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	b.ReportMetric(float64(len(lats))/b.Elapsed().Seconds(), "decisions/s")
	b.ReportMetric(float64(lats[len(lats)/2].Nanoseconds())/1e3, "p50-µs")
	b.ReportMetric((after.Sum-before.Sum)/float64(after.Count-before.Count), "rows/batch")
}
