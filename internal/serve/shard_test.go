package serve

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"sage/internal/cc"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rl"
	"sage/internal/sim"
	"sage/internal/tcp"
	"sage/internal/telemetry"
)

func shardPolicy(seed int64, hidden int) *nn.Policy {
	p := nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim, Enc: 32, Hidden: hidden, ResBlocks: 2, K: 5, Seed: seed})
	rng := rand.New(rand.NewSource(seed + 31))
	fit := make([][]float64, 64)
	for i := range fit {
		fit[i] = shardState(rng)
	}
	p.Norm = nn.FitNormalizer(fit)
	return p
}

func shardState(rng *rand.Rand) []float64 {
	v := make([]float64, gr.StateDim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// shardConns builds n unstarted connections on one network: their windows
// move only when a Flush sets them.
func shardConns(n int) []*tcp.Conn {
	loop := sim.NewLoop()
	rate := netem.Mbps(48)
	net := netem.Scenario{Rate: netem.FlatRate(rate), MinRTT: 20 * sim.Millisecond, QueueBytes: netem.BDPBytes(rate, 20*sim.Millisecond), Duration: sim.Second}.Build(loop)
	conns := make([]*tcp.Conn, n)
	for i := range conns {
		conns[i] = tcp.NewFlow(loop, net, i+1, cc.MustNew("pure"), tcp.Options{}).Conn
	}
	return conns
}

// oracleFlow is one flow decided row by row through rl.Stepper (the policy's
// BatchForward on one row), mirroring the engine's session rules: fallback
// rows keep their hidden state, decided states fill the re-prime window,
// Swap replays the window through the incoming model.
type oracleFlow struct {
	hidden   []float64
	window   [][]float64
	degraded bool
}

// TestFlushShardedMatchesSerial holds the synchronous Flush, at GOMAXPROCS 1,
// 2 and 3, to a per-row BatchForward oracle: every window, every hidden state
// and the decision/fallback counts bitwise, over four flushes with a hot Swap
// to a wider model before the third. Batch sizes run from one tile to past
// MaxBatch (300 = a 256-row chunk and a 44-row one), including sizes that are
// no multiple of the 16-row tile; every 29th row carries a NaN state and
// every 31st sits in a degraded session, marked after its row was gathered.
// The engine has one async worker: Workers does not limit Flush's helpers.
func TestFlushShardedMatchesSerial(t *testing.T) {
	for _, procs := range []int{1, 2, 3} {
		for _, n := range []int{16, 31, 32, 63, 64, 65, 95, 96, 100, 127, 128, 143, 192, 255, 256, 300} {
			t.Run(fmt.Sprintf("procs=%d/rows=%d", procs, n), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				checkShardedFlush(t, n)
			})
		}
	}
}

func checkShardedFlush(t *testing.T, n int) {
	pols := []*nn.Policy{shardPolicy(int64(n), 24), shardPolicy(int64(n)+1, 32)}
	reg := telemetry.NewRegistry()
	eng := NewEngine(Config{Policy: pols[0], Workers: 1, MaxSessions: n + 1, Metrics: reg})
	conns := shardConns(n)
	flows := make([]oracleFlow, n)
	for i := range flows {
		flows[i].hidden = pols[0].InitHidden()
	}
	mask := gr.MaskFull()
	rng := rand.New(rand.NewSource(int64(7 * n)))
	var decisions, fallbacks int64

	for step := 0; step < 4; step++ {
		pol := pols[0]
		if step >= 2 {
			pol = pols[1]
		}
		if step == 2 {
			if _, err := eng.Swap(pol, nil); err != nil {
				t.Fatal(err)
			}
			stepper := rl.Stepper{Policy: pol, Mask: mask}
			for i := range flows {
				f := &flows[i]
				f.hidden, f.degraded = pol.InitHidden(), false
				for _, st := range f.window {
					stepper.Step(st, f.hidden)
				}
			}
		}
		stepper := rl.Stepper{Policy: pol, Mask: mask}
		meanBuf := make([]float64, pol.GMM.K)
		want := make([]float64, n)
		for i := range flows {
			state := shardState(rng)
			if i%29 == 3 {
				state[5] = math.NaN()
			}
			id := uint64(i + 1)
			eng.Enqueue(id, conns[i], state)
			if i%31 == 17 && step != 2 {
				eng.mu.Lock()
				eng.sessions[id].degraded = true
				eng.mu.Unlock()
				flows[i].degraded = true
			}

			f := &flows[i]
			ratio := 1.0
			if !f.degraded && finiteVec(state) {
				h := append([]float64(nil), f.hidden...)
				u, r := rl.HeadAction(pol.GMM, stepper.Step(state, h), meanBuf, false, false, nil)
				if !math.IsNaN(u) && !math.IsNaN(r) && !math.IsInf(r, 0) {
					ratio = r
					f.hidden = h
					f.window = append(f.window, state)
					if len(f.window) > 8 {
						f.window = f.window[1:]
					}
				}
			}
			if ratio == 1 {
				fallbacks++
			}
			decisions++
			want[i] = tcp.ClampCwnd(conns[i].Cwnd*ratio, 2, 0)
		}
		eng.Flush(sim.Time(step+1) * 20 * sim.Millisecond)

		for i, f := range flows {
			if got := conns[i].Cwnd; math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("step %d row %d: cwnd %v, per-row oracle %v", step, i, got, want[i])
			}
			got := eng.sessions[uint64(i+1)].hidden
			for j := range f.hidden {
				if math.Float64bits(got[j]) != math.Float64bits(f.hidden[j]) {
					t.Fatalf("step %d row %d: hidden[%d] %v, per-row oracle %v", step, i, j, got[j], f.hidden[j])
				}
			}
		}
	}
	if got := reg.Counter(MetricDecisions).Value(); got != decisions {
		t.Errorf("decisions = %d, want %d", got, decisions)
	}
	if got := reg.Counter(MetricFallbacks).Value(); got != fallbacks {
		t.Errorf("fallbacks = %d, want %d", got, fallbacks)
	}
}

// TestFlushShardedLeaksNoGoroutines flushes a four-tile batch through 50
// engines that are then dropped without Close, as a RunMulti fleet drops
// its engine, and enqueues one through 50 more that are dropped mid-sweep,
// never flushed, as when a controller panics: no helper goroutine may
// outlive the tiles it found to forward.
func TestFlushShardedLeaksNoGoroutines(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	before := runtime.NumGoroutine()
	pol := shardPolicy(1, 24)
	conns := shardConns(64)
	rng := rand.New(rand.NewSource(1))
	for e := 0; e < 50; e++ {
		eng := NewEngine(Config{Policy: pol})
		for i, c := range conns {
			eng.Enqueue(uint64(i+1), c, shardState(rng))
		}
		eng.Flush(sim.Second)
		dropped := NewEngine(Config{Policy: pol})
		for i, c := range conns {
			dropped.Enqueue(uint64(i+1), c, shardState(rng))
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 50 flushed and 50 unflushed passes, %d before", runtime.NumGoroutine(), before)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestFlushShardPanicReachesCaller breaks the policy so every tile's
// forward panics: Flush must panic on its caller, and only after every
// claimed tile is done.
func TestFlushShardPanicReachesCaller(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	pol := shardPolicy(2, 24)
	pol.Norm.Mean = pol.Norm.Mean[:10] // BatchApply indexes past it on every row
	eng := NewEngine(Config{Policy: pol})
	rng := rand.New(rand.NewSource(1))
	for i, c := range shardConns(64) {
		eng.Enqueue(uint64(i+1), c, shardState(rng))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Flush over a broken policy did not panic")
			}
		}()
		eng.Flush(sim.Second)
	}()
	if left := eng.tiles.next.Load() - eng.tiles.done.Load(); left != 0 {
		t.Fatalf("Flush panicked with %d claimed tiles still running", left)
	}
}
