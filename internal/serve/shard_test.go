package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"sage/internal/cc"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/sim"
	"sage/internal/tcp"
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

// TestFlushShardedMatchesSerial runs checkPass's engine without a cut at
// GOMAXPROCS 1, 2 and 3, whatever -cpu the binary runs under: row counts from
// one tile to past MaxBatch, most of them no multiple of the 16-row tile.
// The engine has one async worker: Workers does not limit Flush's helpers.
func TestFlushShardedMatchesSerial(t *testing.T) {
	for _, procs := range []int{1, 2, 3} {
		for _, n := range []int{16, 31, 32, 63, 64, 65, 95, 96, 100, 127, 128, 143, 192, 255, 256, 300} {
			t.Run(fmt.Sprintf("procs=%d/rows=%d", procs, n), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				checkPass(t, n, "none")
			})
		}
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
