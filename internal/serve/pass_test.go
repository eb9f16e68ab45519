package serve

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"sage/internal/alloctest"
	"sage/internal/gr"
	"sage/internal/nn"
	"sage/internal/rl"
	"sage/internal/sim"
	"sage/internal/tcp"
	"sage/internal/telemetry"
)

// passOracle decides a fleet the way Flush is specified to, one row at a
// time through rl.Stepper: each chunk of MaxBatch rows reads every row's
// latest state and its session's hidden state as they are when the chunk
// starts, then decides the rows in enqueue order.
type passOracle struct {
	pol                   *nn.Policy
	flows                 []oracleFlow
	states                [][]float64 // each flow's latest enqueued state
	cwnd                  []float64
	fellBack              []bool // each flow's last decision was a fallback
	pend                  []int  // flows in enqueue order
	decisions, fallbacks  int64
	maxBatch, maxInflight int
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

func newPassOracle(pol *nn.Policy, n, maxBatch, maxInflight int) *passOracle {
	o := &passOracle{pol: pol, flows: make([]oracleFlow, n), states: make([][]float64, n), cwnd: make([]float64, n),
		fellBack: make([]bool, n), maxBatch: maxBatch, maxInflight: maxInflight}
	for i := range o.flows {
		o.flows[i].hidden = pol.InitHidden()
	}
	return o
}

func (o *passOracle) swap(pol *nn.Policy) {
	o.pol = pol
	step := rl.Stepper{Policy: pol, Mask: gr.MaskFull()}
	for i := range o.flows {
		f := &o.flows[i]
		f.hidden, f.degraded = pol.InitHidden(), false
		for _, st := range f.window {
			step.Step(st, f.hidden)
		}
	}
}

func (o *passOracle) reset(i int) {
	f := &o.flows[i]
	f.hidden, f.window, f.degraded = make([]float64, len(f.hidden)), nil, false
}

func (o *passOracle) flush(brownout bool) {
	all, pend := o.pend, o.pend
	o.pend = nil
	if brownout {
		pend = nil
	} else if len(pend) > o.maxInflight {
		pend = pend[:o.maxInflight]
	}
	for _, i := range all[len(pend):] { // the cheap ratio-1.0 path
		o.cwnd[i] = tcp.ClampCwnd(o.cwnd[i], tcp.MinCwnd, 0)
	}
	step := rl.Stepper{Policy: o.pol, Mask: gr.MaskFull()}
	meanBuf := make([]float64, o.pol.GMM.K)
	for lo := 0; lo < len(pend); lo += o.maxBatch {
		chunk := pend[lo:min(lo+o.maxBatch, len(pend))]
		hidden := make([][]float64, len(chunk))
		for k, i := range chunk {
			hidden[k] = append([]float64(nil), o.flows[i].hidden...)
		}
		for k, i := range chunk {
			f, state := &o.flows[i], o.states[i]
			ratio, fellBack := 1.0, true
			if !f.degraded && finiteVec(state) {
				h := hidden[k]
				u, r := rl.HeadAction(o.pol.GMM, step.Step(state, h), meanBuf, false, false, nil)
				if !math.IsNaN(u) && !math.IsNaN(r) && !math.IsInf(r, 0) {
					ratio, fellBack = r, false
					f.hidden = append(f.hidden[:0], h...)
					f.window = append(f.window, state)
					if len(f.window) > 8 {
						f.window = f.window[1:]
					}
				}
			}
			if fellBack {
				o.fallbacks++
			}
			o.fellBack[i] = fellBack
			o.decisions++
			o.cwnd[i] = tcp.ClampCwnd(o.cwnd[i]*ratio, tcp.MinCwnd, 0)
		}
	}
}

// TestFlushPassMatchesSerial holds the synchronous pass — rows gathered by
// Enqueue, tiles forwarded by helpers during the sweep, the rest at Flush —
// to the per-row oracle, bit for bit, at whatever GOMAXPROCS the test runs
// under (CI: -cpu 1,2,4). Row counts run from one row to past MaxBatch,
// most of them no multiple of the 16-row tile. Each count runs three
// engines: the default MaxBatch; MaxBatch 40, so a pass is cut into
// chunks; and MaxInflight at two thirds of the rows plus one, so the
// learned path is cut inside a tile. Over six intervals, in the middle of
// the sweep: sessions are marked degraded after their row was gathered;
// sessions already gathered are reset; Swap moves to a model with a wider
// hidden state; the engine browns out; Swap moves to a model of the same
// width. In the last interval every 13th session is enqueued twice. Every
// 29th row has a NaN state.
func TestFlushPassMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 15, 16, 17, 33, 64, 95, 100, 129, 192, 255, 256, 257, 300} {
		for _, cut := range []string{"none", "maxbatch", "maxinflight"} {
			t.Run(fmt.Sprintf("rows=%d/cut=%s", n, cut), func(t *testing.T) {
				checkPass(t, n, cut)
			})
		}
	}
}

func checkPass(t *testing.T, n int, cut string) {
	pols := []*nn.Policy{shardPolicy(int64(n), 24), shardPolicy(int64(n)+1, 32), shardPolicy(int64(n)+2, 32)}
	cfg := Config{Policy: pols[0], Workers: 1, MaxSessions: n + 1, Metrics: telemetry.NewRegistry()}
	ov := OverloadConfig{EvalInterval: time.Hour}
	switch cut {
	case "maxbatch":
		cfg.MaxBatch = 40
	case "maxinflight":
		ov.MaxInflight = 2*n/3 + 1
	}
	cfg.Overload = &ov
	eng := NewEngine(cfg)
	o := newPassOracle(pols[0], n, eng.cfg.MaxBatch, eng.ov.cfg.MaxInflight)
	conns := shardConns(n)
	for i := range o.cwnd {
		o.cwnd[i] = conns[i].Cwnd
	}
	rng := rand.New(rand.NewSource(int64(11 * n)))
	enqueue := func(i int) {
		state := shardState(rng)
		if i%29 == 3 {
			state[5] = math.NaN()
		}
		eng.Enqueue(uint64(i+1), conns[i], state)
		o.states[i] = state
		o.pend = append(o.pend, i)
	}

	for step := 0; step < 6; step++ {
		forceMode(eng, ModeFull)
		brownout := false
		for i := 0; i < n; i++ {
			if i == n/2 {
				switch step {
				case 1:
					for j := 0; j < n; j += 7 {
						eng.ResetSession(uint64(j + 1))
						o.reset(j)
					}
				case 2, 4:
					if _, err := eng.Swap(pols[step/2], nil); err != nil {
						t.Fatal(err)
					}
					o.swap(pols[step/2])
				case 3:
					forceMode(eng, ModeDegraded)
					brownout = true
				}
			}
			enqueue(i)
			if step == 0 && i%31 == 17 {
				eng.mu.Lock()
				eng.sessions[uint64(i+1)].degraded = true
				eng.mu.Unlock()
				o.flows[i].degraded = true
			}
		}
		if step == 5 {
			for i := 5; i < n; i += 13 {
				enqueue(i)
			}
		}
		eng.Flush(sim.Time(step+1) * 20 * sim.Millisecond)
		o.flush(brownout)

		for i := range o.flows {
			if got, want := conns[i].Cwnd, o.cwnd[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d row %d: cwnd %v, per-row oracle %v", step, i, got, want)
			}
			checkHidden(t, step, i, eng.sessions[uint64(i+1)].hidden, o.flows[i].hidden)
		}
	}
	if got := eng.cfg.Metrics.Counter(MetricDecisions).Value(); got != o.decisions {
		t.Errorf("decisions = %d, want %d", got, o.decisions)
	}
	if got := eng.cfg.Metrics.Counter(MetricFallbacks).Value(); got != o.fallbacks {
		t.Errorf("fallbacks = %d, want %d", got, o.fallbacks)
	}
	if left := eng.tiles.next.Load() - eng.tiles.done.Load(); left != 0 {
		t.Errorf("%d claimed tiles still running after Flush", left)
	}
}

// checkHidden fails t unless row i's hidden state after step is the
// oracle's, bit for bit.
func checkHidden(t *testing.T, step, i int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d row %d: %d hidden values, per-row oracle %d", step, i, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("step %d row %d: hidden[%d] %v, per-row oracle %v", step, i, j, got[j], want[j])
		}
	}
}

// TestDecidePassMatchesSerial holds an async worker's pass to the per-row
// oracle, bit for bit: every reply's cwnd and fallback flag, and every
// session's hidden state. The engine's one worker is parked on flow 0's
// request while n more queue behind it in a fixed order; released, it
// drains them in passes of at most MaxBatch 40 rows, so 33 rows are one
// pass of three tiles and 64 are two passes. Every 29th state has a NaN and
// one session is pinned degraded. Two rounds run, so the second reads the
// hidden states the first wrote. The worker's pass must start no helper.
func TestDecidePassMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 15, 16, 17, 33, 64} {
		t.Run(fmt.Sprintf("queued=%d", n), func(t *testing.T) {
			checkDecidePass(t, n)
		})
	}
}

func checkDecidePass(t *testing.T, n int) {
	const maxBatch = 40
	pol := shardPolicy(int64(n), 24)
	reg := telemetry.NewRegistry()
	eng := NewEngine(Config{Policy: pol, Workers: 1, MaxBatch: maxBatch, Metrics: reg})
	eng.Start()
	defer eng.Close()
	o := newPassOracle(pol, n+1, maxBatch, n+1)
	pinned := n/2 + 1
	eng.mu.Lock()
	eng.sessionLocked(uint64(pinned + 1)).degraded = true
	eng.mu.Unlock()
	o.flows[pinned].degraded = true

	rng := rand.New(rand.NewSource(int64(13 * n)))
	cwnd := make([]float64, n+1)
	fellBack := make([]bool, n+1)
	var wg sync.WaitGroup
	decide := func(i int) {
		state := shardState(rng)
		if i%29 == 3 {
			state[5] = math.NaN()
		}
		o.states[i] = state
		o.cwnd[i] = float64(10 + i)
		o.pend = append(o.pend, i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			cwnd[i], fellBack[i], err = eng.Decide(uint64(i+1), float64(10+i), state)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	for round := 0; round < 2; round++ {
		hold := HoldWorker(eng)
		decide(0)
		<-hold.Held()
		o.flush(false)
		for i := 1; i <= n; i++ {
			decide(i)
			for deadline := time.Now().Add(5 * time.Second); eng.QueueLen() < i; runtime.Gosched() {
				if time.Now().After(deadline) {
					hold.Release() // or the deferred Close waits for the parked worker
					t.Fatalf("round %d: only %d of %d requests queued", round, eng.QueueLen(), i)
				}
			}
		}
		hold.Release()
		wg.Wait()
		o.flush(false)

		for i := 0; i <= n; i++ {
			if got, want := cwnd[i], o.cwnd[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d row %d: cwnd %v, per-row oracle %v", round, i, got, want)
			}
			if fellBack[i] != o.fellBack[i] {
				t.Fatalf("round %d row %d: fallback %v, per-row oracle %v", round, i, fellBack[i], o.fellBack[i])
			}
			checkHidden(t, round, i, eng.sessions[uint64(i+1)].hidden, o.flows[i].hidden)
		}
	}
	eng.Close() // the worker counts a pass after its last reply
	if got, want := reg.Counter(MetricBatches).Value(), int64(2*(1+(n+maxBatch-1)/maxBatch)); got != want {
		t.Errorf("%d passes, want %d: the held one and %d queued rows in passes of %d", got, want, n, maxBatch)
	}
	if got, want := reg.Counter(MetricDecisions).Value(), o.decisions; got != want {
		t.Errorf("decisions = %d, want %d", got, want)
	}
	if got, want := reg.Counter(MetricFallbacks).Value(), o.fallbacks; got != want {
		t.Errorf("fallbacks = %d, want %d", got, want)
	}
	if h := len(eng.passes[0].helpers); h != 0 {
		t.Errorf("the worker's pass started %d helpers, want none", h)
	}
}

// TestFlushPassPanicDuringSweep breaks the policy so every tile's forward
// panics, and waits until a helper has panicked during the sweep, before
// any Flush: the next Flush must panic on its caller, and only after every
// claimed tile is done. The engine then serves a good model again.
func TestFlushPassPanicDuringSweep(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	pol := shardPolicy(3, 24)
	pol.Norm.Mean = pol.Norm.Mean[:10] // BatchApply indexes past it on every row
	eng := NewEngine(Config{Policy: pol})
	conns := shardConns(64)
	rng := rand.New(rand.NewSource(1))
	for i, c := range conns {
		eng.Enqueue(uint64(i+1), c, shardState(rng))
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.tiles.panicked.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("no helper forwarded a tile during the sweep")
		}
		time.Sleep(time.Millisecond)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Flush after a helper's panic did not panic")
			}
			if left := eng.tiles.next.Load() - eng.tiles.done.Load(); left != 0 {
				t.Fatalf("Flush panicked with %d claimed tiles still running", left)
			}
		}()
		eng.Flush(sim.Second)
	}()

	if _, err := eng.Swap(shardPolicy(3, 24), nil); err != nil {
		t.Fatal(err)
	}
	before := conns[0].Cwnd
	for i, c := range conns {
		eng.Enqueue(uint64(i+1), c, shardState(rng))
	}
	eng.Flush(2 * sim.Second)
	if conns[0].Cwnd == before {
		t.Fatalf("cwnd %v unchanged after a Flush with a good model", before)
	}
}

// TestTileScratchAllocatesAlike pins what a pass allocates to the rows it
// forwards, not to which tile its scratch takes first: engines whose first
// pass is one row, nine rows (its hidden rows straddle a tile) or a whole
// tile, each followed by a pass of two whole tiles over the same 32
// sessions, allocate the same objects and bytes. A tile scratch grown
// lazily by its first tile failed this; sim_fleet's helper takes whichever
// tile is left, and its byte count moved between runs of one commit.
func TestTileScratchAllocatesAlike(t *testing.T) {
	pol := shardPolicy(7, 32)
	rng := rand.New(rand.NewSource(7))
	states := make([][]float64, 2*nn.TileRows)
	for i := range states {
		states[i] = shardState(rng)
	}
	var want alloctest.Count
	for k, first := range []int{1, 9, nn.TileRows} {
		conns := shardConns(len(states))
		eng := NewEngine(Config{Policy: pol, Workers: 1, MaxSessions: len(states) + 1, Metrics: telemetry.NewRegistry()})
		got := alloctest.Measure(func() {
			for i := 0; i < first; i++ {
				eng.Enqueue(uint64(i+1), conns[i], states[i])
			}
			eng.Flush(20 * sim.Millisecond)
			for i := range states {
				eng.Enqueue(uint64(i+1), conns[i], states[i])
			}
			eng.Flush(40 * sim.Millisecond)
		})
		if k == 0 {
			want = got
		} else if got != want {
			t.Errorf("first pass of %d rows: %d objects, %d bytes; first pass of one row: %d objects, %d bytes", first, got.Mallocs, got.Bytes, want.Mallocs, want.Bytes)
		}
	}
}
