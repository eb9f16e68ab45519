package gr

import (
	"math"
	"math/rand"
	"testing"

	"sage/internal/cc"
	"sage/internal/netem"
	"sage/internal/sim"
	"sage/internal/tcp"
)

// series is the per-signal ring windows replaced: the oracle for windows,
// kept as it was. Its stats scans the window newest to oldest.
type series struct {
	buf   []float64
	next  int
	count int
}

func newSeries(capacity int) *series {
	if capacity < 1 {
		capacity = 1
	}
	return &series{buf: make([]float64, capacity)}
}

func (s *series) push(v float64) {
	s.buf[s.next] = v
	s.next = (s.next + 1) % len(s.buf)
	if s.count < len(s.buf) {
		s.count++
	}
}

// stats returns (avg, min, max) over the trailing k samples (or all samples
// if fewer have been observed). With no samples it returns zeros.
func (s *series) stats(k int) (avg, min, max float64) {
	n := k
	if n > s.count {
		n = s.count
	}
	if n == 0 {
		return 0, 0, 0
	}
	i := s.next - 1
	if i < 0 {
		i += len(s.buf)
	}
	sum := 0.0
	min = s.buf[i]
	max = s.buf[i]
	for j := 0; j < n; j++ {
		v := s.buf[i]
		sum += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		i--
		if i < 0 {
			i += len(s.buf)
		}
	}
	return sum / float64(n), min, max
}

// seriesStats is what Monitor.Tick appended from six series.
func seriesStats(ss []*series, k [3]int) []float64 {
	var out []float64
	for _, s := range ss {
		for _, w := range k {
			avg, min, max := s.stats(w)
			out = append(out, avg, min, max)
		}
	}
	return out
}

// TestWindowStatsMatchesSeries holds the one-pass windows to six series,
// bit for bit, after every push: ±0, NaN as the newest sample and as an older
// one, ±Inf and heavy ties in the samples; uniform windows of 1, 3 and
// blockLen+1, windows out of order (Small > Medium), and Large shorter than,
// equal to and not a multiple of a block; counts below, at and past every
// window.
func TestWindowStatsMatchesSeries(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 2.5}
	configs := [][3]int{
		{10, 200, 1000}, // the defaults
		{1, 1, 1},
		{3, 3, 3},
		{blockLen + 1, blockLen + 1, blockLen + 1},
		{50, 7, 130},                               // Small > Medium
		{blockLen, 2 * blockLen, 4*blockLen - 1},   // Large not a multiple of a block
		{blockLen - 1, blockLen - 1, blockLen - 1}, // Large shorter than a block
		{2 * blockLen, blockLen, 2 * blockLen},     // Large a multiple of a block
		{3*blockLen + 2, 3*blockLen + 2, blockLen}, // windows longer than the ring
		{0, 5, 61}, // an empty window
		{blockLen + 3, 2*blockLen + 7, 5*blockLen + 11},
	}
	rng := rand.New(rand.NewSource(26))
	for _, k := range configs {
		for trial := 0; trial < 4; trial++ {
			w := newWindows(k[2])
			ss := make([]*series, numSignals)
			for s := range ss {
				ss[s] = newSeries(k[2])
			}
			if got, want := w.appendStats(nil, k), seriesStats(ss, k); !sameBits(got, want) {
				t.Fatalf("windows %v before any push: %v, want %v", k, got, want)
			}
			pushes := 3*max(k[0], k[1], k[2]) + 2*blockLen
			for p := 0; p < pushes; p++ {
				var row [numSignals]float64
				for s := range row {
					switch trial {
					case 0: // mostly specials: ±0 ties, NaN anywhere, ±Inf
						if rng.Intn(3) > 0 {
							row[s] = special[rng.Intn(len(special))]
						} else {
							row[s] = rng.NormFloat64()
						}
					case 1: // a few distinct values: ties everywhere
						row[s] = float64(rng.Intn(4)) - 1.5
					case 2: // ±0 at the extreme: which zero is kept is a tie rule
						row[s] = []float64{0, math.Copysign(0, -1), 1, math.NaN()}[rng.Intn(4)]
						if s >= numSignals/2 {
							row[s] = -row[s]
						}
					default: // rare NaN and ±0 among ordinary values
						row[s] = rng.NormFloat64() * 1e3
						if rng.Intn(40) == 0 {
							row[s] = math.NaN()
						} else if rng.Intn(20) == 0 {
							row[s] = math.Copysign(0, float64(rng.Intn(2)*2-1))
						}
					}
				}
				w.push(row)
				for s, v := range row {
					ss[s].push(v)
				}
				if got, want := w.appendStats(nil, k), seriesStats(ss, k); !sameBits(got, want) {
					t.Fatalf("windows %v, trial %d, after %d pushes:\n got %v\nwant %v", k, trial, p+1, got, want)
				}
			}
		}
	}
}

// TestWindowStatsNewestNaN pins the NaN rules directly: a NaN newest sample
// makes min, max and avg NaN; an older NaN poisons only the avg.
func TestWindowStatsNewestNaN(t *testing.T) {
	w := newWindows(4 * blockLen)
	for i := 0; i < 3*blockLen; i++ {
		w.push([numSignals]float64{float64(i), math.NaN(), 0, 0, 0, 0})
	}
	w.push([numSignals]float64{math.NaN(), 1, 0, 0, 0, 0})
	got := w.appendStats(nil, [3]int{1, blockLen, 4 * blockLen})
	for i := 0; i < 9; i++ { // signal 0: newest NaN
		if !math.IsNaN(got[i]) {
			t.Fatalf("signal 0 stat %d = %v, want NaN", i, got[i])
		}
	}
	// Signal 1: newest 1, every older sample NaN.
	if want := []float64{1, 1, 1}; !sameBits(got[9:12], want) {
		t.Fatalf("signal 1 over 1 sample = %v, want %v", got[9:12], want)
	}
	if avg, mn, mx := got[15], got[16], got[17]; !math.IsNaN(avg) || mn != 1 || mx != 1 {
		t.Fatalf("signal 1 over all = %v %v %v, want NaN 1 1", avg, mn, mx)
	}
}

// sameBits reports whether a and b hold the same bits, except that any NaN
// matches any NaN. Go leaves NaN payloads unspecified, and the compiler may
// commute the operands of +, so when two NaNs with different payloads meet
// in a sum, which payload survives depends on the compilation, not the code.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// newTickMonitor runs a Cubic flow with a monitor for long enough that
// every window is full.
func newTickMonitor(tb testing.TB) (*Monitor, *sim.Loop) {
	tb.Helper()
	loop := sim.NewLoop()
	rate := netem.FlatRate(netem.Mbps(24))
	mrtt := 20 * sim.Millisecond
	n := netem.New(loop, netem.Config{Rate: rate, MinRTT: mrtt, Queue: netem.NewDropTail(netem.BDPBytes(rate.At(0), mrtt))})
	fl := tcp.NewFlow(loop, n, 1, cc.MustNew("cubic"), tcp.Options{})
	mon := NewMonitor(Config{}, fl.Conn, RewardContext{Kind: RewardSingleFlow, Capacity: rate.At, MinRTT: mrtt})
	fl.Conn.Start(0)
	for i := 0; i <= mon.Config().Large; i++ {
		loop.RunUntil(loop.Now() + mon.Config().Interval)
		mon.Tick(loop.Now())
	}
	return mon, loop
}

// tickSink keeps Tick's result alive: a discarded Step could live on the
// stack once Tick inlines, and the pin would read 0.
var tickSink Step

// TestMonitorTickAllocatesOnlyTheState pins Monitor.Tick at one allocation:
// the state it returns, which the caller keeps.
func TestMonitorTickAllocatesOnlyTheState(t *testing.T) {
	mon, loop := newTickMonitor(t)
	allocs := testing.AllocsPerRun(200, func() {
		loop.RunUntil(loop.Now() + mon.Config().Interval)
		tickSink = mon.Tick(loop.Now())
	})
	if allocs != 1 {
		t.Fatalf("Monitor.Tick allocates %v times per tick, want 1 (the state)", allocs)
	}
}

// TestMonitorTickIntoAllocatesNothing pins Monitor.TickInto at no allocation
// when the caller reuses one buffer for every tick.
func TestMonitorTickIntoAllocatesNothing(t *testing.T) {
	mon, loop := newTickMonitor(t)
	var buf [StateDim]float64
	allocs := testing.AllocsPerRun(200, func() {
		loop.RunUntil(loop.Now() + mon.Config().Interval)
		tickSink = mon.TickInto(loop.Now(), buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("Monitor.TickInto allocates %v times per tick into a reused buffer, want 0", allocs)
	}
	if &tickSink.State[0] != &buf[0] || len(tickSink.State) != StateDim {
		t.Fatal("TickInto did not build the state in the buffer it was given")
	}
}

// Two monitors on identical connections, one ticked by Tick and one by
// TickInto into a reused buffer (and, every third tick, into one too small,
// which append grows), produce the same Steps bit for bit.
func TestMonitorTickIntoMatchesTick(t *testing.T) {
	a, loopA := newTickMonitor(t)
	b, loopB := newTickMonitor(t)
	var buf [StateDim]float64
	var small [StateDim / 2]float64
	for i := 0; i < 300; i++ {
		now := loopA.Now() + a.Config().Interval
		loopA.RunUntil(now)
		loopB.RunUntil(now)
		dst := buf[:0]
		if i%3 == 0 {
			dst = small[:0]
		}
		want, got := a.Tick(now), b.TickInto(now, dst)
		if math.Float64bits(got.Action) != math.Float64bits(want.Action) ||
			math.Float64bits(got.Reward) != math.Float64bits(want.Reward) ||
			len(got.State) != len(want.State) {
			t.Fatalf("tick %d: TickInto %+v, Tick %+v", i, got, want)
		}
		for j := range want.State {
			if math.Float64bits(got.State[j]) != math.Float64bits(want.State[j]) {
				t.Fatalf("tick %d: state[%d] = %v via TickInto, %v via Tick", i, j, got.State[j], want.State[j])
			}
		}
	}
}

// BenchmarkMonitorTick is the GR unit's cost per tick with every window
// full, the simulation between ticks excluded.
func BenchmarkMonitorTick(b *testing.B) {
	mon, loop := newTickMonitor(b)
	now := loop.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += mon.Config().Interval
		tickSink = mon.Tick(now)
	}
}

// BenchmarkMonitorTickInto is BenchmarkMonitorTick with the state written
// into one reused buffer, as the rollout driver ticks a flow it does not
// record.
func BenchmarkMonitorTickInto(b *testing.B) {
	mon, loop := newTickMonitor(b)
	now := loop.Now()
	var buf [StateDim]float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += mon.Config().Interval
		tickSink = mon.TickInto(now, buf[:0])
	}
}

// A monitor built after another has been released takes its windows, and
// must read none of its samples: its states, from the first tick on, are
// those of a monitor whose windows were never used. A monitor used after
// Release panics.
func TestMonitorAfterReleaseStartsEmpty(t *testing.T) {
	run := func() (*Monitor, [][]float64) {
		loop := sim.NewLoop()
		rate, mrtt := netem.FlatRate(netem.Mbps(24)), 20*sim.Millisecond
		n := netem.New(loop, netem.Config{Rate: rate, MinRTT: mrtt})
		fl := tcp.NewFlow(loop, n, 1, cc.MustNew("cubic"), tcp.Options{})
		mon := NewMonitor(Config{}, fl.Conn, RewardContext{Kind: RewardSingleFlow, Capacity: rate.At, MinRTT: mrtt})
		fl.Conn.Start(0)
		var states [][]float64
		for i := 0; i <= mon.Config().Large; i++ {
			loop.RunUntil(loop.Now() + mon.Config().Interval)
			states = append(states, mon.Tick(loop.Now()).State)
		}
		mon.Release()
		return mon, states
	}
	sim.EmptyPools()
	_, fresh := run()
	mon, again := run() // over the windows the first monitor released
	for i := range fresh {
		for j := range fresh[i] {
			if math.Float64bits(fresh[i][j]) != math.Float64bits(again[i][j]) {
				t.Fatalf("tick %d, state[%d]: %v after a release, %v fresh", i, j, again[i][j], fresh[i][j])
			}
		}
	}
	defer func() {
		if r := recover(); r != "gr: monitor used after Release" {
			t.Errorf("Tick after Release: recovered %v, want the used-after-Release panic", r)
		}
	}()
	mon.Tick(sim.Second)
}
