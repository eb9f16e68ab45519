package serve_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sage/internal/cc"
	"sage/internal/chaos"
	"sage/internal/golden"
	"sage/internal/gr"
	"sage/internal/guard"
	"sage/internal/nn"
	"sage/internal/rl"
	"sage/internal/serve"
	"sage/internal/sim"
	"sage/internal/tcp"
	"sage/internal/telemetry"
)

// testPolicyWide is a second architecture (different GRU width) so swap
// tests exercise the cross-model scratch-buffer rebuild, not just a
// weight refresh.
func testPolicyWide(seed int64) *nn.Policy {
	p := nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim, Enc: 24, Hidden: 32, ResBlocks: 1, K: 3, Seed: seed})
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

// After a swap, a brand-new session must behave bitwise identically to
// the same session on a fresh engine built around the new model: the old
// model leaves no residue in scratch buffers or config.
func TestSwapMatchesFreshEngine(t *testing.T) {
	pol1, pol2 := testPolicy(41), testPolicyWide(43)

	swapped := serve.NewEngine(serve.Config{Policy: pol1, BatchDeadline: time.Millisecond})
	swapped.Start()
	defer swapped.Close()
	fresh := serve.NewEngine(serve.Config{Policy: pol2, BatchDeadline: time.Millisecond})
	fresh.Start()
	defer fresh.Close()

	// Give the swapped engine history under the old model first.
	rng := rand.New(rand.NewSource(1))
	warm := swapped.NewSessionID()
	for i := 0; i < 6; i++ {
		if _, _, err := swapped.Decide(warm, 100, randState(rng)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := swapped.Swap(pol2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != 1 || stats.Reprimed != 1 {
		t.Fatalf("swap stats = %+v, want 1 session reprimed", stats)
	}

	seq := rand.New(rand.NewSource(7))
	states := make([][]float64, 10)
	for i := range states {
		states[i] = randState(seq)
	}
	sa, sb := swapped.NewSessionID(), fresh.NewSessionID()
	for i, st := range states {
		got, gf, err1 := swapped.Decide(sa, 100, st)
		want, wf, err2 := fresh.Decide(sb, 100, st)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if got != want || gf != wf {
			t.Fatalf("step %d: swapped engine cwnd=%v (fallback=%v), fresh engine cwnd=%v (fallback=%v)",
				i, got, gf, want, wf)
		}
	}
}

// A live session's hidden state is migrated by replaying its recent trace
// window through the new model, so its post-swap decisions are bitwise
// identical to a session that ran those same observations on the new
// model from the start.
func TestSwapReprimesFromTraceWindow(t *testing.T) {
	pol1, pol2 := testPolicy(51), testPolicyWide(53)

	migrated := serve.NewEngine(serve.Config{Policy: pol1, BatchDeadline: time.Millisecond, ReprimeWindow: 8})
	migrated.Start()
	defer migrated.Close()
	reference := serve.NewEngine(serve.Config{Policy: pol2, BatchDeadline: time.Millisecond, ReprimeWindow: 8})
	reference.Start()
	defer reference.Close()

	rng := rand.New(rand.NewSource(5))
	history := make([][]float64, 5) // < ReprimeWindow: the full history replays
	for i := range history {
		history[i] = randState(rng)
	}
	next := randState(rng)

	ma, rb := migrated.NewSessionID(), reference.NewSessionID()
	for _, st := range history {
		if _, _, err := migrated.Decide(ma, 100, st); err != nil {
			t.Fatal(err)
		}
		if _, _, err := reference.Decide(rb, 100, st); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := migrated.Swap(pol2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reprimed != 1 || stats.Degraded != 0 {
		t.Fatalf("swap stats = %+v, want the one session reprimed", stats)
	}

	got, _, err1 := migrated.Decide(ma, 100, next)
	want, _, err2 := reference.Decide(rb, 100, next)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if got != want {
		t.Fatalf("post-swap decision %v != reference %v: re-primed hidden state diverges from replaying the window", got, want)
	}
}

// Re-priming through a broken model must not poison the flow: the session
// is pinned to fallback decisions, reported Degraded, and a ResetSession
// (guard re-admission) clears the pin.
func TestSwapDegradedSessionPinsToFallback(t *testing.T) {
	pol := testPolicy(61)
	bad := testPolicy(62)
	chaos.PoisonPolicy(bad) // every weight NaN: any re-prime goes non-finite

	reg := telemetry.NewRegistry()
	eng := serve.NewEngine(serve.Config{Policy: pol, BatchDeadline: time.Millisecond, Metrics: reg})
	eng.Start()
	defer eng.Close()

	rng := rand.New(rand.NewSource(9))
	sid := eng.NewSessionID()
	for i := 0; i < 4; i++ {
		if _, _, err := eng.Decide(sid, 100, randState(rng)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := eng.Swap(bad, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Degraded != 1 {
		t.Fatalf("swap stats = %+v, want the session degraded", stats)
	}
	if !eng.SessionDegraded(sid) {
		t.Fatal("session not marked degraded after non-finite re-prime")
	}
	if got := reg.Counter(serve.MetricSwapDegrade).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", serve.MetricSwapDegrade, got)
	}

	newCwnd, fallback, err := eng.Decide(sid, 100, randState(rng))
	if err != nil {
		t.Fatal(err)
	}
	if !fallback || newCwnd != 100 {
		t.Fatalf("degraded session decision = (%v, fallback=%v), want the ratio-1 no-op", newCwnd, fallback)
	}

	eng.ResetSession(sid)
	if eng.SessionDegraded(sid) {
		t.Fatal("ResetSession did not clear the degraded pin")
	}
}

// A swap in the middle of heavy async traffic drops nothing: every Decide
// issued before, during, and after the swap gets a decision, and every
// session survives.
func TestSwapMidTrafficDropsNothing(t *testing.T) {
	pol1, pol2 := testPolicy(71), testPolicyWide(73)
	reg := telemetry.NewRegistry()
	eng := serve.NewEngine(serve.Config{
		Policy:        pol1,
		MaxBatch:      32,
		BatchDeadline: 50 * time.Microsecond,
		Workers:       2,
		Metrics:       reg,
	})
	eng.Start()
	defer eng.Close()

	const flows, calls = 8, 200
	var wg sync.WaitGroup
	errs := make([]error, flows)
	for f := 0; f < flows; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(f)))
			sid := eng.NewSessionID()
			for i := 0; i < calls; i++ {
				if _, _, err := eng.Decide(sid, 50, randState(rng)); err != nil {
					errs[f] = err
					return
				}
			}
		}(f)
	}
	for i, p := range []*nn.Policy{pol2, pol1, pol2} {
		time.Sleep(2 * time.Millisecond)
		if _, err := eng.Swap(p, nil); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	wg.Wait()
	for f, err := range errs {
		if err != nil {
			t.Fatalf("flow %d: %v", f, err)
		}
	}
	if got := reg.Counter(serve.MetricDecisions).Value(); got != flows*calls {
		t.Fatalf("decisions = %d, want %d (swap dropped requests)", got, flows*calls)
	}
	if got := eng.Sessions(); got != flows {
		t.Fatalf("sessions = %d, want %d (swap dropped sessions)", got, flows)
	}
	if got := reg.Counter(serve.MetricSwaps).Value(); got != 3 {
		t.Fatalf("%s = %d, want 3", serve.MetricSwaps, got)
	}
}

// A guard-tripped flow whose trip came from a failed hot-swap re-prime
// must be re-admitted against the *new* incumbent, not stale hidden
// state: after probation the guardian resets the session and the next
// decision is bitwise what the new model produces from a fresh hidden
// state.
func TestGuardRestoreAfterSwapUsesNewModel(t *testing.T) {
	pol1 := testPolicy(81)
	broken := testPolicy(82)
	chaos.PoisonPolicy(broken)
	pol3 := testPolicyWide(83) // the healthy new incumbent

	reg := telemetry.NewRegistry()
	eng := serve.NewEngine(serve.Config{Policy: pol1, Metrics: reg})
	ctl := serve.NewController(eng)
	g := guard.NewBatched(ctl, guard.Config{Metrics: reg})

	loop := sim.NewLoop()
	n := testScenario(sim.Second).Build(loop)
	fl := tcp.NewFlow(loop, n, 1, cc.MustNew("pure"), tcp.Options{})
	conn := fl.Conn
	conn.Start(0)

	rng := rand.New(rand.NewSource(3))
	now := sim.Time(0)
	step := 20 * sim.Millisecond
	tick := func(state []float64) {
		now += step
		loop.RunUntil(now)
		g.Control(now, conn, state)
		g.FlushBatch(now)
	}

	for i := 0; i < 6; i++ {
		tick(randState(rng)) // build up a trace window under pol1
	}

	// Swap to a broken model: the re-prime goes non-finite and the
	// session is degraded.
	stats, err := eng.Swap(broken, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Degraded != 1 {
		t.Fatalf("swap stats = %+v, want the session degraded", stats)
	}
	tick(randState(rng))
	if !g.Tripped() {
		t.Fatal("guardian did not trip the degraded session to the fallback")
	}
	if got := reg.Counter(guard.MetricSwapTrips).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", guard.MetricSwapTrips, got)
	}

	// The fleet swaps again to a healthy new incumbent while this flow
	// rides the fallback.
	if _, err := eng.Swap(pol3, nil); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 50 && g.Tripped(); i++ {
		tick(randState(rng)) // fallback delivers; probation elapses
	}
	if g.Tripped() || g.Restores() != 1 {
		t.Fatalf("guardian did not restore (tripped=%v restores=%d)", g.Tripped(), g.Restores())
	}

	// First post-restore decision: must equal pol3 from a *fresh* hidden
	// state (the guardian's restore reset the session).
	state := randState(rng)
	before := conn.Cwnd
	tick(state)
	gotRatio := conn.Cwnd / before

	masked := gr.ApplyMask(state, gr.MaskFull())
	head, _ := pol3.Forward(masked, pol3.InitHidden())
	mean := make([]float64, pol3.GMM.K)
	wantRatio := rl.UToRatio(pol3.GMM.MeanInto(head, mean))
	if math.Abs(gotRatio-wantRatio) > 1e-12 {
		t.Fatalf("post-restore ratio %v != fresh new-model ratio %v: re-admitted against stale state", gotRatio, wantRatio)
	}
}

// TestSwapGolden pins the re-prime bit for bit
// (testdata/swap-decisions.golden): a digest of the first two post-Swap
// decisions of three sessions whose histories are shorter than, equal to
// and longer than the re-prime window.
func TestSwapGolden(t *testing.T) {
	eng := serve.NewEngine(serve.Config{Policy: testPolicy(71), ReprimeWindow: 8})
	eng.Start()
	defer eng.Close()

	rng := rand.New(rand.NewSource(13))
	sids := []uint64{eng.NewSessionID(), eng.NewSessionID(), eng.NewSessionID()}
	for i, n := range []int{3, 8, 12} {
		for j := 0; j < n; j++ {
			if _, _, err := eng.Decide(sids[i], 100, randState(rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats, err := eng.Swap(testPolicyWide(73), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reprimed != 3 {
		t.Fatalf("swap stats = %+v, want three sessions reprimed", stats)
	}
	d := golden.NewDigest()
	for step := 0; step < 2; step++ {
		for _, sid := range sids {
			cwnd, fallback, err := eng.Decide(sid, 100, randState(rng))
			if err != nil || fallback {
				t.Fatalf("post-swap decision: cwnd %v fallback %v err %v", cwnd, fallback, err)
			}
			d.F64(cwnd)
		}
	}
	golden.Check(t, "swap-decisions", d.Sum())
}
