package promote_test

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"sage/internal/chaos"
	"sage/internal/promote"
	"sage/internal/rl"
	"sage/internal/serve"
	"sage/internal/sim"
	"sage/internal/telemetry"
)

// The full model lifecycle, end to end on a live serving plane:
//
//	publish -> shadow -> gate -> promote -> zero-drop hot-swap ->
//	degraded promotion -> watchdog demotion -> journal-backed recovery
//
// The incumbent is a collapse policy (u=-0.75), the candidate a grow
// policy (u=+0.25) — constant-action models whose behavior, divergence,
// and gate ordering are all known in closed form.
func TestLifecycleEndToEnd(t *testing.T) {
	dir := t.TempDir()
	reg, err := promote.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	incumbent := constModel(-0.75)
	candidate := constModel(0.25)

	// Stage 1: bootstrap — publish and promote the first incumbent, then
	// boot the serving plane the way sage-serve does: LoadIncumbent only.
	idA, err := reg.Publish(incumbent, promote.Meta{Provenance: "boot", TrainStep: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote(idA, "bootstrap"); err != nil {
		t.Fatal(err)
	}
	served, servedInfo, err := reg.LoadIncumbent()
	if err != nil {
		t.Fatal(err)
	}

	metrics := telemetry.NewRegistry()
	eng := serve.NewEngine(serve.Config{
		Policy:        served.Policy,
		Mask:          served.Mask,
		MaxBatch:      32,
		BatchDeadline: 50 * time.Microsecond,
		Workers:       2,
		ReprimeWindow: 8,
		Metrics:       metrics,
	})
	eng.Start()
	defer eng.Close()

	mgr, err := promote.NewManager(promote.ManagerConfig{
		Registry: reg,
		Engine:   eng,
		Metrics:  metrics,
	}, servedInfo.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Stage 2: shadow — mirror live decisions onto the candidate. The
	// incumbent acts at u=-0.75, the candidate at +0.25: every mirrored
	// decision diverges by exactly 1.0.
	shadow := promote.NewShadow(candidate, promote.ShadowConfig{Metrics: metrics})
	eng.SetShadow(shadow)

	drive := func(flows, calls int, tag string) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, flows)
		for f := 0; f < flows; f++ {
			sid := eng.NewSessionID()
			if tag != "" {
				shadow.TagSession(sid, tag)
			}
			wg.Add(1)
			go func(f int, sid uint64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(f)))
				for i := 0; i < calls; i++ {
					if _, _, err := eng.Decide(sid, 100, shadowState(rng.Intn(64))); err != nil {
						errs[f] = err
						return
					}
				}
			}(f, sid)
		}
		wg.Wait()
		for f, err := range errs {
			if err != nil {
				t.Fatalf("%s: flow %d: %v", tag, f, err)
			}
		}
	}
	drive(4, 50, "flat")

	st := shadow.Stats()
	if st.Mirrored != 200 {
		t.Fatalf("shadow mirrored %d decisions, want 200", st.Mirrored)
	}
	if math.Abs(st.MeanAbsDiv-1.0) > 1e-9 {
		t.Fatalf("shadow divergence %v, want exactly 1.0 (=|0.25 - (-0.75)|)", st.MeanAbsDiv)
	}
	if st.PerRegime["flat"].N != 200 {
		t.Fatalf("per-regime stats = %+v, want all 200 in flat", st.PerRegime)
	}

	// Stage 3: gate — the grow policy dominates the collapse policy on
	// the replay suite, and its live divergence is within the ceiling.
	idB, err := reg.Publish(candidate, promote.Meta{Provenance: "trainer", TrainStep: 5000})
	if err != nil {
		t.Fatal(err)
	}
	verdict := promote.RunGate(incumbent, candidate, promote.GateConfig{
		Buckets: gateScenes(2 * sim.Second),
		RelTol:  1e-9, AbsTol: 1e-9,
		Shadow:              &st,
		MaxShadowDivergence: 1.5,
	})
	if !verdict.Promote {
		t.Fatalf("gate rejected the dominating candidate: %s", verdict.Reason)
	}
	if err := reg.Promote(idB, verdict.Reason); err != nil {
		t.Fatal(err)
	}

	// Stage 4: zero-downtime hot-swap under live traffic. Every decision
	// issued across the swap must succeed; afterwards a fresh session
	// must act at the candidate's constant ratio.
	eng.SetShadow(nil)
	before := metrics.Counter(serve.MetricDecisions).Value()
	var wg sync.WaitGroup
	swapErrs := make([]error, 6)
	for f := 0; f < 6; f++ {
		sid := eng.NewSessionID()
		wg.Add(1)
		go func(f int, sid uint64) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if _, _, err := eng.Decide(sid, 100, shadowState(i%64)); err != nil {
					swapErrs[f] = err
					return
				}
			}
		}(f, sid)
	}
	time.Sleep(time.Millisecond)
	report, err := mgr.SyncIncumbent()
	if err != nil {
		t.Fatalf("hot-swap to new incumbent: %v", err)
	}
	if !strings.Contains(report, idB) {
		t.Fatalf("swap report %q does not name %s", report, idB)
	}
	wg.Wait()
	for f, err := range swapErrs {
		if err != nil {
			t.Fatalf("decision dropped across swap (flow %d): %v", f, err)
		}
	}
	if got := metrics.Counter(serve.MetricDecisions).Value() - before; got != 6*300 {
		t.Fatalf("decisions across swap = %d, want %d (dropped requests)", got, 6*300)
	}
	if mgr.Serving() != idB {
		t.Fatalf("manager serving %s, want %s", mgr.Serving(), idB)
	}
	wantRatio := rl.UToRatio(0.25)
	freshSid := eng.NewSessionID()
	cwnd, fallback, err := eng.Decide(freshSid, 100, shadowState(1))
	if err != nil || fallback {
		t.Fatalf("post-swap decision: cwnd=%v fallback=%v err=%v", cwnd, fallback, err)
	}
	if math.Abs(cwnd-100*wantRatio) > 1e-9 {
		t.Fatalf("post-swap action %v, want %v: the engine is not serving the new incumbent", cwnd, 100*wantRatio)
	}
	// A healthy post-swap window, long enough for a verdict, keeps the
	// watchdog quiet.
	drive(4, promote.MinDecisions/4, "")
	for i := 0; i < promote.Consecutive; i++ {
		if demoted, why := mgr.Tick(); demoted {
			t.Fatalf("watchdog demoted a healthy model: %s", why)
		}
	}

	// Stage 5: a degraded promotion (all-NaN weights — chaos-poisoned)
	// forces every decision to the fallback; the watchdog detects the
	// fallback-ratio explosion and demotes back to idB in one journal
	// transaction.
	bad := constModel(0)
	chaos.PoisonPolicy(bad.Policy)
	idC, err := reg.Publish(bad, promote.Meta{Provenance: "operator-override"})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote(idC, "forced without gate"); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.SyncIncumbent(); err != nil {
		t.Fatal(err)
	}
	drive(4, promote.MinDecisions/4, "") // all fallbacks now
	if fb := metrics.Counter(serve.MetricFallbacks).Value(); fb < promote.MinDecisions {
		t.Fatalf("poisoned incumbent produced %d fallbacks, want >= %d", fb, promote.MinDecisions)
	}
	for i := 1; i < promote.Consecutive; i++ {
		if demoted, why := mgr.Tick(); demoted {
			t.Fatalf("watchdog demoted after %d of %d bad polls: %s", i, promote.Consecutive, why)
		}
	}
	demoted, why := mgr.Tick()
	if !demoted {
		t.Fatal("watchdog did not demote the poisoned incumbent")
	}
	if !strings.Contains(why, "fallback ratio") {
		t.Fatalf("demotion reason = %q, want a fallback-ratio verdict", why)
	}
	if info, ok := reg.Incumbent(); !ok || info.ID != idB {
		t.Fatalf("registry incumbent after demotion = %+v, want %s", info, idB)
	}
	if got, _ := reg.Get(idC); got.State != promote.StateDemoted {
		t.Fatalf("poisoned model state = %s, want demoted", got.State)
	}
	if mgr.Serving() != idB {
		t.Fatalf("engine serving %s after demotion, want %s", mgr.Serving(), idB)
	}
	cwnd, fallback, err = eng.Decide(eng.NewSessionID(), 100, shadowState(2))
	if err != nil || fallback || math.Abs(cwnd-100*wantRatio) > 1e-9 {
		t.Fatalf("post-demotion decision (%v, %v, %v), want the restored incumbent's action %v",
			cwnd, fallback, err, 100*wantRatio)
	}
	if metrics.Counter(promote.MetricLifecycleDemotions).Value() != 1 {
		t.Fatal("demotion counter not incremented")
	}

	// Stage 6: recovery — a restarted daemon replays the journal and
	// serves idB, never the demoted idC and never an unpromoted candidate.
	reopened, err := promote.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	m2, info2, err := reopened.LoadIncumbent()
	if err != nil {
		t.Fatal(err)
	}
	if info2.ID != idB {
		t.Fatalf("restarted daemon would serve %s, want %s", info2.ID, idB)
	}
	if promote.Fingerprint(m2) != servedFingerprint(t, reopened, idB) {
		t.Fatal("reloaded incumbent checkpoint does not match its journal fingerprint")
	}
}

func servedFingerprint(t *testing.T, r *promote.Registry, id string) string {
	t.Helper()
	info, ok := r.Get(id)
	if !ok {
		t.Fatalf("model %s missing from registry", id)
	}
	return info.Fingerprint
}
