package promote_test

import (
	"math"
	"testing"

	"sage/internal/core"
	"sage/internal/golden"
	"sage/internal/gr"
	"sage/internal/nn"
	"sage/internal/promote"
	"sage/internal/rl"
	"sage/internal/telemetry"
)

func shadowState(i int) []float64 {
	v := make([]float64, gr.StateDim)
	for j := range v {
		v[j] = float64((i+j)%5) * 0.1
	}
	return v
}

// The shadow must measure exactly the action gap between candidate and
// incumbent: with constant-action models the divergence is known in
// closed form (|u_cand - u_live| on every mirrored decision).
func TestShadowDivergenceExact(t *testing.T) {
	cand := constModel(0.25)
	reg := telemetry.NewRegistry()
	sh := promote.NewShadow(cand, promote.ShadowConfig{Metrics: reg})

	liveRatio := rl.UToRatio(-0.5) // the incumbent's constant action
	sh.TagSession(1, "flap")
	sh.TagSession(2, "blackout")
	for i := 0; i < 10; i++ {
		sh.Observe(1, shadowState(i), liveRatio, false)
	}
	for i := 0; i < 4; i++ {
		sh.Observe(2, shadowState(i), liveRatio, false)
	}
	sh.Observe(3, shadowState(0), 1.0, true) // a safety no-op: counted, never mirrored

	st := sh.Stats()
	if st.Observed != 15 || st.Mirrored != 14 || st.Fallbacks != 1 {
		t.Fatalf("stats = %+v, want 15 observed / 14 mirrored / 1 fallback", st)
	}
	want := math.Abs(0.25 - (-0.5))
	if math.Abs(st.MeanAbsDiv-want) > 1e-12 || math.Abs(st.MaxAbsDiv-want) > 1e-12 {
		t.Fatalf("divergence mean=%v max=%v, want exactly %v", st.MeanAbsDiv, st.MaxAbsDiv, want)
	}
	if st.PerRegime["flap"].N != 10 || st.PerRegime["blackout"].N != 4 {
		t.Fatalf("per-regime = %+v, want flap=10 blackout=4", st.PerRegime)
	}
	if math.Abs(st.PerRegime["flap"].MeanAbsDiv-want) > 1e-12 {
		t.Fatalf("flap divergence = %v, want %v", st.PerRegime["flap"].MeanAbsDiv, want)
	}
	if got := reg.Counter(promote.MetricShadowMirrored).Value(); got != 14 {
		t.Fatalf("%s = %d, want 14", promote.MetricShadowMirrored, got)
	}
}

// The candidate pool is bounded: observing far more sessions than
// MaxShadowSessions must not grow without limit.
func TestShadowSessionCap(t *testing.T) {
	cand := constModel(0)
	sh := promote.NewShadow(cand, promote.ShadowConfig{})
	n := 3 * promote.MaxShadowSessions
	for sid := uint64(1); sid <= uint64(n); sid++ {
		sh.Observe(sid, shadowState(int(sid)), 1.0, false)
	}
	if st := sh.Stats(); st.Mirrored != int64(n) {
		t.Fatalf("mirrored = %d, want %d (the cap bounds residency, not observation)", st.Mirrored, n)
	}
}

// TestShadowGolden pins the candidate mirror bit for bit
// (testdata/shadow-stats.golden): a digest of Stats() after a fixed
// interleaved stream over four sessions (one untagged) and two regimes,
// mirrored onto a random-weight candidate whose recurrent state makes every
// divergence depend on its session's history.
func TestShadowGolden(t *testing.T) {
	pol := nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim, Enc: 16, Hidden: 8, ResBlocks: 1, K: 3, Seed: 9})
	cand := &core.Model{Policy: pol, Mask: gr.MaskFull(), GR: gr.Config{}.Fill()}
	sh := promote.NewShadow(cand, promote.ShadowConfig{})
	sh.TagSession(1, "flap")
	sh.TagSession(2, "blackout")
	sh.TagSession(3, "flap")
	for i := 0; i < 24; i++ {
		sid := uint64(1 + i%4)
		sh.Observe(sid, shadowState(i), rl.UToRatio(float64(i%7)/7-0.4), i%11 == 10)
	}

	st := sh.Stats()
	if st.Observed != 24 || st.Mirrored != 22 || st.Fallbacks != 2 {
		t.Fatalf("stats = %+v, want 24 observed / 22 mirrored / 2 fallbacks", st)
	}
	d := golden.NewDigest()
	d.F64(st.MeanAbsDiv)
	d.F64(st.MaxAbsDiv)
	for _, regime := range []string{"blackout", "flap"} {
		rd := st.PerRegime[regime]
		d.F64(float64(rd.N))
		d.F64(rd.MeanAbsDiv)
		d.F64(rd.MaxAbsDiv)
	}
	if !golden.Check(t, "shadow-stats", d.Sum()) {
		t.Logf("%+v", st)
	}
}

// Mirroring a decision of a resident session allocates nothing: the mask
// projection, the candidate's one-row forward and the mixture mean run on
// the shadow's own scratch, and the session's hidden vector advances in
// place.
func TestShadowObserveNoAllocs(t *testing.T) {
	sh := promote.NewShadow(constModel(0.25), promote.ShadowConfig{})
	sh.TagSession(1, "flap")
	state := shadowState(0)
	observe := func() { sh.Observe(1, state, 1.0, false) }
	observe() // admit the session, size the scratch
	if allocs := testing.AllocsPerRun(50, observe); allocs != 0 {
		t.Fatalf("Observe allocates %.1f objects/op on a resident session, want 0", allocs)
	}
}
