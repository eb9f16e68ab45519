package promote

import (
	"testing"

	"sage/internal/core"
	"sage/internal/gr"
	"sage/internal/nn"
)

func testModel(seed int64) *core.Model {
	pol := nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim, Enc: 8, Hidden: 8, ResBlocks: 1, K: 3, Seed: seed})
	return &core.Model{Policy: pol, Mask: gr.MaskFull(), GR: gr.Config{}.Fill()}
}

// Demote must not report success when its journal record lost the race to
// a concurrent promotion from another process: the record names a model
// that is no longer the lineage top, the state machine drops it, and the
// degraded model was never actually demoted.
func TestDemoteLosesToConcurrentPromote(t *testing.T) {
	dir := t.TempDir()
	r1, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	for i, id := range []string{"A", "B", "C"} {
		if _, err := r1.Publish(testModel(int64(i+1)), Meta{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r1.Promote("A", ""); err != nil {
		t.Fatal(err)
	}
	if err := r1.Promote("B", ""); err != nil {
		t.Fatal(err)
	}

	// A second process's handle promotes C in the window between r1's
	// Demote refreshing its view (incumbent = B) and appending its demote
	// record — the exact cross-process race the verification guards.
	r2, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	r1.hookPreDemoteAppend = func() {
		if err := r2.Promote("C", "raced in"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r1.Demote("watchdog fired"); err == nil {
		t.Fatal("Demote reported success though its record was dropped by a concurrent promotion")
	}

	// The registry reflects the promotion, not the phantom demotion: C is
	// the incumbent and B was retired by C's promote, never demoted.
	if info, ok := r1.Incumbent(); !ok || info.ID != "C" {
		t.Fatalf("incumbent = %+v, want C", info)
	}
	if info, ok := r1.Get("B"); !ok || info.State != StateRetired {
		t.Fatalf("B = %+v, want retired", info)
	}

	// A fresh replay of the journal (a restarting daemon) agrees: the
	// dropped demote record stays dropped.
	r3, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	if info, ok := r3.Incumbent(); !ok || info.ID != "C" {
		t.Fatalf("replayed incumbent = %+v, want C", info)
	}

	// With no interleaved promotion the same demote succeeds and restores B.
	r1.hookPreDemoteAppend = nil
	restored, err := r1.Demote("watchdog fired")
	if err != nil {
		t.Fatal(err)
	}
	if restored != "B" {
		t.Fatalf("restored incumbent = %q, want B", restored)
	}
	if info, ok := r1.Get("C"); !ok || info.State != StateDemoted {
		t.Fatalf("C = %+v, want demoted", info)
	}
}

// Regime tags must not outlive the bounded shadow pool: tagging an
// unbounded stream of session ids keeps the regimes map within twice the
// session cap, and evicting a shadow session drops its tag with it.
func TestShadowRegimeTagsBounded(t *testing.T) {
	const cap = maxShadowSessions
	sh := NewShadow(testModel(1), ShadowConfig{})
	state := make([]float64, gr.StateDim)
	for sid := uint64(1); sid <= 4*cap; sid++ {
		sh.TagSession(sid, "bulk")
		sh.Observe(sid, state, 1.0, false)
	}
	sh.mu.Lock()
	nSess, nTags := len(sh.sessions), len(sh.regimes)
	sh.mu.Unlock()
	if nSess > cap {
		t.Fatalf("session pool holds %d entries, cap is %d", nSess, cap)
	}
	if nTags > 2*cap {
		t.Fatalf("regimes map holds %d entries after %d tagged sessions, want <= %d", nTags, 4*cap, 2*cap)
	}
	if st := sh.Stats(); st.PerRegime["bulk"].N != int64(4*cap) {
		t.Fatalf("per-regime n = %d, want %d (bounding tags must not drop attribution of live sessions)", st.PerRegime["bulk"].N, 4*cap)
	}
}
