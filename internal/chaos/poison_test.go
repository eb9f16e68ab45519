package chaos

import (
	"testing"

	"sage/internal/collector"
	"sage/internal/gr"
)

func poolOf(n int) *collector.Pool {
	p := &collector.Pool{}
	for i := 0; i < n; i++ {
		tr := collector.Trajectory{Scheme: "s", Env: "e"}
		for j := 0; j < 50; j++ {
			tr.Steps = append(tr.Steps, gr.Step{
				State:  []float64{float64(j), 1},
				Action: 1.0,
				Reward: 0.5,
			})
		}
		p.Trajs = append(p.Trajs, tr)
	}
	return p
}

func TestPoisonPoolIsDeterministicAndDetectable(t *testing.T) {
	p1, p2 := poolOf(20), poolOf(20)
	l1 := PoisonPool(p1, 0.3, 42)
	l2 := PoisonPool(p2, 0.3, 42)
	if len(l1) != 6 {
		t.Fatalf("poisoned %d trajs, want 6", len(l1))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("nondeterministic ledger: %+v vs %+v", l1[i], l2[i])
		}
	}

	// Every injected corruption must be caught by the quality gate.
	_, rep := collector.Sanitize(p1)
	caught := map[int]bool{}
	for _, is := range rep.Issues {
		caught[is.Index] = true
	}
	for _, pt := range l1 {
		if !caught[pt.Index] {
			t.Fatalf("poison %q at traj %d not caught by quality gate", pt.Kind, pt.Index)
		}
	}
	if rep.Quarantined != len(l1) {
		t.Fatalf("quarantined %d, poisoned %d (clean trajectories flagged?)", rep.Quarantined, len(l1))
	}
}

func TestPoisonPoolAtLeastOne(t *testing.T) {
	p := poolOf(3)
	if l := PoisonPool(p, 0.01, 1); len(l) != 1 {
		t.Fatalf("frac rounding dropped the poison: %d", len(l))
	}
	if l := PoisonPool(poolOf(3), 0, 1); len(l) != 0 {
		t.Fatalf("frac=0 must be a no-op, got %d", len(l))
	}
}
