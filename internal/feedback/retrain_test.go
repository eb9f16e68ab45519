package feedback

import (
	"context"
	"errors"
	"strings"
	"testing"

	"sage/internal/collector"
	"sage/internal/core"
	"sage/internal/gr"
	"sage/internal/nn"
	"sage/internal/promote"
	"sage/internal/rl"
)

var testMask = []int{idxSRTTMs, idxSRTTLgMin, idxLossMbps, idxDRMbps, idxDRMaxMbps}

func tinyCRR(steps int) rl.CRRConfig {
	return rl.CRRConfig{
		Policy: nn.PolicyConfig{Enc: 8, Hidden: 4, ResBlocks: 1, K: 2},
		Steps:  steps, Batch: 2, SeqLen: 2, Seed: 7,
	}
}

// syntheticPool labels regime windows into a training pool.
func syntheticPool(scheme string, n, steps int) *collector.Pool {
	p := &collector.Pool{GR: gr.Config{}.Fill()}
	regimes := Regimes()
	for i := 0; i < n; i++ {
		rec := regimeWindow(uint64(i+1), regimes[i%len(regimes)], steps)
		p.Trajs = append(p.Trajs, collector.Trajectory{
			Scheme: scheme, Env: scheme + "-" + regimes[i%len(regimes)],
			Steps: LabelWindow(rec, p.GR),
		})
	}
	return p
}

func TestMixPools(t *testing.T) {
	live := syntheticPool("live", 4, 8)
	offline := syntheticPool("offline", 12, 8)

	mixed := MixPools(offline, live, 0.5, 42)
	liveN, offN := 0, 0
	for _, tr := range mixed.Trajs {
		if strings.HasPrefix(tr.Scheme, "live") {
			liveN++
		} else {
			offN++
		}
	}
	if liveN != 4 {
		t.Fatalf("mix dropped live trajectories: %d/4", liveN)
	}
	if offN != 4 { // 50/50 target: offline complement matches live count
		t.Fatalf("offline complement = %d, want 4", offN)
	}

	// Deterministic under the same seed — a re-mixed killed round must
	// rebuild the identical pool.
	again := MixPools(offline, live, 0.5, 42)
	if len(again.Trajs) != len(mixed.Trajs) {
		t.Fatal("re-mix changed size")
	}
	for i := range mixed.Trajs {
		if mixed.Trajs[i].Env != again.Trajs[i].Env || len(mixed.Trajs[i].Steps) != len(again.Trajs[i].Steps) {
			t.Fatalf("re-mix diverged at %d", i)
		}
	}

	if lo := MixPools(nil, live, 0.5, 1); len(lo.Trajs) != 4 {
		t.Fatalf("live-only mix = %d trajs, want 4", len(lo.Trajs))
	}
}

// Warm start seeds the round's learner from the incumbent: with zero
// gradient steps the trained candidate IS the incumbent, fingerprint and
// all; without warm start it is a fresh initialization.
// The reproduction from the field: 4 trajectories × 5 states under the
// default SeqLen 8 have 16 transitions, so the old "any transitions at all?"
// guard let them through to a trainer that indexed past their end.
func TestRetrainRoundRejectsShortTrajectories(t *testing.T) {
	crr := tinyCRR(4)
	crr.SeqLen = 0 // default: 8
	crr.Workers = 2
	_, err := RetrainRound(context.Background(), RetrainConfig{
		WorkDir: t.TempDir(), Round: 1, Live: syntheticPool("live", 4, 5), LiveFrac: 1,
		Mask: testMask, CRR: crr, CheckpointEvery: 1,
	})
	if !errors.Is(err, rl.ErrShortTrajectories) || !strings.Contains(err.Error(), "has 5 states") {
		t.Fatalf("err = %v, want ErrShortTrajectories naming the longest trajectory", err)
	}
}

func TestRetrainRoundWarmStart(t *testing.T) {
	live := syntheticPool("live", 4, 8)
	inc := &core.Model{
		Policy: nn.NewPolicy(nn.PolicyConfig{InDim: len(testMask), Enc: 8, Hidden: 4, ResBlocks: 1, K: 2, Seed: 99}),
		Mask:   testMask, GR: live.GR,
	}
	incFP := promote.Fingerprint(inc)

	warm, err := RetrainRound(context.Background(), RetrainConfig{
		WorkDir: t.TempDir(), Round: 1, Live: live, Mask: testMask,
		CRR: tinyCRR(0), Incumbent: inc, WarmStart: true, CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fp := promote.Fingerprint(warm); fp != incFP {
		t.Fatalf("warm-started candidate fingerprint %s != incumbent %s", fp, incFP)
	}

	cold, err := RetrainRound(context.Background(), RetrainConfig{
		WorkDir: t.TempDir(), Round: 1, Live: live, Mask: testMask,
		CRR: tinyCRR(0), Incumbent: inc, WarmStart: false, CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fp := promote.Fingerprint(cold); fp == incFP {
		t.Fatal("cold start reproduced the incumbent's parameters")
	}
}

// The keystone of publish idempotence: a round killed mid-training and
// resumed converges to bitwise-identical parameters — the same registry
// fingerprint — as a round that ran straight through.
func TestRetrainRoundResumeIsDeterministic(t *testing.T) {
	live := syntheticPool("live", 4, 8)
	const steps = 6

	straight, err := RetrainRound(context.Background(), RetrainConfig{
		WorkDir: t.TempDir(), Round: 3, Live: live, Mask: testMask,
		CRR: tinyCRR(steps), CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Killed run: cancel after step 3, then resume to completion in the
	// same workdir.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	_, err = RetrainRound(ctx, RetrainConfig{
		WorkDir: dir, Round: 3, Live: live, Mask: testMask,
		CRR: tinyCRR(steps), CheckpointEvery: 2,
		Progress: func(step int, _, _ float64) {
			if step >= 3 {
				cancel()
			}
		},
	})
	cancel()
	if err == nil {
		t.Fatal("interrupted round reported success")
	}
	resumed, err := RetrainRound(context.Background(), RetrainConfig{
		WorkDir: dir, Round: 3, Live: live, Mask: testMask,
		CRR: tinyCRR(steps), CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := promote.Fingerprint(straight), promote.Fingerprint(resumed); a != b {
		t.Fatalf("resumed round fingerprint %s != straight-through %s", b, a)
	}
}

// ReplayShadow reproduces live windows through a candidate's shadow
// evaluator: every admitted step is observed and fallback steps are
// excluded from divergence.
func TestReplayShadow(t *testing.T) {
	spoolDir, stateDir := t.TempDir(), t.TempDir()
	w := regimeWindow(1, RegimeSteady, 6)
	w.Fallback = []int{2} // one safety-path step: observed, not diverged
	spoolWindows(t, spoolDir, w, regimeWindow(2, RegimeLossy, 6))
	in, _ := newTestIngester(t, spoolDir, stateDir, 0)
	defer in.Close()
	if _, err := in.Poll(); err != nil {
		t.Fatal(err)
	}

	cand := &core.Model{
		Policy: nn.NewPolicy(nn.PolicyConfig{InDim: len(testMask), Enc: 8, Hidden: 4, ResBlocks: 1, K: 2, Seed: 5}),
		Mask:   testMask, GR: gr.Config{}.Fill(),
	}
	sh := promote.NewShadow(cand, promote.ShadowConfig{})
	in.ReplayShadow(sh)
	st := sh.Stats()
	if st.Observed != 12 {
		t.Fatalf("shadow observed %d steps, want 12", st.Observed)
	}
	if st.Mirrored != 11 {
		t.Fatalf("shadow mirrored %d steps, want 11 (fallback step excluded)", st.Mirrored)
	}
	if st.Fallbacks != 1 {
		t.Fatalf("shadow counted %d fallbacks, want 1", st.Fallbacks)
	}
	if len(st.PerRegime) != 2 {
		t.Fatalf("per-regime divergence buckets = %v, want 2", st.PerRegime)
	}
}
