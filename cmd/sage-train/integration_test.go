//go:build integration

// Poisoned-pool recovery integration test: train the real sage-train
// binary on a 10%-poisoned pool and require the sentinel-guarded run to
// produce a finite-weight policy close to the clean-pool baseline, while
// the unguarded run demonstrably diverges. Build-tagged so the tier-1
// suite stays hermetic; CI runs it with -tags integration.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"sage/internal/chaos"
	"sage/internal/collector"
	"sage/internal/core"
	"sage/internal/gr"
	"sage/internal/nn"
)

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sage-train")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// synthTraj builds one bandit-style trajectory: the "good" scheme always
// doubles toward u=+0.5 and earns reward 1, the "bad" scheme backs off
// toward u=−0.5 and earns 0. States vary step to step (so the quality
// gate's frozen-flow check stays quiet on clean data).
func synthTraj(scheme string, env int, ratio, reward float64) collector.Trajectory {
	tr := collector.Trajectory{Scheme: scheme, Env: fmt.Sprintf("e%02d", env)}
	for j := 0; j < 80; j++ {
		st := make([]float64, gr.StateDim)
		for k := range st {
			st[k] = math.Sin(float64(j*(k+1)+env)) * 0.5
		}
		tr.Steps = append(tr.Steps, gr.Step{State: st, Action: ratio, Reward: reward})
	}
	return tr
}

func synthPool() *collector.Pool {
	p := &collector.Pool{}
	for i := 0; i < 10; i++ {
		p.Trajs = append(p.Trajs, synthTraj("good", i, math.Exp2(0.5), 1))
		p.Trajs = append(p.Trajs, synthTraj("bad", i, math.Exp2(-0.5), 0))
	}
	return p
}

func probeMean(t *testing.T, modelPath string) float64 {
	t.Helper()
	m, err := core.LoadModel(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if !nn.FiniteParams(m.Policy) {
		t.Fatalf("%s has non-finite weights", modelPath)
	}
	raw := make([]float64, gr.StateDim)
	for k := range raw {
		raw[k] = math.Sin(float64(40*(k+1))) * 0.5
	}
	head, _ := m.Policy.Forward(gr.ApplyMask(raw, m.Mask), m.Policy.InitHidden())
	return m.Policy.GMM.Mean(head)
}

func trainArgs(pool, model string, extra ...string) []string {
	args := []string{
		"-pool", pool, "-out", model,
		"-steps", "400", "-enc", "8", "-gru", "4", "-seed", "3",
		"-log-every", "100000", // keep CI logs quiet
	}
	return append(args, extra...)
}

func TestPoisonedPoolRecovery(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()

	cleanPool := filepath.Join(dir, "clean.gob.gz")
	if err := synthPool().Save(cleanPool); err != nil {
		t.Fatal(err)
	}
	poisoned := synthPool()
	ledger := chaos.PoisonPool(poisoned, 0.1, 7)
	if len(ledger) != 2 {
		t.Fatalf("poisoned %d trajectories, want 2 (10%% of 20)", len(ledger))
	}
	poisonPool := filepath.Join(dir, "poisoned.gob.gz")
	if err := poisoned.Save(poisonPool); err != nil {
		t.Fatal(err)
	}

	// Baseline: clean pool under the (default-on) sentinel.
	cleanModel := filepath.Join(dir, "clean.model")
	if out, err := exec.Command(bin, trainArgs(cleanPool, cleanModel)...).CombinedOutput(); err != nil {
		t.Fatalf("clean run: %v\n%s", err, out)
	}
	cleanMean := probeMean(t, cleanModel)

	// Unguarded: the same poisoned pool with the sentinel disabled must
	// visibly diverge — NaN weights in the saved model or a failed run.
	unguardedModel := filepath.Join(dir, "unguarded.model")
	out, err := exec.Command(bin, trainArgs(poisonPool, unguardedModel, "-sentinel=false")...).CombinedOutput()
	if err == nil {
		m, lerr := core.LoadModel(unguardedModel)
		if lerr != nil {
			t.Fatalf("unguarded run exited 0 but model unreadable: %v", lerr)
		}
		if nn.FiniteParams(m.Policy) {
			t.Fatalf("unguarded run survived the poisoned pool with finite weights\n%s", out)
		}
	}

	// Guarded: sentinel on, no sanitize — the NaN batches must be skipped
	// at the gate and the surviving policy must land near the baseline.
	guardedModel := filepath.Join(dir, "guarded.model")
	metrics := filepath.Join(dir, "guarded.jsonl")
	out, err = exec.Command(bin, trainArgs(poisonPool, guardedModel, "-metrics", metrics)...).CombinedOutput()
	if err != nil {
		t.Fatalf("guarded run: %v\n%s", err, out)
	}
	guardedMean := probeMean(t, guardedModel)
	if diff := math.Abs(guardedMean - cleanMean); diff > 0.5 {
		t.Fatalf("guarded policy drifted from clean baseline: clean %.3f, guarded %.3f", cleanMean, guardedMean)
	}

	// The metrics JSONL must carry sentinel events (skip lines with a
	// reason) alongside the per-step records.
	f, err := os.Open(metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	skipEvents, skippedSteps := 0, 0
	scan := bufio.NewScanner(f)
	scan.Buffer(make([]byte, 1<<20), 1<<20)
	for scan.Scan() {
		var m map[string]any
		if err := json.Unmarshal(scan.Bytes(), &m); err != nil {
			t.Fatalf("metrics line not JSON: %v", err)
		}
		if m["event"] == "skip" && m["reason"] != nil {
			skipEvents++
		}
		if m["skipped"] == true {
			skippedSteps++
		}
	}
	if skipEvents == 0 {
		t.Fatal("no sentinel skip events in metrics JSONL")
	}
	if skippedSteps == 0 {
		t.Fatal("no per-step records flagged skipped")
	}

	// Sanitize: quarantining the poison up front must let even the
	// unguarded trainer finish with finite weights, and the sidecar must
	// name the injected trajectories.
	sanitizedModel := filepath.Join(dir, "sanitized.model")
	out, err = exec.Command(bin, trainArgs(poisonPool, sanitizedModel, "-sanitize", "-sentinel=false")...).CombinedOutput()
	if err != nil {
		t.Fatalf("sanitized run: %v\n%s", err, out)
	}
	if mean := probeMean(t, sanitizedModel); math.Abs(mean-cleanMean) > 0.5 {
		t.Fatalf("sanitized policy drifted from clean baseline: clean %.3f, sanitized %.3f", cleanMean, mean)
	}
	if _, err := os.Stat(poisonPool + ".quarantine.jsonl"); err != nil {
		t.Fatalf("no quarantine sidecar: %v", err)
	}
}
