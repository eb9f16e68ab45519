package feedback

import (
	"context"
	"testing"

	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/promote"
	"sage/internal/sim"
	"sage/internal/telemetry"
)

type loopDirs struct{ spool, state, registry string }

func newLoopDirs(t *testing.T) loopDirs {
	return loopDirs{spool: t.TempDir(), state: t.TempDir(), registry: t.TempDir()}
}

func testLoopConfig(d loopDirs) LoopConfig {
	return LoopConfig{
		SpoolDir: d.spool, StateDir: d.state, RegistryDir: d.registry,
		Mask: testMask, GR: gr.Config{}.Fill(),
		MinAdmitted: 2, MinRegimes: 1,
		CRR: tinyCRR(4), CheckpointEvery: 1,
		Gate:    promote.GateConfig{Buckets: loopGateScenes(), Duration: sim.Second},
		Metrics: telemetry.NewRegistry(),
	}
}

// loopGateScenes is a minimal two-bucket suite so second-round gate runs
// stay cheap.
func loopGateScenes() []netem.Scenario {
	mk := func(name string) netem.Scenario {
		mrtt := 20 * sim.Millisecond
		return netem.Scenario{
			Name: name, Rate: netem.FlatRate(netem.Mbps(24)),
			MinRTT: mrtt, QueueBytes: netem.BDPBytes(netem.Mbps(24), mrtt),
			Duration: sim.Second,
		}
	}
	return []netem.Scenario{mk("flat-a"), mk("step-b")}
}

func spoolTriggerWindows(t *testing.T, dir string, base uint64) {
	t.Helper()
	spoolWindows(t, dir,
		regimeWindow(base+1, RegimeSteady, 8),
		regimeWindow(base+2, RegimeLossy, 8),
		regimeWindow(base+3, RegimeFlappy, 8),
	)
}

type killAt struct{ stage string }

// stepExpectKill runs Step and asserts the kill seam fired at the target
// stage; the Loop is abandoned un-Closed, like a real SIGKILL.
func stepExpectKill(t *testing.T, lp *Loop, stage string) {
	t.Helper()
	defer func() {
		r := recover()
		k, ok := r.(killAt)
		if !ok {
			t.Fatalf("expected kill at %q, recovered %v", stage, r)
		}
		if k.stage != stage {
			t.Fatalf("killed at %q, want %q", k.stage, stage)
		}
	}()
	lp.Step(context.Background())
	t.Fatalf("kill at %q never fired", stage)
}

// The tentpole invariant: SIGKILL at every stage boundary, then resume —
// the loop still lands exactly one promoted candidate, accounting
// balances, and nothing is published or journaled twice.
func TestLoopKillAtEveryStageResumes(t *testing.T) {
	for _, stage := range []string{StagePoll, StageRound, StageTrained, StagePublished, StageVerdict} {
		t.Run(stage, func(t *testing.T) {
			d := newLoopDirs(t)
			spoolTriggerWindows(t, d.spool, 0)

			cfg := testLoopConfig(d)
			cfg.Kill = func(s string) {
				if s == stage {
					panic(killAt{s})
				}
			}
			lp, err := OpenLoop(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stepExpectKill(t, lp, stage)

			// Resume from the journals alone.
			cfg.Kill = nil
			lp2, err := OpenLoop(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer lp2.Close()
			for i := 0; i < 3; i++ {
				done, err := lp2.Step(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
				if n, open := lp2.Round(); n == 1 && !open {
					break // verdict landed before the kill (StageVerdict)
				}
			}

			if n, open := lp2.Round(); n != 1 || open {
				t.Fatalf("round state = (%d, open=%v), want round 1 closed", n, open)
			}
			reg, err := promote.OpenRegistry(d.registry)
			if err != nil {
				t.Fatal(err)
			}
			inc, ok := reg.Incumbent()
			if !ok {
				t.Fatal("no incumbent after resumed loop")
			}
			if inc.Provenance != "sage-loop" {
				t.Fatalf("incumbent provenance %q, want sage-loop", inc.Provenance)
			}
			if models := reg.List(); len(models) != 1 {
				t.Fatalf("registry holds %d models, want exactly 1 (no duplicate publish)", len(models))
			}
			c := lp2.Ingester().Counts()
			if c.Ingested != 3 || c.Ingested != c.Admitted+c.Quarantined+c.Skipped {
				t.Fatalf("accounting after kill/resume: %+v", c)
			}
		})
	}
}

// With an incumbent installed, the next round replays live windows
// through the shadow and runs the dominance gate; either verdict closes
// the round and journals the decision.
func TestLoopSecondRoundRunsGate(t *testing.T) {
	d := newLoopDirs(t)
	spoolTriggerWindows(t, d.spool, 0)
	cfg := testLoopConfig(d)
	lp, err := OpenLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := lp.Step(context.Background()); err != nil || !done {
		t.Fatalf("first round: done=%v err=%v", done, err)
	}

	spoolTriggerWindows(t, d.spool, 10)
	done, err := lp.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("second round did not reach a verdict")
	}
	if n, open := lp.Round(); n != 2 || open {
		t.Fatalf("round state = (%d, open=%v), want round 2 closed", n, open)
	}
	lp.Close()

	reg, err := promote.OpenRegistry(d.registry)
	if err != nil {
		t.Fatal(err)
	}
	models := reg.List()
	if len(models) != 2 {
		t.Fatalf("registry holds %d models, want 2", len(models))
	}
	gated := 0
	for _, m := range models {
		switch m.State {
		case promote.StateIncumbent, promote.StateRejected, promote.StateRetired:
			gated++
		default:
			t.Fatalf("model %s in state %s after verdict", m.ID, m.State)
		}
	}
	if gated != 2 {
		t.Fatalf("gated transitions = %d, want 2", gated)
	}
	if _, ok := reg.Incumbent(); !ok {
		t.Fatal("no incumbent after second round")
	}
}

// A quiescent loop (no new admissions since the last round) never starts
// a round: MinAdmitted counts fresh experience, not pool residue.
func TestLoopTriggerNeedsFreshAdmissions(t *testing.T) {
	d := newLoopDirs(t)
	spoolTriggerWindows(t, d.spool, 0)
	cfg := testLoopConfig(d)
	lp, err := OpenLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lp.Close()
	if done, err := lp.Step(context.Background()); err != nil || !done {
		t.Fatalf("trigger round: done=%v err=%v", done, err)
	}
	// Nothing new in the spool: no round 2.
	for i := 0; i < 2; i++ {
		if done, err := lp.Step(context.Background()); err != nil || done {
			t.Fatalf("idle step %d: done=%v err=%v, want no round", i, done, err)
		}
	}
	if n, _ := lp.Round(); n != 1 {
		t.Fatalf("round advanced to %d while idle", n)
	}
}

// A live pool of trace windows shorter than one training sequence is "not
// enough data this round": the trigger thresholds are met, but no round
// starts, nothing is journaled, and the loop keeps polling — it used to
// start the round and die in the trainer with an index out of range.
func TestLoopDefersRoundOnShortWindows(t *testing.T) {
	d := newLoopDirs(t)
	spoolTriggerWindows(t, d.spool, 0) // 8-step windows
	cfg := testLoopConfig(d)
	cfg.CRR.SeqLen = 9
	cfg.CRR.Workers = 2
	lp, err := OpenLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lp.Close()
	for i := 0; i < 2; i++ {
		if done, err := lp.Step(context.Background()); err != nil || done {
			t.Fatalf("step %d: done=%v err=%v, want a deferred round", i, done, err)
		}
	}
	if n, open := lp.Round(); n != 0 || open {
		t.Fatalf("round %d (open=%v) started on windows too short to sample", n, open)
	}
	if c := lp.Ingester().Counts(); c.Admitted < cfg.MinAdmitted {
		t.Fatalf("only %d windows admitted: the deferral was the thresholds', not the length check's", c.Admitted)
	}
}
