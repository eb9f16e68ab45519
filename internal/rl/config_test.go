package rl

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"sage/internal/nn"
)

// TestEveryCRRConfigFieldIsRead makes an inert knob a test failure: every
// exported field of CRRConfig needs a row below, and the row's perturbation
// must change what a short training run leaves behind — the shapes or values
// of the online and target parameters, the number of steps applied, or the
// identity of the last batch. A field that is accepted and ignored (or added
// without a row) fails here.
func TestEveryCRRConfigFieldIsRead(t *testing.T) {
	base := CRRConfig{Policy: tinyPolicyCfg(), Batch: 6, SeqLen: 4, Steps: 6, TargetEvery: 4, Seed: 23}
	perturb := map[string]func(*CRRConfig){
		"Policy":       func(c *CRRConfig) { c.Policy.Enc = 10 },
		"NAF":          func(c *CRRConfig) { c.NAF = nn.NAFConfig{Hidden: 32} },
		"Gamma":        func(c *CRRConfig) { c.Gamma = 0.9 },
		"Batch":        func(c *CRRConfig) { c.Batch = 4 },
		"SeqLen":       func(c *CRRConfig) { c.SeqLen = 3 },
		"Steps":        func(c *CRRConfig) { c.Steps = 5 },
		"LRPolicy":     func(c *CRRConfig) { c.LRPolicy = 3e-3 },
		"LRCritic":     func(c *CRRConfig) { c.LRCritic = 3e-3 },
		"TargetEvery":  func(c *CRRConfig) { c.TargetEvery = 2 },
		"ActionSample": func(c *CRRConfig) { c.ActionSample = 2 },
		"NStep":        func(c *CRRConfig) { c.NStep = 2 },
		"EventFrac":    func(c *CRRConfig) { c.EventFrac = 0.9 },
		"ClipNorm":     func(c *CRRConfig) { c.ClipNorm = 0.01 },
		"Workers":      func(c *CRRConfig) { c.Workers = 2 },
		"Seed":         func(c *CRRConfig) { c.Seed = 24 },
	}

	ds := goldenDataset(t)
	outcome := func(cfg CRRConfig) string {
		l := NewCRR(ds, cfg)
		l.Train(context.Background(), ds, nil)
		return fmt.Sprintf("%s/%s steps=%d batch=%x",
			paramDigest(l.SnapshotParams()), paramDigest(l.SnapshotTargets()), l.StepsDone(), l.LastStats.BatchID)
	}
	want := outcome(base)
	if again := outcome(base); again != want {
		t.Fatalf("base run is not reproducible: %s vs %s", want, again)
	}

	typ := reflect.TypeOf(CRRConfig{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		p, ok := perturb[name]
		if !ok {
			t.Errorf("CRRConfig.%s has no row: add a perturbation that a training run can see", name)
			continue
		}
		delete(perturb, name)
		cfg := base
		p(&cfg)
		if reflect.DeepEqual(cfg, base) {
			t.Errorf("CRRConfig.%s: the row does not change the config", name)
		} else if got := outcome(cfg); got == want {
			t.Errorf("CRRConfig.%s is never read: perturbing it left the run at %s", name, got)
		}
	}
	for name := range perturb {
		t.Errorf("row %q names no CRRConfig field", name)
	}
}
