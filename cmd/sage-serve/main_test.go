package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sage/internal/cli"
	"sage/internal/core"
	"sage/internal/gr"
	"sage/internal/nn"
	"sage/internal/promote"
	"sage/internal/safeio"
)

// modelExitCode implements the daemon exit-code table's row 3: every way a
// checkpoint can be unserviceable — corrupt, truncated, missing, or a
// registry with nothing promoted — maps to 3, and anything else stays a
// fatal 1. The classification must work through wrapped errors, since the
// loaders all annotate with %w.
func TestModelExitCode(t *testing.T) {
	dir := t.TempDir()

	// Missing file.
	_, err := core.LoadModel(filepath.Join(dir, "nope.model"))
	if err == nil {
		t.Fatal("loading a missing model succeeded")
	}
	if got := cli.Code(modelErr(err)); got != 3 {
		t.Errorf("missing model -> exit %d, want 3", got)
	}

	// Corrupt file: flip a byte in a valid checkpoint.
	good := filepath.Join(dir, "good.model")
	m := &core.Model{
		Policy: nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim, Enc: 8, Hidden: 8, ResBlocks: 1, K: 2, Seed: 1}),
		Mask:   gr.MaskFull(),
		GR:     gr.Config{}.Fill(),
	}
	if err := m.Save(good); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xff
	bad := filepath.Join(dir, "bad.model")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadModel(bad); err == nil {
		t.Fatal("loading a corrupted model succeeded")
	} else if got := cli.Code(modelErr(err)); got != 3 {
		t.Errorf("corrupt model -> exit %d, want 3 (err: %v)", got, err)
	}

	// Truncated file.
	trunc := filepath.Join(dir, "trunc.model")
	if err := os.WriteFile(trunc, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadModel(trunc); err == nil {
		t.Fatal("loading a truncated model succeeded")
	} else if got := cli.Code(modelErr(err)); got != 3 {
		t.Errorf("truncated model -> exit %d, want 3 (err: %v)", got, err)
	}

	// A registry with nothing promoted.
	if got := cli.Code(modelErr(fmt.Errorf("boot: %w", promote.ErrNoIncumbent))); got != 3 {
		t.Errorf("no incumbent -> exit %d, want 3", got)
	}

	// Wrapped safeio sentinels classify without a real file.
	if got := cli.Code(modelErr(fmt.Errorf("x: %w", safeio.ErrCorrupt))); got != 3 {
		t.Errorf("wrapped ErrCorrupt -> exit %d, want 3", got)
	}
	if got := cli.Code(modelErr(fmt.Errorf("x: %w", safeio.ErrTruncated))); got != 3 {
		t.Errorf("wrapped ErrTruncated -> exit %d, want 3", got)
	}

	// Anything else is a plain fatal error.
	if got := cli.Code(modelErr(fmt.Errorf("dial unix: connection refused"))); got != 1 {
		t.Errorf("unrelated error -> exit %d, want 1", got)
	}
}
