package telemetry

import (
	"encoding/json"
	"expvar"
	"testing"
)

func TestFleetTotals(t *testing.T) {
	f := NewFleet()
	f.Update("agent-a", map[string]float64{"cells_done": 3, "shard_bytes": 100})
	f.Update("agent-b", map[string]float64{"cells_done": 2})
	f.Update("agent-a", map[string]float64{"cells_done": 5, "shard_bytes": 150}) // replaces, not adds

	if got := f.Totals()["cells_done"]; got != 7 {
		t.Fatalf("cells_done total = %g, want 7", got)
	}
	if got := f.Totals()["shard_bytes"]; got != 150 {
		t.Fatalf("shard_bytes total = %g, want 150", got)
	}
	if s := f.String(); s != "cells_done=7 shard_bytes=150" {
		t.Fatalf("String() = %q", s)
	}

	f.PublishExpvar("test-fleet")
	var v map[string]float64
	if err := json.Unmarshal([]byte(expvar.Get("test-fleet").String()), &v); err != nil {
		t.Fatal(err)
	}
	if v["agents"] != 2 || v["cells_done"] != 7 || v["shard_bytes"] != 150 {
		t.Fatalf("expvar = %v, want 2 agents, cells_done 7, shard_bytes 150", v)
	}
}

// TestFleetNilSafe: every method on a nil fleet is a usable no-op, so
// call sites need no nil guards (matching Registry's contract).
func TestFleetNilSafe(t *testing.T) {
	var f *Fleet
	f.Update("a", map[string]float64{"x": 1})
	if f.Totals() != nil || f.String() != "" {
		t.Fatal("nil fleet invented totals")
	}
	f.PublishExpvar("nil-fleet") // must not panic
}
