package gr

import (
	"strings"
	"testing"
)

func TestApplyMaskInto(t *testing.T) {
	state := make([]float64, StateDim)
	for i := range state {
		state[i] = float64(i)
	}
	for _, mask := range [][]int{MaskFull(), MaskNoMinMax(), MaskNoRTTVar(), MaskNoLossInflight()} {
		want := ApplyMask(state, mask)
		var buf []float64
		buf = ApplyMaskInto(buf, state, mask) // grows from nil
		if len(buf) != len(want) {
			t.Fatalf("len = %d, want %d", len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("buf[%d] = %v, want %v", i, buf[i], want[i])
			}
		}
		// A big-enough buffer is reused, shrunk to the mask length.
		big := make([]float64, StateDim+7)
		out := ApplyMaskInto(big, state, mask)
		if &out[0] != &big[0] {
			t.Error("ApplyMaskInto reallocated a sufficient buffer")
		}
	}
}

// The per-interval decision path must not pay an allocation for the mask
// projection once its scratch buffer is warm.
func TestApplyMaskIntoNoAllocs(t *testing.T) {
	state := make([]float64, StateDim)
	mask := MaskNoMinMax()
	buf := make([]float64, len(mask))
	allocs := testing.AllocsPerRun(100, func() {
		buf = ApplyMaskInto(buf, state, mask)
	})
	if allocs != 0 {
		t.Errorf("ApplyMaskInto allocates %v per call with a warm buffer", allocs)
	}
}

func TestMaskByName(t *testing.T) {
	for name, want := range map[string]int{"full": StateDim, "no-minmax": 33, "no-rttvar": StateDim - 18, "no-lossinf": StateDim - 18} {
		if m, err := MaskByName(name); err != nil || len(m) != want {
			t.Errorf("MaskByName(%q) keeps %d signals, %v; want %d", name, len(m), err, want)
		}
	}
	if _, err := MaskByName("no-such"); err == nil || !strings.Contains(err.Error(), MaskNames) {
		t.Errorf("MaskByName(unknown) = %v, want an error listing %s", err, MaskNames)
	}
}
