package gr

import "fmt"

// SignalNames returns the 69 input-signal names in Table 1 order.
// Index i of a state vector corresponds to SignalNames()[i]
// (Table 1 numbers rows from 1; slices are 0-based).
func SignalNames() []string {
	names := []string{"srtt", "rttvar", "thr", "ca_state"}
	for _, sig := range []string{"rtt", "thr", "rtt_rate", "rtt_var", "inflight", "lost"} {
		for _, w := range []string{"s", "m", "l"} {
			for _, st := range []string{"avg", "min", "max"} {
				names = append(names, fmt.Sprintf("%s_%s.%s", sig, w, st))
			}
		}
	}
	names = append(names,
		"time_delta", "rtt_rate", "loss_db", "acked_rate", "dr_ratio",
		"bdp_cwnd", "dr", "cwnd_unacked_rate", "dr_max", "dr_max_ratio", "pre_act")
	return names
}

// Masks select input subsets for the ablation study of Fig. 12. Each mask is
// the sorted list of kept 0-based indices.

// MaskFull keeps all 69 signals.
func MaskFull() []int {
	idx := make([]int, StateDim)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// MaskNoMinMax removes every windowed min/max statistic, leaving the
// 33-element vector of the paper's "no Min/Max" model.
func MaskNoMinMax() []int {
	var keep []int
	for i := 0; i < 4; i++ {
		keep = append(keep, i)
	}
	// Windowed block: rows 5..58 (indices 4..57) in groups of 3 (avg,min,max).
	for g := 0; g < 18; g++ {
		keep = append(keep, 4+3*g) // the avg slot
	}
	for i := 58; i < StateDim; i++ {
		keep = append(keep, i)
	}
	return keep
}

// MaskNoRTTVar removes the RTT-rate and RTT-variance windows
// (Table 1 rows 23–40, indices 22..39), the "no rrtVar" model.
func MaskNoRTTVar() []int { return maskDroppingRange(22, 40) }

// MaskNoLossInflight removes the inflight and lost windows
// (Table 1 rows 41–58, indices 40..57), the "no Loss/Inf" model.
func MaskNoLossInflight() []int { return maskDroppingRange(40, 58) }

// MaskNames lists the names MaskByName resolves, in flag-help form.
const MaskNames = "full|no-minmax|no-rttvar|no-lossinf"

// MaskByName resolves a mask by the name the commands' -mask flags use.
func MaskByName(name string) ([]int, error) {
	switch name {
	case "full":
		return MaskFull(), nil
	case "no-minmax":
		return MaskNoMinMax(), nil
	case "no-rttvar":
		return MaskNoRTTVar(), nil
	case "no-lossinf":
		return MaskNoLossInflight(), nil
	}
	return nil, fmt.Errorf("unknown mask %q (valid: %s)", name, MaskNames)
}

func maskDroppingRange(lo, hi int) []int {
	var keep []int
	for i := 0; i < StateDim; i++ {
		if i >= lo && i < hi {
			continue
		}
		keep = append(keep, i)
	}
	return keep
}

// ApplyMask projects state onto the kept indices.
func ApplyMask(state []float64, mask []int) []float64 {
	return ApplyMaskInto(make([]float64, len(mask)), state, mask)
}

// ApplyMaskInto is ApplyMask writing into dst, growing it only when it is
// too small. Controllers on the per-interval decision path keep a scratch
// buffer and call this to stay allocation-free.
func ApplyMaskInto(dst, state []float64, mask []int) []float64 {
	if cap(dst) < len(mask) {
		dst = make([]float64, len(mask))
	}
	dst = dst[:len(mask)]
	for i, j := range mask {
		dst[i] = state[j]
	}
	return dst
}
