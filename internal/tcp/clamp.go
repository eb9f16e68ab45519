package tcp

// MinCwnd and MaxCwnd are the cwnd floor and hard ceiling in packets.
// rl.PolicyController, serve.Engine and guard clamp to the floor;
// Conn.SetCwnd, guard and core.NewAgent cap at the ceiling.
const (
	MinCwnd float64 = 2
	MaxCwnd float64 = 20000
)

// ClampCwnd bounds a proposed congestion window to [floor, ceil]; a
// non-positive ceil means "no ceiling". It is the single cwnd-sanity
// helper shared by the per-flow policy controller (rl.PolicyController,
// which core.Agent is), the serving engine and the runtime guardian; with
// MinCwnd and MaxCwnd the bounds each live in exactly one place.
//
// NaN is deliberately passed through unchanged: both comparisons are
// false for NaN, matching the raw `w < floor` checks this helper
// replaces. Detecting (and recovering from) a non-finite window is the
// guardian's job, not the clamp's — silently mapping NaN to the floor
// would mask the very failures internal/guard exists to catch.
func ClampCwnd(w, floor, ceil float64) float64 {
	if w < floor {
		return floor
	}
	if ceil > 0 && w > ceil {
		return ceil
	}
	return w
}
