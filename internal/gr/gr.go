// Package gr implements the paper's General Representation (GR) unit
// (Section 4.1): it periodically samples raw statistics of a TCP connection,
// maintains them over three timescales (Small/Medium/Large observation
// windows), assembles the 69-element state vector of Table 1, represents the
// scheme's output as the cwnd ratio a_t = cwnd_t / cwnd_{t-1}, and assigns
// the two reward terms — the power-style single-flow reward R1 (Eq. 1) and
// the TCP-friendliness reward R2 (Eq. 2).
package gr

import (
	"math"

	"sage/internal/sim"
)

// StateDim is the length of the full input vector (Table 1).
const StateDim = 69

// Config parameterizes the GR unit.
type Config struct {
	Interval sim.Time // monitoring/action period (default 20 ms)
	Small    int      // small observation window, in ticks (default 10)
	Medium   int      // medium observation window (default 200)
	Large    int      // large observation window (default 1000)
	Xi       float64  // loss penalty ξ in R1 (default 1)
	Kappa    float64  // throughput emphasis κ in R1 (default 2)
	// RewardWindow smooths the delivery/loss rates used for reward labeling
	// over this many ticks (default 50, i.e. 1 s at the default interval):
	// per-tick ACK clocking is too bursty to score long-horizon objectives.
	RewardWindow int
}

// Fill applies the paper's defaults to unset fields and returns the config.
func (c Config) Fill() Config {
	if c.Interval == 0 {
		c.Interval = 20 * sim.Millisecond
	}
	if c.Small == 0 {
		c.Small = 10
	}
	if c.Medium == 0 {
		c.Medium = 200
	}
	if c.Large == 0 {
		c.Large = 1000
	}
	if c.Xi == 0 {
		c.Xi = 1
	}
	if c.Kappa == 0 {
		c.Kappa = 2
	}
	if c.RewardWindow == 0 {
		c.RewardWindow = 50
	}
	return c
}

// Granularity presets for the Fig. 14 study: every window forced to a single
// observation length.
func (c Config) WithUniformWindow(n int) Config {
	c = c.Fill()
	c.Small, c.Medium, c.Large = n, n, n
	return c
}

// RewardKind selects which reward term labels a trajectory.
type RewardKind int

// Reward terms.
const (
	RewardSingleFlow RewardKind = iota // R1: power-style (Eq. 1)
	RewardFriendly                     // R2: TCP-friendliness (Eq. 2)
)

// RewardContext supplies the environment ground truth the GR unit needs to
// label rewards (available because data collection runs under emulation,
// exactly as in the paper).
type RewardContext struct {
	Kind      RewardKind
	Capacity  func(now sim.Time) float64 // bottleneck bits/second at time now
	MinRTT    sim.Time                   // propagation round trip
	FairShare float64                    // bits/second ideal share (RewardFriendly)
}

// R1 computes the single-flow reward of Eq. 1, made scale-free by
// normalizing the delivery and loss rates by capacity and the delay by the
// propagation RTT: R1 = ((r−ξ·l)/cap)^κ / (d/minRTT).
func R1(deliveryBps, lossBps, capacityBps float64, delay, minRTT sim.Time, xi, kappa float64) float64 {
	if capacityBps <= 0 || minRTT <= 0 || delay <= 0 {
		return 0
	}
	num := (deliveryBps - float64(xi*lossBps)) / capacityBps
	if num < 0 {
		num = 0
	}
	d := float64(delay) / float64(minRTT)
	if d < 1 {
		d = 1
	}
	return math.Pow(num, kappa) / d
}

// R2 computes the TCP-friendliness reward of Eq. 2: exp(−8(x−1)²) with
// x = r/fr, peaking at the ideal fair share (Fig. 5).
func R2(deliveryBps, fairShareBps float64) float64 {
	if fairShareBps <= 0 {
		return 0
	}
	x := deliveryBps / fairShareBps
	return math.Exp(-8 * (x - 1) * (x - 1))
}
