package netem

import (
	"fmt"

	"sage/internal/sim"
)

// Scenario fully describes one emulated network environment, mirroring the
// four knobs the paper controls: link capacity, minimum end-to-end delay,
// bottleneck buffer size, and the presence of competing Cubic flows
// (Appendix C).
type Scenario struct {
	Name       string
	Rate       *RateSchedule
	MinRTT     sim.Time
	QueueBytes int
	AQM        AQMKind
	Duration   sim.Time
	CubicFlows int      // competing Cubic background flows (Set II)
	TestStart  sim.Time // when the flow under test joins (after Cubic warms up)
	Jitter     sim.Time
	LossProb   float64
	Seed       int64

	// Adversarial conditions (see AdversarialGrid). All zero values mean
	// "well-behaved network", so existing scenarios are unaffected.
	ReorderProb  float64        // per-data-packet probability of extra reorder delay
	ReorderDelay sim.Time       // max extra one-way delay for a reordered packet
	AckLossProb  float64        // iid loss on the ACK (reverse) path
	AckDupProb   float64        // iid duplication on the ACK path
	Gilbert      GilbertElliott // burst loss on the data path
}

// Build instantiates the scenario's network on loop.
func (s Scenario) Build(loop *sim.Loop) *Network {
	return New(loop, Config{
		Rate:         s.Rate,
		MinRTT:       s.MinRTT,
		Queue:        NewQueue(s.AQM, s.QueueBytes, s.Seed),
		Jitter:       s.Jitter,
		LossProb:     s.LossProb,
		ReorderProb:  s.ReorderProb,
		ReorderDelay: s.ReorderDelay,
		AckLossProb:  s.AckLossProb,
		AckDupProb:   s.AckDupProb,
		Gilbert:      s.Gilbert,
		Seed:         s.Seed,
	})
}

// Validate rejects nonsensical scenario configurations with descriptive
// errors. Collection and evaluation entry points call it before running,
// so a bad hand-built scenario fails up front instead of silently
// producing a simulation that stalls forever or divides by zero.
func (s Scenario) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("netem: scenario %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if s.Rate == nil {
		return fail("nil rate schedule")
	}
	if s.Rate.MaxRate() <= 0 {
		return fail("rate schedule never exceeds 0 bps (the link could carry nothing)")
	}
	if s.Duration <= 0 {
		return fail("non-positive duration %v", s.Duration)
	}
	if s.MinRTT <= 0 {
		return fail("non-positive MinRTT %v", s.MinRTT)
	}
	if s.QueueBytes < 0 {
		return fail("negative queue size %d bytes", s.QueueBytes)
	}
	if s.TestStart < 0 {
		return fail("negative TestStart %v", s.TestStart)
	}
	if s.TestStart >= s.Duration {
		return fail("TestStart %v is not before Duration %v (the flow under test would never run)", s.TestStart, s.Duration)
	}
	if s.CubicFlows < 0 {
		return fail("negative CubicFlows %d", s.CubicFlows)
	}
	if s.Jitter < 0 {
		return fail("negative jitter %v", s.Jitter)
	}
	if s.ReorderDelay < 0 {
		return fail("negative reorder delay %v", s.ReorderDelay)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"LossProb", s.LossProb}, {"ReorderProb", s.ReorderProb},
		{"AckLossProb", s.AckLossProb}, {"AckDupProb", s.AckDupProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fail("%s = %g outside [0,1]", p.name, p.v)
		}
	}
	if s.ReorderProb > 0 && s.ReorderDelay <= 0 {
		return fail("ReorderProb %g with zero ReorderDelay (would reorder nothing)", s.ReorderProb)
	}
	if err := s.Gilbert.Validate(); err != nil {
		return fail("%v", err)
	}
	return nil
}

// ValidateAll validates every scenario and reports the first offender.
func ValidateAll(scens []Scenario) error {
	for _, sc := range scens {
		if err := sc.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// FairShare returns the ideal fair share in bits/second for the flow under
// test over the scenario's active test window.
func (s Scenario) FairShare() float64 {
	return s.Rate.MeanRateUntil(s.Duration) / float64(s.CubicFlows+1)
}

// GridLevel selects how densely the Set I / Set II parameter ranges are
// sampled. The paper's pool covers >1000 environments (GridFull); tests and
// benches use the sparser levels with the same parameter ranges.
type GridLevel int

// Grid densities.
const (
	GridTiny GridLevel = iota
	GridSmall
	GridFull
)

// ParseLevel maps the CLI spelling of a grid density to its GridLevel —
// shared by sage-collect and sage-coord so a campaign spec serialized by
// one is guaranteed to mean the same grid to the other.
func ParseLevel(s string) (GridLevel, error) {
	switch s {
	case "tiny":
		return GridTiny, nil
	case "small":
		return GridSmall, nil
	case "full":
		return GridFull, nil
	}
	return 0, fmt.Errorf("netem: unknown grid level %q (want tiny|small|full)", s)
}

type gridAxes struct {
	bwMbps  []float64
	rttMs   []float64
	qsBDP   []float64
	stepMul []float64
}

func axes(level GridLevel) gridAxes {
	switch level {
	case GridTiny:
		return gridAxes{
			bwMbps:  []float64{24, 96},
			rttMs:   []float64{20, 80},
			qsBDP:   []float64{1, 4},
			stepMul: []float64{0.5, 2},
		}
	case GridSmall:
		return gridAxes{
			bwMbps:  []float64{12, 48, 192},
			rttMs:   []float64{10, 40, 160},
			qsBDP:   []float64{0.5, 2, 8},
			stepMul: []float64{0.25, 0.5, 2, 4},
		}
	default:
		return gridAxes{
			bwMbps:  []float64{12, 24, 48, 96, 192},
			rttMs:   []float64{10, 20, 40, 80, 160},
			qsBDP:   []float64{0.5, 1, 2, 4, 8, 16},
			stepMul: []float64{0.25, 0.5, 2, 4},
		}
	}
}

// SetIOptions tunes the generated single-flow scenarios.
type SetIOptions struct {
	Level    GridLevel
	Duration sim.Time // per-scenario run length (default 10 s)
	Seed     int64
}

// SetI generates the paper's Set I: single-flow flat scenarios over
// BW ∈ [12,192] Mb/s, minRTT ∈ [10,160] ms, qs ∈ [½,16]×BDP, plus step
// scenarios where the rate is multiplied by m ∈ {0.25, 0.5, 2, 4} mid-run
// (capped at 200 Mb/s, per Appendix C.1).
func SetI(opt SetIOptions) []Scenario {
	a := axes(opt.Level)
	if opt.Duration == 0 {
		opt.Duration = 10 * sim.Second
	}
	var out []Scenario
	seed := opt.Seed
	for _, bw := range a.bwMbps {
		for _, rtt := range a.rttMs {
			for _, qs := range a.qsBDP {
				mrtt := sim.FromMillis(rtt)
				qb := queueBytes(Mbps(bw), mrtt, qs)
				seed++
				out = append(out, Scenario{
					Name:       fmt.Sprintf("flat-%gmbps-%gms-%gbdp", bw, rtt, qs),
					Rate:       FlatRate(Mbps(bw)),
					MinRTT:     mrtt,
					QueueBytes: qb,
					Duration:   opt.Duration,
					Seed:       seed,
				})
			}
		}
	}
	// Step scenarios: vary bw and multiplier at a mid grid point of rtt/qs.
	midRTT := a.rttMs[len(a.rttMs)/2]
	midQS := a.qsBDP[len(a.qsBDP)/2]
	for _, bw := range a.bwMbps {
		for _, m := range a.stepMul {
			after := bw * m
			if after > 200 || after < 1 {
				continue
			}
			mrtt := sim.FromMillis(midRTT)
			ref := bw
			if after > ref {
				ref = after
			}
			qb := queueBytes(Mbps(ref), mrtt, midQS)
			seed++
			out = append(out, Scenario{
				Name:       fmt.Sprintf("step-%gto%gmbps-%gms-%gbdp", bw, after, midRTT, midQS),
				Rate:       StepRate(Mbps(bw), Mbps(after), opt.Duration/2),
				MinRTT:     mrtt,
				QueueBytes: qb,
				Duration:   opt.Duration,
				Seed:       seed,
			})
		}
	}
	return out
}

// SetIIOptions tunes the generated multi-flow (TCP-friendliness) scenarios.
type SetIIOptions struct {
	Level      GridLevel
	Duration   sim.Time // default 30 s (paper uses 120 s; scaled)
	CubicFlows int      // default 1 (the paper's two-flow pool scenarios)
	Seed       int64
}

// SetII generates the paper's Set II: the scheme under test joins a
// bottleneck already carrying Cubic traffic, with qs ∈ [1,16]×BDP so the
// buffer can absorb more than one flow (Appendix C.2).
func SetII(opt SetIIOptions) []Scenario {
	a := axes(opt.Level)
	if opt.Duration == 0 {
		opt.Duration = 30 * sim.Second
	}
	if opt.CubicFlows == 0 {
		opt.CubicFlows = 1
	}
	var out []Scenario
	seed := opt.Seed + 10_000
	for _, bw := range a.bwMbps {
		for _, rtt := range a.rttMs {
			for _, qs := range a.qsBDP {
				if qs < 1 {
					qs = 1
				}
				mrtt := sim.FromMillis(rtt)
				qb := queueBytes(Mbps(bw), mrtt, qs)
				seed++
				out = append(out, Scenario{
					Name:       fmt.Sprintf("vs%dcubic-%gmbps-%gms-%gbdp", opt.CubicFlows, bw, rtt, qs),
					Rate:       FlatRate(Mbps(bw)),
					MinRTT:     mrtt,
					QueueBytes: qb,
					Duration:   opt.Duration,
					CubicFlows: opt.CubicFlows,
					TestStart:  opt.Duration / 10,
					Seed:       seed,
				})
			}
		}
	}
	return dedupeScenarios(out)
}

func queueBytes(bps float64, rtt sim.Time, bdpMult float64) int {
	qb := int(float64(BDPBytes(bps, rtt)) * bdpMult)
	if qb < 2*MTU {
		qb = 2 * MTU
	}
	return qb
}

func dedupeScenarios(in []Scenario) []Scenario {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if seen[s.Name] {
			continue
		}
		seen[s.Name] = true
		out = append(out, s)
	}
	return out
}
