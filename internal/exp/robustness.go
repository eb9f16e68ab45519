package exp

import (
	"fmt"

	"sage/internal/cc"
	"sage/internal/core"
	"sage/internal/guard"
	"sage/internal/netem"
	"sage/internal/rollout"
	"sage/internal/sim"
	"sage/internal/telemetry"
)

// robustnessRun is one (scheme, adversarial scenario) rollout outcome.
type robustnessRun struct {
	Scenario  string  `json:"scenario"`
	Scheme    string  `json:"scheme"`
	Completed bool    `json:"completed"`
	ThrBps    float64 `json:"thr_bps"`
	FairBps   float64 `json:"fair_bps"`
	StallMs   float64 `json:"stall_ms"`
	LossRate  float64 `json:"loss_rate"`
	Trips     int     `json:"trips"`
	Restores  int     `json:"restores"`
}

// robustnessStallPeriod is the sampling period stall time is measured at:
// a period with zero receiver throughput counts as stalled.
const robustnessStallPeriod = 100 * sim.Millisecond

// Robustness is the runtime-safety experiment: the trained policy runs
// bare, guarded, and against the Cubic yardstick over the adversarial
// grid (link flaps, blackouts, reordering, ACK loss/duplication, burst
// loss) — conditions deliberately absent from the training pool. It
// reports completion rate, stall time, and guardian trip counts: the
// serving-time counterpart of the storage-time fault-tolerance suite.
func Robustness(a *Artifacts) []*Table {
	return RobustnessWithModel(a.Sage(), a.S.Level, a.S.SetIDur, a.S.Seed, nil)
}

// RobustnessWithModel runs the robustness matrix for an explicit model
// (sage-eval calls this with a model loaded from disk). Per-run records
// are emitted to events (nil-safe), and guardian trip/restore events ride
// along on the same stream.
func RobustnessWithModel(m *core.Model, level netem.GridLevel, dur sim.Time, seed int64, events *telemetry.JSONL) []*Table {
	grid := netem.AdversarialGrid(netem.AdversarialOptions{Level: level, Duration: dur, Seed: seed})
	if err := netem.ValidateAll(grid); err != nil {
		// The grid is generated, not user input: a validation failure here
		// is a bug in AdversarialGrid itself.
		panic(err)
	}

	reg := telemetry.NewRegistry()
	schemes := []string{"sage", "sage+guard", "cubic"}
	var runs []robustnessRun
	for _, sc := range grid {
		for _, scheme := range schemes {
			opt := rollout.Options{SamplePeriod: robustnessStallPeriod}
			var g *guard.GuardedController
			var under = "pure"
			switch scheme {
			case "sage":
				opt.Controller = m.NewAgent(seed)
			case "sage+guard":
				g = guard.New(m.NewAgent(seed), guard.Config{Metrics: reg})
				opt.Controller = g
			case "cubic":
				under = "cubic"
			}
			res := rollout.Run(sc, cc.MustNew(under), opt)
			run := robustnessRun{
				Scenario: sc.Name,
				Scheme:   scheme,
				ThrBps:   res.ThroughputBps,
				FairBps:  sc.FairShare(),
				StallMs:  stallTime(res.Series).Millis(),
				LossRate: res.LossRate,
			}
			run.Completed = res.Completed()
			if g != nil {
				run.Trips = g.Trips()
				run.Restores = g.Restores()
				g.EmitEvents(events)
			}
			events.Emit(run)
			runs = append(runs, run)
		}
	}

	summary := &Table{
		Title:  "robustness: adversarial grid summary (completion / stall / trips)",
		Header: []string{"scheme", "completed", "avg stall ms", "avg thr/fair", "trips", "restores"},
	}
	for _, scheme := range schemes {
		var n, done, trips, restores int
		var stall, rel float64
		for _, r := range runs {
			if r.Scheme != scheme {
				continue
			}
			n++
			if r.Completed {
				done++
			}
			stall += r.StallMs
			if r.FairBps > 0 {
				rel += r.ThrBps / r.FairBps
			}
			trips += r.Trips
			restores += r.Restores
		}
		if n == 0 {
			continue
		}
		summary.AddRow(scheme,
			fmt.Sprintf("%d/%d", done, n),
			fmt.Sprintf("%.0f", stall/float64(n)),
			pct(rel/float64(n)),
			fmt.Sprintf("%d", trips),
			fmt.Sprintf("%d", restores),
		)
	}

	detail := &Table{
		Title:  "robustness: per-scenario throughput (Mb/s) and stall (ms)",
		Header: []string{"scenario", "sage thr", "sage stall", "guard thr", "guard stall", "guard trips", "cubic thr", "cubic stall"},
	}
	for _, sc := range grid {
		byScheme := map[string]robustnessRun{}
		for _, r := range runs {
			if r.Scenario == sc.Name {
				byScheme[r.Scheme] = r
			}
		}
		s, gd, cu := byScheme["sage"], byScheme["sage+guard"], byScheme["cubic"]
		detail.AddRow(sc.Name,
			mbps(s.ThrBps), fmt.Sprintf("%.0f", s.StallMs),
			mbps(gd.ThrBps), fmt.Sprintf("%.0f", gd.StallMs),
			fmt.Sprintf("%d", gd.Trips),
			mbps(cu.ThrBps), fmt.Sprintf("%.0f", cu.StallMs),
		)
	}

	guardStats := &Table{
		Title:  "robustness: guardian telemetry counters",
		Header: []string{"counter", "value"},
	}
	snap := reg.Snapshot()
	for _, name := range telemetry.Names(snap) {
		guardStats.AddRow(name, fmt.Sprintf("%g", snap[name]))
	}
	if len(guardStats.Rows) == 0 {
		guardStats.AddRow("(no guardian interventions)", "0")
	}

	return []*Table{summary, detail, guardStats}
}

// stallTime sums the sampling periods in which the receiver made no
// progress — the operator-facing "connection is dead" seconds.
func stallTime(series []rollout.Sample) sim.Time {
	var prev sim.Time
	var stalled sim.Time
	for i, s := range series {
		if i > 0 && s.ThrBps == 0 {
			stalled += s.At - prev
		}
		prev = s.At
	}
	return stalled
}
