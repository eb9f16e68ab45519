// Package exp implements every experiment of the paper's evaluation: one
// function per table/figure, each returning printable result tables. The
// root-level benchmarks and cmd/sage-bench both drive this package, so a
// figure is regenerated identically from `go test -bench` and from the CLI.
//
// Experiments share expensive artifacts (the collected pool, the trained
// Sage model, the baseline models) through Artifacts, which memoizes them
// per Sizing.
package exp

import (
	"fmt"
	"io"
	"strings"

	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rl"
	"sage/internal/sim"
)

// Sizing scales every experiment. Quick is CPU/bench-sized; Paper raises
// grids, durations and training toward the paper's own scale (the shapes
// are the claim, not the absolute numbers — see EXPERIMENTS.md).
type Sizing struct {
	Name string

	Level    netem.GridLevel
	SetIDur  sim.Time
	SetIIDur sim.Time

	TrainSteps   int // CRR gradient steps for Sage
	BCSteps      int
	OnlineRounds int // env interactions for OnlineRL/Orca/DeepCC
	OnlineSteps  int // gradient steps per interaction
	Episodes     int // Aurora/Genet on-policy episodes
	DaggerIters  int // Indigo

	Policy nn.PolicyConfig

	PathCount int // paths per Fig. 8 regime
	PathDur   sim.Time
	Repeats   int

	Parallel int
	Seed     int64
}

// Quick returns the bench-sized preset: tiny grids, seconds-long emulations,
// and CPU-sized networks. A full suite run finishes in minutes.
func Quick() Sizing {
	return Sizing{
		Name:         "quick",
		Level:        netem.GridTiny,
		SetIDur:      4 * sim.Second,
		SetIIDur:     12 * sim.Second,
		TrainSteps:   3000,
		BCSteps:      800,
		OnlineRounds: 6,
		OnlineSteps:  60,
		Episodes:     8,
		DaggerIters:  2,
		Policy:       nn.PolicyConfig{Enc: 32, Hidden: 16, ResBlocks: 2, K: 3},
		PathCount:    3,
		PathDur:      8 * sim.Second,
		Repeats:      1,
		Seed:         1,
	}
}

// Paper returns a heavier preset approaching the paper's setup (full grid,
// 10/30 s runs, larger networks). Expect hours of CPU time.
func Paper() Sizing {
	return Sizing{
		Name:         "paper",
		Level:        netem.GridFull,
		SetIDur:      10 * sim.Second,
		SetIIDur:     60 * sim.Second,
		TrainSteps:   20000,
		BCSteps:      10000,
		OnlineRounds: 60,
		OnlineSteps:  200,
		Episodes:     60,
		DaggerIters:  4,
		Policy:       nn.PolicyConfig{Enc: 128, Hidden: 128, ResBlocks: 2, K: 5},
		PathCount:    13,
		PathDur:      15 * sim.Second,
		Repeats:      3,
		Seed:         1,
	}
}

// crr returns the CRR config for this sizing. Paper sizing trains
// data-parallel.
func (s Sizing) crr() rl.CRRConfig {
	workers := 0
	if s.Name == "paper" {
		workers = 8
	}
	return rl.CRRConfig{
		Policy:  s.Policy,
		Steps:   s.TrainSteps,
		Workers: workers,
		Seed:    s.Seed,
	}
}

// SetI returns the sizing's single-flow scenarios.
func (s Sizing) SetI() []netem.Scenario {
	return netem.SetI(netem.SetIOptions{Level: s.Level, Duration: s.SetIDur, Seed: s.Seed})
}

// SetII returns the sizing's multi-flow scenarios.
func (s Sizing) SetII() []netem.Scenario {
	return netem.SetII(netem.SetIIOptions{Level: s.Level, Duration: s.SetIIDur, Seed: s.Seed})
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i < len(widths) {
				sb.WriteString(fmt.Sprintf("%-*s  ", widths[i], c))
			} else {
				sb.WriteString(c + "  ")
			}
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

// pct formats a rate as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// mbps formats bits/second as Mb/s.
func mbps(v float64) string { return fmt.Sprintf("%.2f", v/1e6) }

// ms formats a sim.Time as milliseconds.
func msStr(t sim.Time) string { return fmt.Sprintf("%.1f", t.Millis()) }
