package cli

import (
	"flag"
	"fmt"
	"slices"
	"strings"
	"time"

	"sage/internal/cc"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/sim"
	"sage/internal/telemetry"
)

// Flags is a binary's flag set plus what the shared flags need done once
// the command line is known. The order in a run function is: define flags,
// Parse (usage errors, nothing touched yet), the binary's own validation,
// Open (the -pprof listener and the sinks — before any work, so a bad
// address or path fails in milliseconds, not after the run).
type Flags struct {
	*flag.FlagSet
	args   []string
	checks []func() error // validation of the shared flags, run by Parse
	pprof  *string
	sinks  []*Sink
}

// Parse parses the command line and validates the shared flags. Every
// error it returns is a usage error.
func (f *Flags) Parse() error {
	if err := f.FlagSet.Parse(f.args); err != nil {
		return Exit(ExitUsage, err)
	}
	for _, check := range f.checks {
		if err := check(); err != nil {
			return Exit(ExitUsage, err)
		}
	}
	return nil
}

// Respell gives a shared flag this binary's own help line and, when def is
// not empty, its own default.
func (f *Flags) Respell(name, usage, def string) {
	fl := f.Lookup(name)
	fl.Usage = usage
	if def != "" {
		fl.Value.Set(def)
		fl.DefValue = def
	}
}

// Pprof defines -pprof.
func (f *Flags) Pprof(usage string) { f.pprof = f.String("pprof", "", usage) }

// Sink is a JSONL stream behind a path flag. The embedded emitter is nil —
// and so a no-op — until Open, and for good when the flag is not given.
type Sink struct {
	*telemetry.JSONL
	path string
}

// Sink defines a flag naming a JSONL file (-metrics, -events).
func (f *Flags) Sink(name, usage string) *Sink {
	s := &Sink{}
	f.StringVar(&s.path, name, "", usage)
	f.sinks = append(f.sinks, s)
	return s
}

// Open starts the -pprof endpoint and creates the sink files.
func (f *Flags) Open() error {
	if f.pprof != nil && *f.pprof != "" {
		if _, err := telemetry.ServeDebug(*f.pprof); err != nil {
			return err
		}
		fmt.Printf("pprof: http://%s/debug/pprof/\n", *f.pprof)
	}
	for _, s := range f.sinks {
		if s.path == "" {
			continue
		}
		j, err := telemetry.CreateJSONL(s.path)
		if err != nil {
			return err
		}
		s.JSONL = j
	}
	return nil
}

// Close flushes and closes every open sink and returns the first error.
func (f *Flags) Close() error {
	var first error
	for _, s := range f.sinks {
		if err := s.Close(); first == nil {
			first = err
		}
	}
	return first
}

// Level defines a grid-density flag; the value is valid after Parse.
func (f *Flags) Level(name, usage string) *netem.GridLevel {
	lvl := new(netem.GridLevel)
	f.checkLevel(lvl, f.String(name, "tiny", usage))
	return lvl
}

func (f *Flags) checkLevel(lvl *netem.GridLevel, name *string) {
	f.checks = append(f.checks, func() (err error) {
		*lvl, err = netem.ParseLevel(*name)
		return err
	})
}

// period rejects a non-positive step period: the progress and checkpoint
// callbacks take the step modulo it.
func (f *Flags) period(name string, p *int) {
	f.checks = append(f.checks, func() error {
		if *p <= 0 {
			return fmt.Errorf("-%s must be positive, got %d", name, *p)
		}
		return nil
	})
}

// group registers the flags of a shared group under one binary's spelling:
// prefix goes in front of every help line, and the flags named in omit are
// not offered.
type group struct {
	prefix string
	omit   []string
}

func (g group) has(name string) bool { return !slices.Contains(g.omit, name) }

func add[T any](g group, define func(p *T, name string, value T, usage string), p *T, name string, value T, usage string) {
	if g.has(name) {
		define(p, name, value, g.prefix+usage)
	}
}

// Train is the learner flag group of sage-train, sage-coord and sage-loop.
type Train struct {
	Steps, Enc, GRU, GMM int
	Mask                 []int // resolved from -mask by Parse
	Seed                 int64
	Checkpoint           string
	CheckpointEvery      int
	CheckpointKeep       int
	LogEvery             int
}

// Train defines -steps -enc -gru -gmm -mask -seed -checkpoint
// -checkpoint-every -checkpoint-keep -log-every, less the ones in omit.
func (f *Flags) Train(prefix string, omit ...string) *Train {
	t, g := &Train{}, group{prefix, omit}
	add(g, f.IntVar, &t.Steps, "steps", 2000, "CRR gradient steps")
	add(g, f.IntVar, &t.Enc, "enc", 32, "encoder width")
	add(g, f.IntVar, &t.GRU, "gru", 16, "GRU width")
	add(g, f.IntVar, &t.GMM, "gmm", 3, "GMM components")
	add(g, f.Int64Var, &t.Seed, "seed", 1, "seed")
	add(g, f.StringVar, &t.Checkpoint, "checkpoint", "", "checkpoint file (written every checkpoint-every steps; resumed from if present)")
	add(g, f.IntVar, &t.CheckpointEvery, "checkpoint-every", 1000, "checkpoint period in steps")
	add(g, f.IntVar, &t.CheckpointKeep, "checkpoint-keep", 3, "previous checkpoint generations kept")
	add(g, f.IntVar, &t.LogEvery, "log-every", 100, "progress period in steps")
	mask := f.String("mask", "full", prefix+"input mask: "+gr.MaskNames)
	f.checks = append(f.checks, func() (err error) {
		t.Mask, err = gr.MaskByName(*mask)
		return err
	})
	f.period("checkpoint-every", &t.CheckpointEvery)
	if g.has("log-every") {
		f.period("log-every", &t.LogEvery)
	}
	return t
}

// Policy is the network the group describes.
func (t *Train) Policy() nn.PolicyConfig {
	return nn.PolicyConfig{Enc: t.Enc, Hidden: t.GRU, ResBlocks: 2, K: t.GMM}
}

// Scenarios is the environment-grid flag group of sage-collect, sage-coord
// and sage-eval.
type Scenarios struct {
	LevelName string
	Level     netem.GridLevel // resolved from LevelName by Parse
	SetIDur   time.Duration
	SetIIDur  time.Duration
	Schemes   []string // resolved from -schemes by Parse: validated names, the 13-scheme pool when not given
	Window    int
}

// Scenarios defines -level -seti-dur -setii-dur -schemes -window, less the
// ones in omit.
func (f *Flags) Scenarios(prefix string, omit ...string) *Scenarios {
	s, g := &Scenarios{}, group{prefix, omit}
	f.StringVar(&s.LevelName, "level", "tiny", prefix+"grid density: tiny|small|full")
	f.checkLevel(&s.Level, &s.LevelName)
	f.DurationVar(&s.SetIDur, "seti-dur", 10*time.Second, prefix+"Set I scenario duration")
	f.DurationVar(&s.SetIIDur, "setii-dur", 30*time.Second, prefix+"Set II scenario duration")
	add(g, f.IntVar, &s.Window, "window", 0, "uniform observation window (0 = the default 10/200/1000)")
	if g.has("schemes") {
		schemes := f.String("schemes", "", prefix+"comma-separated schemes (default: the 13-scheme pool)")
		// A typo fails in microseconds with the known list, not hours
		// into a campaign.
		f.checks = append(f.checks, func() error {
			s.Schemes = cc.PoolNames()
			if *schemes != "" {
				s.Schemes = strings.Split(*schemes, ",")
			}
			return cc.Validate(s.Schemes...)
		})
	}
	return s
}

// Sets builds the Set I and Set II grids the flags describe.
func (s *Scenarios) Sets(seed int64) (setI, setII []netem.Scenario) {
	return netem.SetI(netem.SetIOptions{Level: s.Level, Duration: sim.FromSeconds(s.SetIDur.Seconds()), Seed: seed}),
		netem.SetII(netem.SetIIOptions{Level: s.Level, Duration: sim.FromSeconds(s.SetIIDur.Seconds()), Seed: seed})
}
