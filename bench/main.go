// Command bench is the repository's benchmark: four workloads over the
// simulate, collect, learn and serve paths, measured end to end with
// tracing off and layer by layer with tracing on. README.md in this
// directory is the metric catalogue; BENCHMARK.json at the repository root
// is the definition this program reads its metric names and bounds from.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run, one JSON line
//	bench [-reps R] [-seed N] [-only W] [-out DIR]    every workload, R seeds each
//	bench -compare A.json B.json                      do two result sets agree?
//	bench -smoke                                      every workload, tiny, once
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"sage/internal/sim"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in this directory or any parent; pass -root")
		}
		dir = parent
	}
}

// sizes fixes how much work one repetition of each workload is. A
// repetition is fixed work, never fixed time: -seconds only decides how
// many repetitions a run makes.
type sizes struct {
	setups int // set-ups per run; setup_s is their median

	fleetFlows     int
	fleetDur       sim.Time
	fleetWarmFlows int

	gridSchemes       []string // nil = every pool scheme
	gridSetI          sim.Time
	gridSetII         sim.Time
	trainPoolDur      sim.Time // Set I only
	trainWarmup       int
	trainChunk        int
	wireWarmup        int // decisions per connection before timing
	wireAllocDecides  int
	wireWindow        time.Duration
	probeEvents       int
	probePkts         int
	probeFlowDur      sim.Time
	probeForwardRows  int
	wireProbeRequests int
}

var fullSizes = sizes{
	setups:            7,
	fleetFlows:        fleetFlows,
	fleetDur:          5 * sim.Second,
	fleetWarmFlows:    64,
	gridSetI:          sim.Second,
	gridSetII:         3 * sim.Second / 2,
	trainPoolDur:      2 * sim.Second,
	trainWarmup:       30,
	trainChunk:        100,
	wireWarmup:        300,
	wireAllocDecides:  1000,
	wireWindow:        time.Second,
	probeEvents:       1 << 20,
	probePkts:         1 << 19,
	probeFlowDur:      20 * sim.Second,
	probeForwardRows:  1 << 15,
	wireProbeRequests: 1000,
}

// smokeSizes is every workload at roughly a twentieth of full size, for
// the test that keeps the harness compiling and its checks exercised.
var smokeSizes = sizes{
	setups:            1,
	fleetFlows:        32,
	fleetDur:          2 * sim.Second,
	fleetWarmFlows:    8,
	gridSchemes:       []string{"cubic", "vegas", "bbr2"},
	gridSetI:          sim.Second,
	gridSetII:         sim.Second,
	trainPoolDur:      sim.Second,
	trainWarmup:       3,
	trainChunk:        10,
	wireWarmup:        20,
	wireAllocDecides:  50,
	wireWindow:        100 * time.Millisecond,
	probeEvents:       1 << 14,
	probePkts:         1 << 13,
	probeFlowDur:      sim.Second,
	probeForwardRows:  1 << 9,
	wireProbeRequests: 50,
}

// env is what one run of one workload is given.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	root     string
	tmp      string // scratch for this run, inside the checkout, removed afterwards
	out      string // where a traced run leaves its spans
	serveBin string // built on demand when empty
	log      io.Writer
}

// rep is what one repetition measured.
type rep struct {
	ops     int64
	wall    time.Duration
	latUs   []float64
	mallocs uint64
	bytes   uint64
}

// outcome is what a run reports.
type outcome struct {
	attempted, failed int64
	problems          []string           // failed output checks; empty means correct
	metrics           map[string]float64 // end-to-end (trace off) or per-layer (trace on)
	hashes            map[string]string
	spans             []span
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, hashes: map[string]string{}}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// sameHash records the first hash seen under key and reports every later
// one that differs: repeated work must repeat its output bit for bit.
func (o *outcome) sameHash(key, hash string) {
	if first, seen := o.hashes[key]; !seen {
		o.hashes[key] = hash
	} else if first != hash {
		o.problem("%s: %s hashes to %s this time, %s the first time", key, key, hash, first)
	}
}

// timed runs fn between two clock reads and two MemStats reads, after a
// collection so every repetition starts from the same heap.
func timed(fn func()) (wall time.Duration, mallocs, bytes uint64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	return wall, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// endToEnd folds a run's set-ups and repetitions into the end-to-end
// metrics. Every timed metric is read from its best repetition — the
// highest throughput, the lowest p50, the lowest p90 — because interference
// on a shared machine only ever slows a repetition down, and measured here
// the best repetition repeats from run to run where the median drifts. p90
// is the highest percentile with ten samples beyond it in one repetition of
// every workload. Allocation counts repeat almost exactly, so their median
// is as good as any.
func (o *outcome) endToEnd(e *env, setupS []float64, reps []rep) {
	var rate, p50, p90, allocs, bytes []float64
	for i, r := range reps {
		sorted := append([]float64(nil), r.latUs...)
		lat := summarize(sorted) // sorts in place
		rate = append(rate, float64(r.ops)/r.wall.Seconds())
		p50 = append(p50, lat.P50)
		p90 = append(p90, pct(sorted, 0.90))
		if r.mallocs > 0 {
			allocs = append(allocs, float64(r.mallocs)/float64(r.ops))
			bytes = append(bytes, float64(r.bytes)/float64(r.ops))
		}
		fmt.Fprintf(e.log, "%s rep %d: ops=%d wall=%.4fs ops/s=%.5g lat µs: %v\n", e.workload, i+1, r.ops, r.wall.Seconds(), rate[i], lat)
	}
	o.metrics["setup_s"] = median(setupS)
	o.metrics["ops_per_s"] = slices.Max(rate)
	o.metrics["lat_p50_us"] = slices.Min(p50)
	o.metrics["lat_p90_us"] = slices.Min(p90)
	o.metrics["allocs_per_op"] = median(allocs)
	o.metrics["alloc_bytes_per_op"] = median(bytes)
	fmt.Fprintf(e.log, "%s: %d set-ups %.4g s, %d repetitions\n", e.workload, len(setupS), setupS, len(reps))
}

// peakRSSMB is this process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

var workloads = map[string]func(*env) (*outcome, error){
	"sim_fleet":    runSimFleet,
	"collect_grid": runCollectGrid,
	"train_crr":    runTrainCRR,
	"serve_wire":   runServeWire,
}

// runOne executes one workload once and writes the result line.
func runOne(e *env, sp *spec, stdout io.Writer) error {
	fn, ok := workloads[e.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", e.workload)
	}
	runtime.GOMAXPROCS(2) // the numbers are defined on two cores
	tmp, err := os.MkdirTemp(e.tmp, e.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e.tmp = tmp
	o, err := fn(e)
	if err != nil {
		return err
	}
	for _, p := range o.problems {
		fmt.Fprintln(e.log, "CHECK FAILED:", p)
	}
	for k, h := range o.hashes {
		fmt.Fprintf(e.log, "hash %s = %s\n", k, h)
	}
	if len(o.problems) > 0 {
		// A failed output check voids the run's work, whatever ran.
		o.failed = o.attempted
	}
	defs := sp.EndToEnd
	if e.trace {
		defs = sp.PerLayer
		if err := writeTrace(filepath.Join(e.out, "trace-"+e.workload+".jsonl"), o.spans); err != nil {
			return err
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(o.problems) == 0, max(o.attempted, 1), o.failed, map[string]value{}}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok && !e.trace {
			return fmt.Errorf("%s did not measure end-to-end metric %s", e.workload, d.Name)
		}
		// A per-layer metric a workload does not report reads 0: the
		// layer is not on that workload's path.
		res.Metrics[d.Name] = value{v, d.Unit}
		delete(o.metrics, d.Name)
	}
	for k := range o.metrics {
		return fmt.Errorf("%s measured %s, which BENCHMARK.json does not define", e.workload, k)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this one workload once and print one JSON result line")
		seed     = fs.Int64("seed", 1, "every generated input derives from this")
		seconds  = fs.Float64("seconds", 0, "how long one run measures (default: run_seconds in BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		smoke    = fs.Bool("smoke", false, "every workload at about 1/20 scale, once, all output checks on")
		root     = fs.String("root", "", "checkout root (default: nearest parent holding BENCHMARK.json)")
		out      = fs.String("out", "", "directory for results.json and traces (default: <root>/.bench_build/out)")
		serveBin = fs.String("serve-bin", "", "prebuilt sage-serve (default: build it from the checkout)")
		reps     = fs.Int("reps", 3, "suite: runs per workload, each with the next seed")
		only     = fs.String("only", "", "suite: just this workload")
		compare  = fs.Bool("compare", false, "compare two results.json files given as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *root == "" {
		r, err := findRoot()
		if err != nil {
			return fail(err)
		}
		*root = r
	}
	sp, err := loadSpec(*root)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	build := filepath.Join(*root, ".bench_build")
	if *out == "" {
		*out = filepath.Join(build, "out")
	}
	tmp := filepath.Join(build, "tmp")
	for _, d := range []string{*out, tmp} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return fail(err)
		}
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
	}
	e := env{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		sz: fullSizes, root: *root, tmp: tmp, out: *out, serveBin: *serveBin, log: stderr,
	}
	if *smoke {
		e.sz, e.seconds = smokeSizes, 0.3
	}
	if *workload != "" {
		if err := runOne(&e, sp, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	return runSuite(&e, sp, *reps, *only, *smoke, stdout, stderr)
}
