package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// results is results.json: what a whole suite measured.
type results struct {
	Seed       int64                      `json:"seed"`
	Reps       int                        `json:"reps"`
	RunSeconds float64                    `json:"run_seconds"`
	Go         string                     `json:"go"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Ops      int64              `json:"ops"`
	Failed   int64              `json:"failed"`
	Correct  bool               `json:"correct"`
	EndToEnd map[string]agg     `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer"`
}

// runResult is the line one run prints.
type runResult struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// asMainEnv makes the test binary act as the benchmark when the suite
// re-executes itself from a test (see TestMain); the real binary ignores it.
const asMainEnv = "SAGE_BENCH_AS_MAIN"

// child runs one workload once in a fresh process and parses its result.
func child(self string, e *env, workload string, seed int64, trace, smoke bool, stderr io.Writer) (*runResult, error) {
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(e.seconds, 'g', -1, 64),
		"-root", e.root, "-out", e.out, "-serve-bin", e.serveBin,
	}
	if trace {
		args = append(args, "-trace", "1")
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &r, nil
}

// runSuite measures every workload reps times, one fresh process per run,
// run i with seed+i, workloads interleaved round-robin so that a slow
// minute on a shared machine lands on all of them; then one traced run
// each. It prints every metric by name and unit and writes results.json.
func runSuite(e *env, sp *spec, reps int, only string, smoke bool, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	if smoke {
		reps = 1
	}
	if e.serveBin == "" {
		bin := filepath.Join(e.root, ".bench_build", "bin")
		if err := os.MkdirAll(bin, 0o755); err != nil {
			return fail(err)
		}
		if e.serveBin, err = buildServe(e.root, bin); err != nil {
			return fail(err)
		}
	}
	var names []string
	for _, w := range sp.Workloads {
		if only == "" || only == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fail(fmt.Errorf("no workload named %q", only))
	}
	res := results{Seed: e.seed, Reps: reps, RunSeconds: e.seconds, Go: runtime.Version(), Workloads: map[string]*workloadResult{}}
	values := map[string]map[string][]float64{}
	for _, w := range names {
		res.Workloads[w] = &workloadResult{Correct: true, EndToEnd: map[string]agg{}, PerLayer: map[string]float64{}}
		values[w] = map[string][]float64{}
	}
	note := func(w string, r *runResult) {
		wr := res.Workloads[w]
		wr.Ops += r.Attempted
		wr.Failed += r.Failed
		wr.Correct = wr.Correct && r.Correct
	}
	for i := 0; i < reps; i++ {
		for _, w := range names {
			r, err := child(self, e, w, e.seed+int64(i), false, smoke, stderr)
			if err != nil {
				return fail(err)
			}
			note(w, r)
			for k, v := range r.Metrics {
				values[w][k] = append(values[w][k], v.Value)
			}
		}
	}
	var trace bytes.Buffer
	for _, w := range names {
		r, err := child(self, e, w, e.seed, true, smoke, stderr)
		if err != nil {
			return fail(err)
		}
		note(w, r)
		for k, v := range r.Metrics {
			res.Workloads[w].PerLayer[k] = v.Value
		}
		spans, err := os.ReadFile(filepath.Join(e.out, "trace-"+w+".jsonl"))
		if err != nil {
			return fail(err)
		}
		trace.Write(spans)
	}
	if err := os.WriteFile(filepath.Join(e.out, "trace.jsonl"), trace.Bytes(), 0o644); err != nil {
		return fail(err)
	}

	ok := true
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tbest\tmin\tmax\tspread\tbound\tn")
	for _, w := range names {
		wr := res.Workloads[w]
		for _, d := range sp.EndToEnd {
			a := aggregate(values[w][d.Name], d.Better == "lower")
			wr.EndToEnd[d.Name] = a
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%.5g\t%.5g\t%.3f\t%.2f\t%d\n", w, d.Name, d.Unit, a.Median, a.Best, a.Min, a.Max, a.Spread, d.Bound, a.N)
		}
		fmt.Fprintf(tw, "%s\tops\tcount\t%d\t\t\t\t\t\t\n%s\tfailed\tcount\t%d\t\t\t\t\t\t\n", w, wr.Ops, w, wr.Failed)
		ok = ok && wr.Correct && wr.Failed == 0
	}
	tw.Flush()
	fmt.Fprintln(stdout)
	tw = tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "per-layer metric\tunit\t"+strings.Join(names, "\t"))
	for _, d := range sp.PerLayer {
		row := d.Name + "\t" + d.Unit
		for _, w := range names {
			row += fmt.Sprintf("\t%.5g", res.Workloads[w].PerLayer[d.Name])
		}
		fmt.Fprintln(tw, row)
	}
	tw.Flush()

	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fail(err)
	}
	path := filepath.Join(e.out, "results.json")
	if err := os.WriteFile(path, append(doc, '\n'), 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "\nwrote %s and trace.jsonl beside it\n", path)
	if !ok {
		fmt.Fprintln(stdout, "FAILED: at least one output check failed or an operation failed")
		return 1
	}
	return 0
}

// compareFiles prints, for every workload and end-to-end metric, both
// medians, their ratio with its base, the bound, and whether the two
// agree: neither is worse than the other by more than the bound.
func compareFiles(sp *spec, pathA, pathB string, stdout, stderr io.Writer) int {
	load := func(p string) (*results, error) {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r results
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &r, nil
	}
	a, err := load(pathA)
	if err == nil {
		var b *results
		if b, err = load(pathB); err == nil {
			return compareResults(sp, a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 1
}

func compareResults(sp *spec, a, b *results, stdout io.Writer) int {
	code := 0
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA\tB\tB/A (base A)\tbound\tverdict")
	for _, wl := range sp.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range sp.EndToEnd {
			va, vb := wa.EndToEnd[d.Name].Median, wb.EndToEnd[d.Name].Median
			verdict := "AGREE"
			if !agree(va, vb, d.Bound) {
				verdict, code = "DISAGREE", 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%.4f (%.5g)\t%.2f\t%s\n", wl.Name, d.Name, d.Unit, va, vb, vb/va, va, d.Bound, verdict)
		}
		if wa.Failed > 0 || wb.Failed > 0 || !wa.Correct || !wb.Correct {
			fmt.Fprintf(tw, "%s\tfailed\tcount\t%d\t%d\t\t0\tDISAGREE\n", wl.Name, wa.Failed, wb.Failed)
			code = 1
		}
	}
	tw.Flush()
	return code
}

// agree reports whether neither value is worse than the other by more than
// bound, whichever direction is better.
func agree(a, b, bound float64) bool {
	lo, hi := min(a, b), max(a, b)
	return lo > 0 && hi/lo-1 <= bound
}
