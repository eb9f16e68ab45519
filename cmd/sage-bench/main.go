// Command sage-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	sage-bench -exp fig09,fig10          # specific experiments
//	sage-bench -exp all -sizing quick    # the whole suite, bench-sized
//	sage-bench -list                     # available experiments
//
// Expensive artifacts (the pool, the trained models) are built once per
// process and shared across the requested experiments.
package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"sage/internal/cli"
	"sage/internal/exp"
)

func main() { cli.Main(run) }

func run(ctx context.Context, f *cli.Flags) error {
	var (
		expFlag  = f.String("exp", "all", "comma-separated experiment ids, or 'all'")
		sizing   = f.String("sizing", "quick", "experiment scale: quick|paper")
		parallel = f.Int("parallel", 0, "rollout workers (0 = NumCPU)")
		seed     = f.Int64("seed", 1, "global seed")
		list     = f.Bool("list", false, "list experiments and exit")
		emit     = f.Sink("metrics", "write per-experiment wall-time records as JSONL to this file")
	)
	f.Pprof("serve pprof+expvar on this address (e.g. :6060)")
	if err := f.Parse(); err != nil {
		return err
	}

	var s exp.Sizing
	switch *sizing {
	case "quick":
		s = exp.Quick()
	case "paper":
		s = exp.Paper()
	default:
		return cli.Exitf(cli.ExitUsage, "unknown sizing %q (want quick|paper)", *sizing)
	}
	var ids []string
	if *expFlag == "all" {
		for _, e := range exp.Suite() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*expFlag, ",")
	}
	// Resolve every id before running anything: a typo in the third
	// experiment should fail now, not after the first two finished.
	var exps []exp.Experiment
	for _, id := range ids {
		e, err := exp.Find(strings.TrimSpace(id))
		if err != nil {
			return cli.Exit(cli.ExitUsage, err)
		}
		exps = append(exps, e)
	}
	if err := f.Open(); err != nil {
		return err
	}

	if *list {
		for _, e := range exp.Suite() {
			fmt.Printf("%-10s %s\n", e.ID, e.About)
		}
		return nil
	}

	s.Parallel = *parallel
	s.Seed = *seed
	a := exp.NewArtifacts(s)
	for _, e := range exps {
		if ctx.Err() != nil {
			return cli.Exitf(cli.ExitSignal, "interrupted; remaining experiments skipped")
		}
		start := time.Now()
		fmt.Printf("\n### %s — %s\n", e.ID, e.About)
		exp.RunAndPrint(e, a, os.Stdout)
		elapsed := time.Since(start)
		fmt.Printf("[%s done in %s]\n", e.ID, elapsed.Round(time.Millisecond))
		emit.Emit(struct {
			Exp      string  `json:"exp"`
			About    string  `json:"about"`
			Seconds  float64 `json:"seconds"`
			Sizing   string  `json:"sizing"`
			Parallel int     `json:"parallel"`
		}{e.ID, e.About, elapsed.Seconds(), *sizing, *parallel})
	}
	return nil
}
