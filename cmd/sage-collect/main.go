// Command sage-collect runs the Policy Collector: it rolls the kernel CC
// schemes through the Set I / Set II environment grids and writes the pool
// of policies to disk (phase 1 of Fig. 3). Collection happens once; training
// afterwards never touches an environment.
//
// Usage:
//
//	sage-collect -out pool.gob.gz -level small -seti-dur 10s -setii-dur 30s
//	sage-collect -level small -progress -metrics pool.jsonl -pprof :6060
//	sage-collect -out pool.gob.gz -resume   # continue an interrupted run
//	sage-collect -doctor pool.gob.gz -clean pool.clean.gob.gz
//
// The -doctor mode examines an existing pool instead of collecting: every
// trajectory is validated (non-finite states/actions/rewards, truncated
// episodes, out-of-range values, frozen-state flows), bad ones are
// reported to <pool>.quarantine.jsonl, and -clean optionally writes a
// sanitized copy. Collection itself applies the same gate by default
// (-quality=false disables it).
//
// With -progress, a rollouts done/total line with transitions/sec and ETA
// is printed as workers finish; with -metrics, one JSON line per collected
// trajectory (scheme, env, steps, score) is written; with -pprof, the Go
// profiling endpoints are served for the run.
//
// SIGINT/SIGTERM drain the workers, save the completed cells to
// <out>.partial alongside a <out>.manifest ledger, and exit with status
// 130; rerunning with -resume skips the finished cells and produces a pool
// identical to an uninterrupted run.
//
// With -agent, the process is a distributed collection agent instead: it
// connects to a sage-coord coordinator, leases cells, and ships shards
// back until the campaign completes.
//
// Exit codes: the repo-wide table (README "Exit codes"). -doctor exits 3
// when it finds bad trajectories; an agent the coordinator evicted exits 4.
package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"time"

	"sage/internal/cli"
	"sage/internal/collector"
	"sage/internal/dist"
	"sage/internal/gr"
	"sage/internal/telemetry"
)

// trajRecord is the JSONL schema of -metrics: one line per trajectory.
type trajRecord struct {
	Scheme    string  `json:"scheme"`
	Env       string  `json:"env"`
	MultiFlow bool    `json:"multi_flow"`
	Steps     int     `json:"steps"`
	Score     float64 `json:"score"`
}

func main() { cli.Main(run) }

func run(ctx context.Context, f *cli.Flags) error {
	var (
		out      = f.String("out", "pool.gob.gz", "output pool file")
		grid     = f.Scenarios("")
		parallel = f.Int("parallel", 0, "workers (0 = NumCPU)")
		seed     = f.Int64("seed", 1, "seed")
		resume   = f.Bool("resume", false, "skip cells finished by a previous interrupted run (reads <out>.partial and <out>.manifest)")
		emit     = f.Sink("metrics", "write per-trajectory records as JSONL to this file")
		progress = f.Bool("progress", false, "print a live rollouts/transitions progress line with ETA")
		doctor   = f.String("doctor", "", "examine an existing pool file instead of collecting: quarantine report to <pool>.quarantine.jsonl, exit 3 if bad trajectories found")
		clean    = f.String("clean", "", "with -doctor: also write the sanitized pool to this file")
		quality  = f.Bool("quality", true, "quarantine bad trajectories from the collected pool before saving (report: <out>.quarantine.jsonl)")
		agent    = f.String("agent", "", "run as a distributed collection agent against the sage-coord coordinator at this address (host:port or unix:/path)")
		agentID  = f.String("agent-id", "", "agent identity for leases and eviction (default host:pid)")
		rpcTO    = f.Duration("rpc-timeout", 0, "agent: per-RPC deadline before the call is retried on a fresh connection (0 = 10s default, negative disables)")
		redials  = f.Int("redial-attempts", 0, "agent: consecutive failed dials tolerated before giving up (0 = default 10); raise to ride out long coordinator outages")
	)
	f.Pprof("serve pprof+expvar on this address (e.g. :6060)")
	if err := f.Parse(); err != nil {
		return err
	}
	if *doctor != "" {
		return runDoctor(*doctor, *clean)
	}
	if *agent != "" {
		// A bad coordinator address must fail before any connection attempt
		// burns through its redial budget.
		if _, _, err := dist.ParseAddr(*agent); err != nil {
			return cli.Exit(cli.ExitUsage, err)
		}
	}
	if err := f.Open(); err != nil {
		return err
	}
	if *agent != "" {
		return runAgent(ctx, *agent, *agentID, *parallel, *rpcTO, *redials)
	}

	names := grid.Schemes
	grCfg := gr.Config{}
	if grid.Window > 0 {
		grCfg = grCfg.WithUniformWindow(grid.Window)
	}
	setI, setII := grid.Sets(*seed)
	scens := append(setI, setII...)

	manifestPath := *out + ".manifest"
	partialPath := *out + ".partial"

	// Prior state: with -resume, reload the partial pool and intersect it
	// with the manifest's "ok" cells; both must agree that a cell finished
	// before it is skipped (the manifest alone could claim a cell whose
	// partial pool never reached disk). Without -resume, stale leftovers
	// from an older interrupted campaign are discarded.
	var prior *collector.Pool
	skip := map[collector.CellKey]bool{}
	if *resume {
		if p, err := collector.Load(partialPath); err == nil {
			prior = p
		} else if !errors.Is(err, fs.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "resume: %v\n", err)
		}
	} else {
		os.Remove(manifestPath)
		os.Remove(partialPath)
	}
	manifest, recorded, err := collector.OpenManifest(manifestPath)
	if err != nil {
		return err
	}
	defer manifest.Close()
	if prior != nil {
		have := prior.Cells()
		for cell, status := range recorded {
			if status == "ok" && have[cell] {
				skip[cell] = true
			}
		}
		// Keep only the trajectories we actually skip; anything else is
		// re-collected, so dropping it avoids duplicate cells.
		kept := &collector.Pool{GR: prior.GR}
		for _, tr := range prior.Trajs {
			if skip[collector.CellKey{Scheme: tr.Scheme, Env: tr.Env}] {
				kept.Trajs = append(kept.Trajs, tr)
			}
		}
		prior = kept
		fmt.Printf("resume: skipping %d finished cells\n", len(skip))
	}

	fmt.Printf("collecting %d schemes x %d environments...\n", len(names), len(scens))
	var meter *telemetry.Progress
	if *progress {
		meter = telemetry.NewProgress(os.Stdout, "rollouts", int64(len(names)*len(scens)), time.Second).ExtraLabel("transitions")
	}
	start := time.Now()
	pool, cerr := collector.Collect(ctx, names, scens, collector.Options{
		GR:       grCfg,
		Parallel: *parallel,
		Progress: meter,
		Skip: func(scheme, env string) bool {
			return skip[collector.CellKey{Scheme: scheme, Env: env}]
		},
		OnCell: manifest.Record,
	})
	meter.Finish()

	merged := pool
	if prior != nil && len(prior.Trajs) > 0 {
		merged, err = collector.Merge(prior, pool)
		if err != nil {
			return err
		}
	}
	// Canonical order: a resumed campaign's pool is bitwise-identical to an
	// uninterrupted run regardless of where the interruption fell.
	merged.SortByCell()

	if cerr != nil {
		// Interrupted: persist what finished and leave the ledger behind.
		if err := merged.Save(partialPath); err != nil {
			return err
		}
		if err := manifest.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		return cli.Exitf(cli.ExitSignal, "interrupted: %d/%d cells done; saved %s\nrerun with -resume to continue",
			len(merged.Trajs), len(names)*len(scens), partialPath)
	}

	fmt.Printf("pool: %d trajectories, %d transitions (%s)\n",
		len(merged.Trajs), merged.Transitions(), time.Since(start).Round(time.Second))
	merged.ReportFailed(os.Stderr)
	if *quality {
		if merged, _, err = collector.Quarantine(merged, *out+".quarantine.jsonl", "quality", os.Stdout); err != nil {
			return err
		}
	}
	if err := merged.Save(*out); err != nil {
		return err
	}
	for _, tr := range merged.Trajs {
		emit.Emit(trajRecord{
			Scheme: tr.Scheme, Env: tr.Env, MultiFlow: tr.MultiFlow,
			Steps: len(tr.Steps), Score: tr.Score,
		})
	}
	// The campaign is safely on disk; the resume state has served its
	// purpose.
	manifest.Close()
	os.Remove(manifestPath)
	os.Remove(partialPath)
	fmt.Printf("wrote %s\n", *out)
	return nil
}

// runDoctor examines an existing pool: it writes the quarantine sidecar,
// prints a per-reason summary, and optionally writes a sanitized copy.
// Bad trajectories found is an integrity failure (exit 3).
func runDoctor(path, cleanOut string) error {
	pool, err := collector.Load(path)
	if err != nil {
		return err
	}
	fmt.Printf("doctor: %d trajectories, %d transitions\n", len(pool.Trajs), pool.Transitions())
	sane, rep, err := collector.Quarantine(pool, path+".quarantine.jsonl", "doctor", os.Stdout)
	if err != nil {
		return err
	}
	byReason := map[string]int{}
	for _, is := range rep.Issues {
		byReason[is.Reason]++
	}
	reasons := make([]string, 0, len(byReason))
	for r := range byReason {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		fmt.Printf("doctor: %4d x %s\n", byReason[reason], reason)
	}
	if cleanOut != "" {
		if err := sane.Save(cleanOut); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d trajectories)\n", cleanOut, len(sane.Trajs))
	}
	if rep.Quarantined > 0 {
		return cli.Exitf(cli.ExitIntegrity, "doctor: %d bad trajectories", rep.Quarantined)
	}
	fmt.Println("doctor: pool is clean")
	return nil
}

// runAgent is the -agent mode: one distributed collection agent driven
// by a sage-coord coordinator.
func runAgent(ctx context.Context, coordAddr, id string, parallel int, rpcTimeout time.Duration, redials int) error {
	if id == "" {
		id = cli.SessionID("agent")
	}
	reg := telemetry.NewRegistry()
	reg.PublishExpvar("sage-collect-agent")
	fmt.Printf("agent %s: joining coordinator %s\n", id, coordAddr)
	err := dist.RunAgent(ctx, dist.AgentConfig{
		Coordinator:    coordAddr,
		ID:             id,
		Parallel:       parallel,
		RPCTimeout:     rpcTimeout,
		RedialAttempts: redials,
		Metrics:        reg,
		Logf:           cli.Logf,
	})
	if err == nil {
		fmt.Printf("agent %s: campaign complete\n", id)
	}
	return cli.Session(ctx, "agent "+id, err, dist.ErrRevoked)
}
