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
// back until the campaign completes. Exit status (shared with sage-train
// -worker): 0 campaign complete, 4 lease lost / fenced off (the
// coordinator evicted this session — relaunch for a fresh one), 130
// signal drain, 2 usage error, 1 fatal error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"sage/internal/cc"
	"sage/internal/collector"
	"sage/internal/dist"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/sim"
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

func main() {
	var (
		out       = flag.String("out", "pool.gob.gz", "output pool file")
		level     = flag.String("level", "tiny", "grid density: tiny|small|full")
		setIDur   = flag.Duration("seti-dur", 10*time.Second, "Set I scenario duration")
		setIIDur  = flag.Duration("setii-dur", 30*time.Second, "Set II scenario duration")
		schemes   = flag.String("schemes", "", "comma-separated schemes (default: the 13-scheme pool)")
		window    = flag.Int("window", 0, "uniform observation window (0 = the default 10/200/1000)")
		parallel  = flag.Int("parallel", 0, "workers (0 = NumCPU)")
		seed      = flag.Int64("seed", 1, "seed")
		resume    = flag.Bool("resume", false, "skip cells finished by a previous interrupted run (reads <out>.partial and <out>.manifest)")
		metrics   = flag.String("metrics", "", "write per-trajectory records as JSONL to this file")
		progress  = flag.Bool("progress", false, "print a live rollouts/transitions progress line with ETA")
		pprofAddr = flag.String("pprof", "", "serve pprof+expvar on this address (e.g. :6060)")
		doctor    = flag.String("doctor", "", "examine an existing pool file instead of collecting: quarantine report to <pool>.quarantine.jsonl, exit 3 if bad trajectories found")
		clean     = flag.String("clean", "", "with -doctor: also write the sanitized pool to this file")
		quality   = flag.Bool("quality", true, "quarantine bad trajectories from the collected pool before saving (report: <out>.quarantine.jsonl)")
		agent     = flag.String("agent", "", "run as a distributed collection agent against the sage-coord coordinator at this address (host:port or unix:/path)")
		agentID   = flag.String("agent-id", "", "agent identity for leases and eviction (default host:pid)")
		rpcTO     = flag.Duration("rpc-timeout", 0, "agent: per-RPC deadline before the call is retried on a fresh connection (0 = 10s default, negative disables)")
		redials   = flag.Int("redial-attempts", 0, "agent: consecutive failed dials tolerated before giving up (0 = default 10); raise to ride out long coordinator outages")
	)
	flag.Parse()

	if *doctor != "" {
		os.Exit(runDoctor(*doctor, *clean))
	}
	if *agent != "" {
		os.Exit(runAgent(*agent, *agentID, *parallel, *pprofAddr, *rpcTO, *redials))
	}

	if *pprofAddr != "" {
		if _, err := telemetry.ServeDebug(*pprofAddr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("pprof: http://%s/debug/pprof/\n", *pprofAddr)
	}

	lvl, err := netem.ParseLevel(*level)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	names := cc.PoolNames()
	if *schemes != "" {
		names = strings.Split(*schemes, ",")
	}
	// Validate scheme names before any work: a typo fails in microseconds
	// with the known list, not hours into a campaign.
	if err := cc.Validate(names...); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	grCfg := gr.Config{}
	if *window > 0 {
		grCfg = grCfg.WithUniformWindow(*window)
	}
	// Open the metrics sink before the (possibly long) collection so a
	// bad path fails in milliseconds, not after the run.
	var emit *telemetry.JSONL
	if *metrics != "" {
		emit, err = telemetry.CreateJSONL(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	scens := append(
		netem.SetI(netem.SetIOptions{Level: lvl, Duration: sim.FromSeconds(setIDur.Seconds()), Seed: *seed}),
		netem.SetII(netem.SetIIOptions{Level: lvl, Duration: sim.FromSeconds(setIIDur.Seconds()), Seed: *seed})...)

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
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
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

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

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
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	// Canonical order: a resumed campaign's pool is bitwise-identical to an
	// uninterrupted run regardless of where the interruption fell.
	merged.SortByCell()

	if cerr != nil {
		// Interrupted: persist what finished and leave the ledger behind.
		if err := merged.Save(partialPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := manifest.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		fmt.Printf("interrupted: %d/%d cells done; saved %s\n",
			len(merged.Trajs), len(names)*len(scens), partialPath)
		fmt.Printf("rerun with -resume to continue\n")
		os.Exit(130)
	}

	fmt.Printf("pool: %d trajectories, %d transitions (%s)\n",
		len(merged.Trajs), merged.Transitions(), time.Since(start).Round(time.Second))
	for _, f := range merged.Failed {
		fmt.Fprintf(os.Stderr, "failed cell: %s/%s: %s\n", f.Scheme, f.Env, f.Err)
	}

	if *quality {
		sane, rep := collector.Sanitize(merged, collector.QualityConfig{})
		if rep.Quarantined > 0 {
			sidecar := *out + ".quarantine.jsonl"
			if err := rep.WriteSidecar(sidecar); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("quality: quarantined %d/%d trajectories (report: %s)\n",
				rep.Quarantined, rep.Total, sidecar)
			merged = sane
		}
	}

	if emit != nil {
		for _, tr := range merged.Trajs {
			emit.Emit(trajRecord{
				Scheme: tr.Scheme, Env: tr.Env, MultiFlow: tr.MultiFlow,
				Steps: len(tr.Steps), Score: tr.Score,
			})
		}
		if err := emit.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := merged.Save(*out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The campaign is safely on disk; the resume state has served its
	// purpose.
	manifest.Close()
	os.Remove(manifestPath)
	os.Remove(partialPath)
	fmt.Printf("wrote %s\n", *out)
}

// runDoctor examines an existing pool: it prints a per-reason summary,
// writes the quarantine sidecar, and optionally writes a sanitized copy.
// Exit status: 0 clean, 3 bad trajectories found, 1 I/O error.
func runDoctor(path, cleanOut string) int {
	pool, err := collector.Load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	sane, rep := collector.Sanitize(pool, collector.QualityConfig{})
	fmt.Printf("doctor: %d trajectories, %d transitions\n", rep.Total, pool.Transitions())
	if rep.Quarantined == 0 {
		fmt.Println("doctor: pool is clean")
		if cleanOut != "" {
			if err := sane.Save(cleanOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Printf("wrote %s\n", cleanOut)
		}
		return 0
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
	sidecar := path + ".quarantine.jsonl"
	if err := rep.WriteSidecar(sidecar); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("doctor: quarantined %d/%d trajectories (report: %s)\n",
		rep.Quarantined, rep.Total, sidecar)
	if cleanOut != "" {
		if err := sane.Save(cleanOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("wrote %s (%d trajectories)\n", cleanOut, len(sane.Trajs))
	}
	return 3
}

// runAgent is the -agent mode: one distributed collection agent driven
// by a sage-coord coordinator. Exit status: 0 campaign complete, 4 lease
// revoked (session evicted), 130 signal drain, 1 fatal error, 2 usage.
func runAgent(coordAddr, id string, parallel int, pprofAddr string, rpcTimeout time.Duration, redials int) int {
	// A bad coordinator address must fail before any connection attempt
	// burns through its redial budget.
	if _, _, err := dist.ParseAddr(coordAddr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "agent"
		}
		id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if pprofAddr != "" {
		if _, err := telemetry.ServeDebug(pprofAddr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("pprof: http://%s/debug/pprof/\n", pprofAddr)
	}
	reg := telemetry.NewRegistry()
	reg.PublishExpvar("sage-collect-agent")
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	fmt.Printf("agent %s: joining coordinator %s\n", id, coordAddr)
	err := dist.RunAgent(ctx, dist.AgentConfig{
		Coordinator:    coordAddr,
		ID:             id,
		Parallel:       parallel,
		RPCTimeout:     rpcTimeout,
		RedialAttempts: redials,
		Metrics:        reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	switch {
	case err == nil:
		fmt.Printf("agent %s: campaign complete\n", id)
		return 0
	case errors.Is(err, dist.ErrRevoked):
		// Distinct from both clean completion and a crash: the session is
		// dead but the host is fine, so a supervisor should relaunch.
		fmt.Fprintf(os.Stderr, "agent %s: %v\n", id, err)
		return 4
	case errors.Is(err, context.Canceled), ctx.Err() != nil:
		fmt.Printf("agent %s: drained on signal\n", id)
		return 130
	default:
		fmt.Fprintf(os.Stderr, "agent %s: %v\n", id, err)
		return 1
	}
}
