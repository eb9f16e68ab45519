// Command sage-serve runs the batched policy-serving daemon: one process
// holding one policy, serving cwnd decisions for any number of flows over
// a Unix domain socket. Requests that arrive while every worker is busy
// are coalesced into batched forward passes (internal/serve), so a fleet
// of thin per-flow clients shares the inference cost instead of each
// paying for its own network; an idle daemon answers a lone request at
// once.
//
// Usage:
//
//	sage-serve -socket /run/sage.sock -model sage.model
//	sage-serve -socket /run/sage.sock -registry /var/lib/sage/registry
//	sage-serve -socket /tmp/sage.sock -max-batch 512 -workers 4 -pprof :6060
//
// With -registry the daemon serves the registry's promoted incumbent and
// exposes the model lifecycle: SIGHUP (or the control socket's swap verb)
// hot-swaps to the current incumbent with zero dropped decisions, the
// status verb reports the lifecycle state, and a demotion watchdog
// monitors post-swap fallback ratios, reverting a degraded swap
// automatically. With -model a single file is served; SIGHUP re-reads it.
// Without either a freshly initialized (untrained) policy is served —
// useful for protocol smoke tests and load benchmarks. SIGINT/SIGTERM
// drain gracefully: queued decisions complete, clients are hung up, and
// a final metrics snapshot is printed.
//
// Overload protection is on by default: a global in-flight admission cap
// (-max-inflight, default 8× -max-batch) with explicit OVERLOAD replies,
// a brownout degradation ladder evaluated every -overload-eval, a
// per-decision -decision-budget, and a -max-conns accept cap (-overload=false
// disables the layer). `sage-serve -socket … -health` probes the daemon's
// health verb and exits 0 iff it is ready (full or shed-shadow service).
//
// Exit codes: the repo-wide table (README "Exit codes"). A model file or
// registry incumbent that is corrupt, truncated or missing is exit 3.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sage/internal/cli"
	"sage/internal/core"
	"sage/internal/feedback"
	"sage/internal/gr"
	"sage/internal/nn"
	"sage/internal/promote"
	"sage/internal/safeio"
	"sage/internal/serve"
	"sage/internal/telemetry"
)

func main() { cli.Main(run) }

func run(ctx context.Context, f *cli.Flags) error {
	var (
		socket      = f.String("socket", "/tmp/sage-serve.sock", "unix socket path to listen on")
		modelPath   = f.String("model", "", "trained model file (empty = fresh untrained policy)")
		registryDir = f.String("registry", "", "model registry dir: serve the promoted incumbent and enable the lifecycle verbs")
		maxBatch    = f.Int("max-batch", 256, "max flows per batched forward pass")
		deadline    = f.Duration("deadline", 200*time.Microsecond, "queue wait considered normal: the overload ladder's batch-wait budget is 50x this (no request is ever held for it)")
		workers     = f.Int("workers", 0, "forward-pass workers (0 = GOMAXPROCS)")
		maxSessions = f.Int("max-sessions", 4096, "resident session cap (LRU eviction beyond)")
		stochastic  = f.Bool("stochastic", false, "sample actions from the GMM instead of its mean")
		seed        = f.Int64("seed", 1, "RNG seed for stochastic serving")
		reprime     = f.Int("reprime-window", 8, "trace states replayed to re-prime recurrent sessions across a hot-swap")
		watchEvery  = f.Duration("watchdog-interval", 2*time.Second, "demotion watchdog polling interval (registry mode)")
		events      = f.Sink("events", "append lifecycle events (swap/demote) to this JSONL file")

		overload    = f.Bool("overload", true, "enable overload admission control and the brownout ladder")
		maxInflight = f.Int("max-inflight", 0, "global in-flight decision cap (0 = 8x max-batch)")
		decBudget   = f.Duration("decision-budget", 250*time.Millisecond, "per-decision latency budget; sustained misses escalate brownout")
		ovalEvery   = f.Duration("overload-eval", 10*time.Millisecond, "brownout ladder evaluation window")
		maxConns    = f.Int("max-conns", 1024, "connection cap; excess accepts get a typed OVERLOAD reply (0 = unlimited)")
		healthProbe = f.Bool("health", false, "probe the daemon at -socket: print its health doc, exit 0 iff ready")

		traceSpool  = f.String("trace-spool", "", "spool completed decision windows into this dir for the feedback loop (empty = off)")
		traceWindow = f.Int("trace-window", 256, "decisions per exported trace window before rotation")
	)
	f.Pprof("serve pprof + /debug/vars on this addr")
	if err := f.Parse(); err != nil {
		return err
	}
	if *healthProbe {
		return probeHealth(*socket)
	}
	if *modelPath != "" && *registryDir != "" {
		return cli.Exitf(cli.ExitUsage, "sage-serve: -model and -registry are mutually exclusive")
	}
	if err := f.Open(); err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	reg.PublishExpvar("sage-serve")

	var (
		pol       *nn.Policy
		mask      []int
		registry  *promote.Registry
		servingID string
	)
	switch {
	case *registryDir != "":
		r, err := promote.OpenRegistry(*registryDir)
		if err != nil {
			return modelErr(err)
		}
		defer r.Close()
		model, info, err := r.LoadIncumbent()
		if err != nil {
			return modelErr(err)
		}
		registry, servingID = r, info.ID
		pol, mask = model.Policy, model.Mask
		fmt.Fprintf(os.Stderr, "sage-serve: serving registry incumbent %s\n", info.ID)
	case *modelPath != "":
		model, err := core.LoadModel(*modelPath)
		if err != nil {
			return modelErr(err)
		}
		pol, mask = model.Policy, model.Mask
	default:
		pol = nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim})
		fmt.Fprintln(os.Stderr, "sage-serve: no -model given, serving a fresh untrained policy")
	}

	var ovCfg *serve.OverloadConfig
	if *overload {
		ovCfg = &serve.OverloadConfig{
			MaxInflight:    *maxInflight,
			DecisionBudget: *decBudget,
			EvalInterval:   *ovalEvery,
		}
	}
	engCfg := serve.Config{
		Policy:           pol,
		Mask:             mask,
		Stochastic:       *stochastic,
		Seed:             *seed,
		MaxSessions:      *maxSessions,
		MaxBatch:         *maxBatch,
		BatchDeadline:    *deadline,
		Workers:          *workers,
		ReprimeWindow:    *reprime,
		Metrics:          reg,
		Overload:         ovCfg,
		TraceWindowSteps: *traceWindow,
	}
	if *traceSpool != "" {
		sink, err := feedback.NewSpoolSink(feedback.SinkConfig{Dir: *traceSpool, Metrics: reg})
		if err != nil {
			return fmt.Errorf("sage-serve: trace spool: %w", err)
		}
		fmt.Fprintf(os.Stderr, "sage-serve: spooling trace windows to %s\n", *traceSpool)
		engCfg.Trace = sink
		// Runs at exit, after the server's shutdown drained the engine (which
		// flushes every open window into the sink): drain the queue to disk.
		defer sink.Close()
	}
	eng := serve.NewEngine(engCfg)
	srv := serve.NewServer(eng)
	srv.MaxConns = *maxConns

	// Lifecycle control: registry mode gets the full manager (watchdog,
	// demotion); file mode gets a reload-from-path handler so SIGHUP and
	// the swap verb still work without a registry.
	var ctl serve.Control
	var mgr *promote.Manager
	if registry != nil {
		m, err := promote.NewManager(promote.ManagerConfig{
			Registry: registry,
			Engine:   eng,
			Metrics:  reg,
			Events:   events.JSONL,
		}, servingID)
		if err != nil {
			return fmt.Errorf("sage-serve: %w", err)
		}
		mgr, ctl = m, m
	} else if *modelPath != "" {
		ctl = &fileControl{path: *modelPath, eng: eng}
	}
	if ctl != nil {
		srv.SetControl(ctl)
		hupCh := make(chan os.Signal, 1)
		signal.Notify(hupCh, syscall.SIGHUP)
		go func() {
			for range hupCh {
				// Registry mode syncs to the incumbent: a HUP with an
				// unchanged incumbent is a no-op — it must not drain the
				// engine, re-prime sessions, or arm the demotion watchdog
				// the way an operator swap does. File mode has no registry
				// to compare against, so it always reloads the file.
				var report string
				var err error
				if mgr != nil {
					report, err = mgr.SyncIncumbent()
				} else {
					report, err = ctl.Swap("")
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "sage-serve: SIGHUP swap:", err)
					continue
				}
				fmt.Fprintln(os.Stderr, "sage-serve: SIGHUP:", report)
			}
		}()
	}

	done := make(chan struct{})
	if mgr != nil && *watchEvery > 0 {
		go func() {
			t := time.NewTicker(*watchEvery)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					if demoted, why := mgr.Tick(); demoted {
						fmt.Fprintln(os.Stderr, "sage-serve: watchdog demotion:", why)
					}
				}
			}
		}()
	}

	drained := make(chan struct{})
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "sage-serve: signal, draining")
		srv.Shutdown()
		close(drained)
	}()

	fmt.Fprintf(os.Stderr, "sage-serve: listening on %s\n", *socket)
	err := srv.ListenAndServe(*socket)
	close(done)
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	<-drained
	os.Remove(*socket)
	return cli.Exitf(cli.ExitSignal, "sage-serve: final metrics\n%s", reg)
}

// probeHealth is the -health client mode: one round trip to a running
// daemon's health verb. The health doc prints to stdout either way; the
// exit code makes it a readiness probe — 0 iff the daemon is reachable
// and its brownout ladder is at full service or the shed-shadow rung
// (still serving every admitted flow from the policy), 1 when it is
// browned out, draining, or unreachable.
func probeHealth(socket string) error {
	cl, err := serve.DialTimeout(socket, 2*time.Second)
	if err != nil {
		return fmt.Errorf("sage-serve: health: %w", err)
	}
	defer cl.Close()
	cl.SetTimeout(2 * time.Second)
	doc, err := cl.Health()
	if err != nil {
		return fmt.Errorf("sage-serve: health: %w", err)
	}
	fmt.Println(doc)
	var h serve.Health
	if err := json.Unmarshal([]byte(doc), &h); err != nil {
		return fmt.Errorf("sage-serve: health: %w", err)
	}
	if !h.Ready() {
		return errors.New("sage-serve: health: not ready")
	}
	return nil
}

// modelErr classes a model-loading failure per the exit-code table:
// integrity problems (corrupt, truncated, or missing checkpoint; a registry
// with nothing promoted) are exit 3 — operator intervention, not a restart,
// is what fixes them. Anything else stays a fatal 1.
func modelErr(err error) error {
	return cli.Integrity(fmt.Errorf("sage-serve: %w", err),
		safeio.ErrCorrupt, safeio.ErrTruncated, fs.ErrNotExist, promote.ErrNoIncumbent)
}

// fileControl is the -model mode lifecycle handler: swap re-reads the
// model file (any non-empty arg is rejected — there is no registry to
// name models in), status reports the engine's session count.
type fileControl struct {
	path string
	eng  *serve.Engine
}

func (f *fileControl) Swap(id string) (string, error) {
	if id != "" {
		return "", errors.New("no registry: swap only reloads the -model file (pass an empty id)")
	}
	model, err := core.LoadModel(f.path)
	if err != nil {
		return "", err
	}
	stats, err := f.eng.Swap(model.Policy, model.Mask)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("reloaded %s (%s)", f.path, stats), nil
}

func (f *fileControl) Status() string {
	return fmt.Sprintf(`{"serving":%q,"sessions":%d}`, f.path, f.eng.Sessions())
}
