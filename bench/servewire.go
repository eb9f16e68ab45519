package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sage/internal/core"
	"sage/internal/gr"
	"sage/internal/serve"
	"sage/internal/telemetry"
)

// serve_wire drives the real daemon the way an operator would start it:
// sage-serve -socket S -model M, every other flag at its default.

const (
	wireConns   = 2 // = nproc; batching across many flows is sim_fleet's job
	wirePerConn = 5 // ten resident recurrent sessions in all
)

// buildServe compiles cmd/sage-serve from the checkout into dir.
func buildServe(root, dir string) (string, error) {
	bin := filepath.Join(dir, "sage-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sage-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build sage-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// writeModel saves the seed's policy where the daemon can load it.
func writeModel(path string, seed int64) error {
	return core.WrapPolicy(seededPolicy(seed), nil, gr.Config{}).Save(path)
}

// relPath shortens a socket path: sun_path holds about 100 bytes and a
// checkout may live deep in the file system.
func relPath(p string) string {
	if wd, err := os.Getwd(); err == nil {
		if r, err := filepath.Rel(wd, p); err == nil && len(r) < len(p) {
			return r
		}
	}
	return p
}

type daemon struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	socket string
	waited bool
}

func startDaemon(bin, dir, model, name string) (*daemon, error) {
	d := &daemon{socket: filepath.Join(dir, name)}
	d.cmd = exec.Command(bin, "-socket", name, "-model", model)
	d.cmd.Dir = dir
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	d.cmd.Stderr = &d.stderr
	// Should this process die without cleaning up, the daemon goes with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	return d, nil
}

// waitReady polls the health verb until the daemon reports full service.
func (d *daemon) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cl, err := serve.DialTimeout(relPath(d.socket), time.Second); err == nil {
			cl.SetTimeout(time.Second)
			doc, err := cl.Health()
			cl.Close()
			var h serve.Health
			if err == nil && json.Unmarshal([]byte(doc), &h) == nil && h.Ready() {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("sage-serve not ready after %v: %s", timeout, d.stderr.String())
}

type daemonExit struct {
	code    int
	metrics map[string]float64
	cpu     time.Duration
	peakRSS float64 // MB
}

// stop asks for a graceful drain and reads the final metrics block.
func (d *daemon) stop() (daemonExit, error) {
	if d.waited {
		return daemonExit{}, errors.New("daemon already stopped")
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(10*time.Second, func() { d.cmd.Process.Kill() })
	err := d.cmd.Wait()
	timer.Stop()
	d.waited = true
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		return daemonExit{}, err
	}
	ps := d.cmd.ProcessState
	out := daemonExit{code: ps.ExitCode(), cpu: ps.UserTime() + ps.SystemTime(), metrics: map[string]float64{}}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		out.peakRSS = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	_, block, found := strings.Cut(d.stderr.String(), "final metrics\n")
	if !found {
		return out, fmt.Errorf("no final metrics block in daemon output: %s", d.stderr.String())
	}
	for _, kv := range strings.Fields(block) {
		if k, v, ok := strings.Cut(kv, "="); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				out.metrics[k] = f
			}
		}
	}
	return out, nil
}

// kill is the unconditional cleanup for error paths.
func (d *daemon) kill() {
	if !d.waited {
		d.cmd.Process.Kill()
		d.cmd.Wait()
		d.waited = true
	}
}

// inprocEngineConfig mirrors sage-serve's flag defaults for the in-process
// engines the benchmark holds the daemon against, except that overload
// protection stays off: a stall of the benchmark's own process must not
// turn into brownout fallbacks in a reference measurement.
func inprocEngineConfig(m *core.Model) serve.Config {
	return serve.Config{
		Policy:           m.Policy,
		Mask:             m.Mask,
		Seed:             1,
		MaxSessions:      4096,
		MaxBatch:         256,
		BatchDeadline:    200 * time.Microsecond,
		ReprimeWindow:    8,
		TraceWindowSteps: 256,
		Metrics:          telemetry.NewRegistry(),
	}
}

// replayCheck feeds each session's recorded inputs to an in-process engine
// holding the same model and requires bitwise-equal windows back.
func replayCheck(modelPath string, lg *loadgen) []string {
	m, err := core.LoadModel(modelPath)
	if err != nil {
		return []string{"serve_wire: replay: " + err.Error()}
	}
	eng := serve.NewEngine(inprocEngineConfig(m))
	eng.Start()
	defer eng.Close()
	var (
		mu       sync.Mutex
		problems []string
		wg       sync.WaitGroup
	)
	for _, c := range lg.conns {
		for _, s := range c.sessions {
			wg.Add(1)
			go func(s *lgSession) {
				defer wg.Done()
				for i, ex := range s.log {
					got, fallback, err := eng.Decide(s.id, ex.cwndIn, ex.state)
					if err != nil || fallback || math.Float64bits(got) != math.Float64bits(ex.cwndOut) {
						mu.Lock()
						problems = append(problems, fmt.Sprintf("serve_wire: session %d reply %d: daemon said %v, in-process engine %v (fallback=%v err=%v)", s.id, i, ex.cwndOut, got, fallback, err))
						mu.Unlock()
						return
					}
				}
			}(s)
		}
	}
	wg.Wait()
	return problems
}

// inprocServer runs a serve.Server in this process on a socket in dir, so
// that both ends of the wire are visible to the benchmark's own counters.
func inprocServer(modelPath, dir string) (socket string, eng *serve.Engine, stop func(), err error) {
	m, err := core.LoadModel(modelPath)
	if err != nil {
		return "", nil, nil, err
	}
	eng = serve.NewEngine(inprocEngineConfig(m))
	srv := serve.NewServer(eng)
	socket = relPath(filepath.Join(dir, "inproc.sock"))
	done := make(chan struct{})
	go func() {
		srv.ListenAndServe(socket)
		close(done)
	}()
	stop = func() {
		srv.Shutdown()
		<-done
	}
	for i := 0; i < 1000; i++ {
		if cl, derr := serve.DialTimeout(socket, time.Second); derr == nil {
			cl.Close()
			return socket, eng, stop, nil
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	return "", nil, nil, errors.New("in-process server did not come up")
}

// wireSetUp is everything serve_wire does before its first timed decision:
// start the daemon, wait for it to report ready, connect, and warm up with
// a fixed number of decisions per connection.
func (e *env) wireSetUp(bin, model, name string) (*daemon, *loadgen, error) {
	d, err := startDaemon(bin, e.tmp, model, name)
	if err != nil {
		return nil, nil, err
	}
	if err := d.waitReady(20 * time.Second); err != nil {
		d.kill()
		return nil, nil, err
	}
	lg, err := dialLoad(relPath(d.socket), e.seed, wireConns, wirePerConn)
	if err != nil {
		d.kill()
		return nil, nil, err
	}
	lg.warm(e.sz.wireWarmup)
	return d, lg, nil
}

// wireTearDown drains the daemon and holds what it printed against what
// the load generator saw.
func (o *outcome) wireTearDown(d *daemon, lg *loadgen) (daemonExit, error) {
	lg.close()
	ex, err := d.stop()
	if err != nil {
		return ex, err
	}
	sent, ok, failed, firstErr := lg.totals()
	if sent != ok+failed {
		o.problem("serve_wire: sent %d ≠ ok %d + failed %d", sent, ok, failed)
	}
	if failed > 0 {
		o.problem("serve_wire: %d of %d decisions failed, first: %s", failed, sent, firstErr)
	}
	if ex.code != 130 {
		o.problem("serve_wire: daemon exited %d after SIGTERM, want 130", ex.code)
	}
	if got := int64(ex.metrics[serve.MetricDecisions]); got != sent {
		o.problem("serve_wire: daemon counted %d decisions, the generator sent %d", got, sent)
	}
	if shed, fb := ex.metrics[serve.MetricOverloadShed], ex.metrics[serve.MetricFallbacks]; shed != 0 || fb != 0 {
		o.problem("serve_wire: daemon shed %v and fell back on %v decisions, want 0 and 0", shed, fb)
	}
	return ex, nil
}

func runServeWire(e *env) (*outcome, error) {
	o := newOutcome()
	bin := e.serveBin
	if bin == "" {
		var err error
		if bin, err = buildServe(e.root, e.tmp); err != nil {
			return nil, err
		}
	}
	model := filepath.Join(e.tmp, "seed.model")
	if err := writeModel(model, e.seed); err != nil {
		return nil, err
	}
	var (
		d      *daemon
		lg     *loadgen
		setupS []float64
	)
	defer func() {
		if d != nil {
			d.kill() // no-op after a clean stop
		}
	}()
	for i := 0; i < e.sz.setups; i++ {
		if d != nil {
			if _, err := o.wireTearDown(d, lg); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if d, lg, err = e.wireSetUp(bin, model, fmt.Sprintf("d%d.sock", i)); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	dur := time.Duration(e.seconds * float64(time.Second))
	if e.trace {
		dur /= 2
	}
	lg.run(dur)
	ex, err := o.wireTearDown(d, lg)
	if err != nil {
		return nil, err
	}
	o.attempted, _, o.failed, _ = lg.totals()
	o.problems = append(o.problems, replayCheck(model, lg)...)
	sorted := lg.latencies()
	lat := summarize(sorted) // sorts in place
	fmt.Fprintf(e.log, "serve_wire decision µs: %v\n", lat)
	if e.trace {
		m := o.metrics
		for _, c := range lg.conns {
			m["serve.busy"] += float64(c.busy)
		}
		m["serve.shed"] = ex.metrics[serve.MetricOverloadShed]
		m["serve.decisions_per_s"] = float64(len(sorted)) / dur.Seconds()
		m["serve.p50_us"], m["serve.p99_us"] = lat.P50, pct(sorted, 0.99)
		m["serve.p999_us"], m["serve.max_us"] = pct(sorted, 0.999), lat.Max
		m["serve.batch_wait_mean_us"] = ex.metrics[serve.MetricBatchWaitUs+".sum"] / ex.metrics[serve.MetricBatchWaitUs+".count"]
		m["serve.mean_batch_size"] = ex.metrics[serve.MetricBatchSize+".sum"] / ex.metrics[serve.MetricBatchSize+".count"]
		m["serve.daemon_cpu_ms_per_kdecision"] = ex.cpu.Seconds() * 1e6 / float64(o.attempted)
		m["serve.daemon_peak_rss_mb"] = ex.peakRSS
		return o, e.traceServeWire(o, model)
	}
	reps := lg.windows(dur, e.sz.wireWindow)
	// The daemon's allocations are out of this process's sight, so the
	// allocation metrics come from the same server code run in-process:
	// one connection, so every batch is one decision and the count repeats.
	socket, _, stop, err := inprocServer(model, e.tmp)
	if err != nil {
		return nil, err
	}
	defer stop()
	one, err := dialLoad(socket, e.seed, 1, wirePerConn)
	if err != nil {
		return nil, err
	}
	defer one.close()
	one.warm(e.sz.wireWarmup)
	_, mallocs, bytes := timed(func() { one.warm(e.sz.wireAllocDecides) })
	if _, _, failed, firstErr := one.totals(); failed > 0 {
		o.problem("serve_wire: in-process server failed %d decisions, first: %s", failed, firstErr)
	}
	o.endToEnd(e, setupS, reps)
	o.metrics["allocs_per_op"] = float64(mallocs) / float64(e.sz.wireAllocDecides)
	o.metrics["alloc_bytes_per_op"] = float64(bytes) / float64(e.sz.wireAllocDecides)
	return o, nil
}

// traceServeWire takes the wire apart in-process: a health round trip is
// framing and handler with no engine; Engine.Decide from two goroutines is
// admission, batch wait and forward pass with no wire; a full client
// decision is both.
func (e *env) traceServeWire(o *outcome, model string) error {
	socket, eng, stop, err := inprocServer(model, e.tmp)
	if err != nil {
		return err
	}
	defer stop()
	tr := newTracer()
	n := e.sz.wireProbeRequests

	cl, err := serve.Dial(socket)
	if err != nil {
		return err
	}
	defer cl.Close()
	for i := 0; i < n; i++ {
		s := tr.begin("serve.wire_health", 0, 0)
		_, err := cl.Health()
		tr.end(s)
		if err != nil {
			return err
		}
	}

	var wg sync.WaitGroup
	state := make([]float64, gr.StateDim)
	for g := 0; g < wireConns; g++ {
		wg.Add(1)
		go func(sid uint64) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				s := tr.begin("serve.engine_decide", 0, int64(sid))
				_, _, err := eng.Decide(sid, 10, state)
				tr.end(s)
				if err != nil {
					o.problem("serve_wire: in-process Engine.Decide: %v", err)
					return
				}
			}
		}(uint64(1000 + g))
	}
	wg.Wait()

	// The same closed loop against the in-process server, untraced then
	// traced, gives the tracing overhead on this path.
	rate := func(tr *tracer) (float64, error) {
		lg, err := dialLoad(socket, e.seed, wireConns, wirePerConn)
		if err != nil {
			return 0, err
		}
		defer lg.close()
		lg.tr = tr
		lg.warm(e.sz.wireWarmup)
		t0 := time.Now()
		lg.warm(n)
		wall := time.Since(t0)
		sent, _, failed, firstErr := lg.totals()
		if failed > 0 {
			o.problem("serve_wire: in-process server failed %d decisions, first: %s", failed, firstErr)
		}
		o.attempted += sent
		return float64(wireConns*n) / wall.Seconds(), nil
	}
	plain, err := rate(nil)
	if err != nil {
		return err
	}
	traced, err := rate(tr)
	if err != nil {
		return err
	}
	o.spans = tr.spans
	m := o.metrics
	m["serve.wire_rtt_us_p50"] = summarize(durations(o.spans, "serve.wire_health", 1e3)).P50
	m["serve.decide_inproc_us_p50"] = summarize(durations(o.spans, "serve.engine_decide", 1e3)).P50
	m["trace.overhead_frac"] = plain/traced - 1
	return nil
}
