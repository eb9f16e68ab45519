package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"sage/internal/cc"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rollout"
	"sage/internal/serve"
	"sage/internal/sim"
	"sage/internal/tcp"
	"sage/internal/telemetry"
)

// fleet is the sim_fleet input: many flows on one bottleneck, three in four
// driven by a shared serving engine and every fourth by Cubic, whose AIMD
// supplies the loss and recovery dynamics a fleet of capped flows lacks.
type fleet struct {
	sc      netem.Scenario
	flows   int
	stagger sim.Time
	pol     *nn.Policy
}

const (
	fleetFlows   = 256
	fleetPerFlow = 3.0 // Mb/s of bottleneck per flow: ≈ 5 packets per flow per 20 ms tick
	// fleetMaxCwnd is what keeps a policy that was never trained in a
	// deployed-like regime (a few percent loss) on a 1-BDP buffer: the
	// per-flow BDP is 10 packets. Uncapped, the same fleet is a loss storm
	// and the profile is all retransmission bookkeeping.
	fleetMaxCwnd = 12
)

func newFleet(pol *nn.Policy, seed int64, flows int, dur sim.Time) fleet {
	rate := netem.Mbps(fleetPerFlow * float64(flows))
	rtt := 40 * sim.Millisecond
	return fleet{
		sc: netem.Scenario{
			Name:       fmt.Sprintf("fleet-%d", flows),
			Rate:       netem.FlatRate(rate),
			MinRTT:     rtt,
			QueueBytes: netem.BDPBytes(rate, rtt),
			Duration:   dur,
			Seed:       seed,
		},
		flows:   flows,
		stagger: 5 * sim.Millisecond,
		pol:     pol,
	}
}

// seededPolicy is a production-sized policy with seed-derived weights and a
// normalizer fitted on seeded standard-normal states. It is deliberately
// not trained: a trained model would make the load depend on rl and nn.
func seededPolicy(seed int64) *nn.Policy {
	pol := nn.NewPolicy(nn.PolicyConfig{InDim: gr.StateDim, Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	samples := make([][]float64, 64)
	for i := range samples {
		samples[i] = make([]float64, gr.StateDim)
		for j := range samples[i] {
			samples[i][j] = rng.NormFloat64()
		}
	}
	pol.Norm = nn.FitNormalizer(samples)
	return pol
}

// specs builds fresh flow specs and a fresh engine: congestion-control
// modules and recurrent sessions carry state, so each run gets its own.
func (f fleet) specs(reg *telemetry.Registry) ([]rollout.FlowSpec, *serve.Engine) {
	eng := serve.NewEngine(serve.Config{
		Policy:      f.pol,
		MaxBatch:    1024,
		MaxSessions: f.flows + 1,
		MaxCwnd:     fleetMaxCwnd,
		Metrics:     reg,
	})
	specs := make([]rollout.FlowSpec, f.flows)
	for j := range specs {
		specs[j].Start = sim.Time(j) * f.stagger
		if j%4 == 3 {
			specs[j].Name, specs[j].CC = "cubic", cc.MustNew("cubic")
			continue
		}
		specs[j].Name, specs[j].CC = "sage", cc.MustNew("pure")
		specs[j].Controller = serve.NewController(eng)
	}
	return specs, eng
}

// tickClock wraps one flow's controller to timestamp the control ticks of
// a rollout.RunMulti it cannot otherwise see into: RunMulti calls
// FlushBatch once per tick, so the gap between calls is the wall time one
// 20 ms tick of the whole fleet took. One clock read per tick does not
// perturb the run.
type tickClock struct {
	*serve.Controller
	last  time.Time
	ticks []float64 // µs
}

func (c *tickClock) FlushBatch(now sim.Time) {
	c.Controller.FlushBatch(now)
	t := time.Now()
	if !c.last.IsZero() {
		c.ticks = append(c.ticks, float64(t.Sub(c.last).Nanoseconds())/1e3)
	}
	c.last = t
}

type fleetResult struct {
	rep      // ops = data packets delivered to receivers, latUs = tick times
	hash     string
	problems []string
}

func (f fleet) summarize(res []rollout.FlowResult, specs []rollout.FlowSpec) fleetResult {
	var out fleetResult
	sumBps := 0.0
	d := newDigest()
	for i, r := range res {
		d.f64(r.ThroughputBps)
		d.u64(uint64(r.AvgOWD))
		window := (f.sc.Duration - specs[i].Start).Seconds()
		out.ops += int64(math.Round(r.ThroughputBps * window / 8 / netem.MTU))
		// Link share is taken over the whole run, not the flow's own window.
		sumBps += r.ThroughputBps * window / f.sc.Duration.Seconds()
	}
	out.hash = d.sum()
	link := f.sc.Rate.At(0)
	if sumBps < 0.9*link || sumBps > 1.05*link {
		out.problems = append(out.problems, fmt.Sprintf("sim_fleet: Σ throughput %.1f Mb/s outside [0.9, 1.05] × link %.1f Mb/s", sumBps/1e6, link/1e6))
	}
	return out
}

// run is the end-to-end path: the whole fleet through rollout.RunMulti.
func (f fleet) run() fleetResult {
	specs, _ := f.specs(nil)
	clock := &tickClock{Controller: specs[0].Controller.(*serve.Controller)}
	specs[0].Controller = clock
	var res []rollout.FlowResult
	wall, mallocs, bytes := timed(func() { res = rollout.RunMulti(f.sc, specs, rollout.MultiOptions{}) })
	out := f.summarize(res, specs)
	out.wall, out.mallocs, out.bytes, out.latUs = wall, mallocs, bytes, clock.ticks
	return out
}

// fleetCounters are the datapath counts the traced driver can read because
// it owns the flows; RunMulti does not expose them.
type fleetCounters struct {
	events                      uint64
	grTicks                     int64 // monitor ticks = decisions enqueued
	sent, lost, rtos, recovered int64
	queueDrops                  int64
}

// runTraced is the benchmark's own copy of RunMulti's driver loop with a
// span around each call into a layer. Its result hash must equal run()'s.
// The control sweep is split into a gr pass and an enqueue pass so each is
// one span per tick; that is equivalent because Enqueue only copies the
// state and nothing touches a connection until the flush.
func (f fleet) runTraced(tr *tracer, reg *telemetry.Registry) (fleetResult, fleetCounters) {
	specs, eng := f.specs(reg)
	var cnt fleetCounters
	grCfg := gr.Config{}.Fill()
	t0 := time.Now()
	root := tr.begin("rollout.driver", 0, 0)

	loop := sim.NewLoop()
	n := f.sc.Build(loop)
	type state struct {
		flow    *tcp.Flow
		mon     *gr.Monitor
		started bool
	}
	states := make([]*state, len(specs))
	for i, spec := range specs {
		st := &state{flow: tcp.NewFlow(loop, n, i+1, spec.CC, tcp.Options{})}
		if spec.Controller != nil {
			st.mon = gr.NewMonitor(grCfg, st.flow.Conn, gr.RewardContext{
				Kind:     gr.RewardSingleFlow,
				Capacity: f.sc.Rate.At,
				MinRTT:   f.sc.MinRTT,
			})
		}
		states[i] = st
		loop.At(spec.Start, func(t sim.Time) {
			st.flow.Conn.Start(t)
			st.started = true
		})
	}
	steps := make([]gr.Step, len(states))
	tick := int64(0)
	for now := grCfg.Interval; now <= f.sc.Duration; now += grCfg.Interval {
		tick++
		s := tr.begin("sim.run_until", root, tick)
		loop.RunUntil(now)
		tr.end(s)
		s = tr.begin("gr.tick", root, tick)
		for i, st := range states {
			if st.started && st.mon != nil {
				steps[i] = st.mon.Tick(now)
				cnt.grTicks++
			}
		}
		tr.end(s)
		s = tr.begin("serve.enqueue", root, tick)
		for i, st := range states {
			if st.started && st.mon != nil {
				specs[i].Controller.Control(now, st.flow.Conn, steps[i].State)
			}
		}
		tr.end(s)
		s = tr.begin("serve.flush", root, tick)
		eng.Flush(now)
		tr.end(s)
	}
	res := make([]rollout.FlowResult, len(specs))
	for i, st := range states {
		rx, pkts, owdSum := st.flow.Sink.Totals()
		res[i].Name = specs[i].Name
		if window := (f.sc.Duration - specs[i].Start).Seconds(); window > 0 {
			res[i].ThroughputBps = float64(rx) * 8 / window
		}
		if pkts > 0 {
			res[i].AvgOWD = owdSum / sim.Time(pkts)
		}
		cs := st.flow.Conn.Stats()
		cnt.sent += cs.SentPkts
		cnt.lost += cs.LostPkts
		cnt.rtos += cs.RTOs
		cnt.recovered += cs.Recoveries
	}
	cnt.events = loop.Processed()
	cnt.queueDrops = int64(n.Link.Queue().Drops())
	tr.end(root)
	out := f.summarize(res, specs)
	out.wall = time.Since(t0)
	return out, cnt
}

// setUp is everything sim_fleet does before its first timed packet: build
// the policy and the fleet, and push a small fleet through RunMulti once.
func (e *env) fleetSetUp() fleet {
	pol := seededPolicy(e.seed)
	newFleet(pol, e.seed, e.sz.fleetWarmFlows, 2*sim.Second).run()
	return newFleet(pol, e.seed, e.sz.fleetFlows, e.sz.fleetDur)
}

func runSimFleet(e *env) (*outcome, error) {
	o := newOutcome()
	var (
		f      fleet
		setupS []float64
	)
	for i := 0; i < e.sz.setups; i++ {
		t0 := time.Now()
		f = e.fleetSetUp()
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	if e.trace {
		return o, e.traceSimFleet(o, f)
	}
	var reps []rep
	for t0 := time.Now(); len(reps) == 0 || time.Since(t0).Seconds() < e.seconds; {
		r := f.run()
		o.attempted += r.ops
		o.problems = append(o.problems, r.problems...)
		o.sameHash("sim_fleet flow results", r.hash)
		reps = append(reps, r.rep)
	}
	o.endToEnd(e, setupS, reps)
	return o, nil
}

// traceSimFleet alternates RunMulti with the traced driver so both see the
// same machine, keeps the fastest of each, and reads the layer shares off
// the fastest traced run.
func (e *env) traceSimFleet(o *outcome, f fleet) error {
	var (
		plain, traced fleetResult
		cnt           fleetCounters
		reg           *telemetry.Registry
	)
	for i := 0; i < 3; i++ {
		r := f.run()
		o.attempted += r.ops
		if i == 0 || r.wall < plain.wall {
			plain = r
		}
		tr, rg := newTracer(), telemetry.NewRegistry()
		r, c := f.runTraced(tr, rg)
		o.attempted += r.ops
		if i == 0 || r.wall < traced.wall {
			traced, cnt, reg, o.spans = r, c, rg, tr.spans
		}
	}
	o.problems = append(o.problems, plain.problems...)
	// The benchmark's own driver loop must reproduce rollout.RunMulti.
	o.sameHash("sim_fleet flow results", plain.hash)
	o.sameHash("sim_fleet flow results", traced.hash)
	st := selfTimes(o.spans)
	total := float64(st["rollout.driver"].WallNs)
	m := o.metrics
	m["sim.run_until_share"] = float64(st["sim.run_until"].WallNs) / total
	m["gr.tick_share"] = float64(st["gr.tick"].WallNs) / total
	m["serve.enqueue_share"] = float64(st["serve.enqueue"].WallNs) / total
	m["serve.flush_share"] = float64(st["serve.flush"].WallNs) / total
	m["rollout.driver_self_share"] = float64(st["rollout.driver"].SelfNs) / total
	m["sim.events"] = float64(cnt.events)
	m["sim.ns_per_event"] = float64(st["sim.run_until"].WallNs) / float64(cnt.events)
	m["gr.tick_ns"] = float64(st["gr.tick"].WallNs) / float64(cnt.grTicks)
	m["serve.enqueue_ns"] = float64(st["serve.enqueue"].WallNs) / float64(cnt.grTicks)
	snap := reg.Snapshot()
	m["serve.decisions"] = snap[serve.MetricDecisions]
	m["serve.flush_ns_per_decision"] = float64(st["serve.flush"].WallNs) / snap[serve.MetricDecisions]
	m["serve.fallback_ratio"] = snap[serve.MetricFallbacks] / snap[serve.MetricDecisions]
	m["tcp.sent_pkts"] = float64(cnt.sent)
	m["tcp.lost_ratio"] = float64(cnt.lost) / float64(cnt.sent)
	m["tcp.rto_count"] = float64(cnt.rtos)
	m["tcp.recoveries"] = float64(cnt.recovered)
	m["netem.queue_drops"] = float64(cnt.queueDrops)
	m["netem.delivered_pkts"] = float64(traced.ops)
	m["rollout.sim_s_per_wall_s"] = f.sc.Duration.Seconds() / plain.wall.Seconds()
	m["rollout.peak_rss_mb"] = peakRSSMB()
	m["trace.overhead_frac"] = traced.wall.Seconds()/plain.wall.Seconds() - 1

	m["sim.schedule_fire_ns"], m["sim.allocs_per_event"] = probeSim(e.sz.probeEvents)
	m["netem.link_ns_per_pkt"], m["netem.allocs_per_pkt"] = probeLink(e.sz.probePkts)
	m["nn.forward_ns_row_b256"], m["nn.forward_allocs_b256"] = probeForward(f.pol, 256, e.sz.probeForwardRows)
	return nil
}
