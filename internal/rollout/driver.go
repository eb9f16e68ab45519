package rollout

import (
	"slices"

	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/sim"
	"sage/internal/tcp"
	"sage/internal/telemetry"
)

// driver is one simulation — an event loop, a scenario's network and the
// flows on its bottleneck — and the per-interval sweep that Run and RunMulti
// share.
type driver struct {
	opt        Options
	loop       *sim.Loop
	net        *netem.Network
	flows      []flow         // sized up front: add hands out pointers into it
	flushers   []BatchFlusher // distinct batching controllers, first-seen order
	nextSample sim.Time
}

// flow is one connection of a driver and what the sweep keeps for it.
type flow struct {
	*tcp.Flow
	mon     *gr.Monitor // ticked and traced every interval; set by the caller
	ctl     Controller  // needs mon
	batched bool        // ctl is a BatchFlusher: its flush applies and kicks
	bg      bool        // Run's background traffic: no time series
	started bool
	step    gr.Step // mon's latest tick
	series  []Sample

	prevSent, prevRx int64
	prevAt           sim.Time
}

func newDriver(sc netem.Scenario, flows int, opt Options) driver {
	opt.GR = opt.GR.Fill()
	loop := sim.NewLoop()
	return driver{opt: opt, loop: loop, net: sc.Build(loop), flows: make([]flow, 0, flows)}
}

// add attaches a flow with congestion control c and the controller (or nil)
// that drives it.
func (d *driver) add(id int, c tcp.CongestionControl, ctl Controller) *flow {
	d.flows = append(d.flows, flow{Flow: tcp.NewFlow(d.loop, d.net, id, c, d.opt.TCP), ctl: ctl})
	f := &d.flows[len(d.flows)-1]
	if bf, ok := ctl.(BatchFlusher); ok {
		f.batched = true
		if !slices.Contains(d.flushers, bf) {
			d.flushers = append(d.flushers, bf)
		}
	}
	return f
}

func (f *flow) begin(now sim.Time) {
	f.Conn.Start(now)
	f.started, f.prevAt = true, now
}

// run ticks every GR interval after origin up to the scenario's end, calling
// each (when non-nil) after every sweep, and reports whether Options.Ctx cut
// it short. A sweep advances the simulation to the tick; then every started
// flow with a monitor computes its state and its controller decides; then
// each distinct batching controller flushes once; then the trace and the
// time series are recorded.
func (d *driver) run(origin, end sim.Time, each func(now sim.Time)) (interrupted bool) {
	d.nextSample = origin + d.opt.SamplePeriod
	for now := origin + d.opt.GR.Interval; now <= end; now += d.opt.GR.Interval {
		if d.opt.Ctx != nil && d.opt.Ctx.Err() != nil {
			return true
		}
		d.loop.RunUntil(now)
		for i := range d.flows {
			f := &d.flows[i]
			if !f.started || f.mon == nil {
				continue
			}
			f.step = f.mon.Tick(now)
			if f.ctl != nil {
				f.ctl.Control(now, f.Conn, f.step.State)
				if !f.batched {
					f.Conn.Kick(now)
				}
			}
		}
		// A batching controller only enqueued its flows' decisions; the flush
		// applies each cwnd update and kicks the connection. Kicking before it
		// could send packets the decision would not have allowed. No event
		// runs between the Control calls and the flush, so deferring the
		// application is the same as acting inline.
		for _, bf := range d.flushers {
			bf.FlushBatch(now)
		}
		if d.opt.Trace != nil {
			for i := range d.flows {
				if f := &d.flows[i]; f.started && f.mon != nil {
					d.opt.Trace.Record(d.flowSample(now, f))
				}
			}
		}
		if d.opt.SamplePeriod > 0 && now >= d.nextSample {
			for i := range d.flows {
				if !d.flows[i].bg {
					d.flows[i].sample(now)
				}
			}
			d.nextSample += d.opt.SamplePeriod
		}
		if each != nil {
			each(now)
		}
	}
	return false
}

// flowSample snapshots f's datapath state and the bottleneck queue for a
// flow trace.
func (d *driver) flowSample(now sim.Time, f *flow) telemetry.FlowSample {
	st := f.Conn.Stats()
	q := d.net.Link.Queue()
	return telemetry.FlowSample{
		AtUs:         int64(now),
		Flow:         f.Conn.ID,
		Cwnd:         st.Cwnd,
		SRTTMs:       st.SRTT.Millis(),
		RTTVarMs:     st.RTTVar.Millis(),
		InflightPkts: st.InflightPkts,
		DeliveryBps:  st.DeliveryRate * 8,
		LostPkts:     st.LostPkts,
		Retrans:      st.RTOs,
		Recoveries:   st.Recoveries,
		QueuePkts:    q.Len(),
		QueueBytes:   q.Bytes(),
		Action:       f.step.Action,
		Reward:       f.step.Reward,
	}
}

// sample appends f's rates since its previous sample (or its start).
func (f *flow) sample(now sim.Time) {
	sent := f.Conn.SentPkts()
	rx, _, _ := f.Sink.Totals()
	s := Sample{At: now, Cwnd: f.Conn.Cwnd, OWD: f.Sink.OWDAvg(), SRTT: f.Conn.SRTT()}
	if span := (now - f.prevAt).Seconds(); span > 0 {
		s.SendRateBps = float64(sent-f.prevSent) * float64(f.Conn.MSS()) * 8 / span
		s.ThrBps = float64(rx-f.prevRx) * 8 / span
	}
	f.series = append(f.series, s)
	f.prevSent, f.prevRx, f.prevAt = sent, rx, now
}

// totals returns f's receiver throughput over [from, to] and its mean
// one-way delay.
func (f *flow) totals(from, to sim.Time) (thrBps float64, owd sim.Time) {
	rx, pkts, owdSum := f.Sink.Totals()
	if window := (to - from).Seconds(); window > 0 {
		thrBps = float64(rx) * 8 / window
	}
	if pkts > 0 {
		owd = owdSum / sim.Time(pkts)
	}
	return thrBps, owd
}

// release gives a finished simulation's memory back for the next one on any
// goroutine to reuse: each connection's tx ring, each monitor's signal
// windows, and the network's packets, delay line and queue ring. Run and
// RunMulti call it on normal return only; a rollout that panicked leaves
// its memory to the garbage collector. Nothing a result holds is released.
func (d *driver) release() {
	for i := range d.flows {
		d.flows[i].Conn.Release()
	}
	for i := range d.flows {
		if m := d.flows[i].mon; m != nil {
			m.Release()
		}
	}
	d.net.Release()
}
