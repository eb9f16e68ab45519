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
	// state is where every flow whose states nothing keeps ticks, made at
	// the first such tick (a collection has none): a flow's state is read
	// only by its own controller, before the next flow's tick overwrites
	// it.
	state []float64
}

// flow is one connection of a driver and what the sweep keeps for it.
type flow struct {
	*tcp.Flow
	mon     *gr.Monitor // ticked and traced every interval; set by the caller
	ctl     Controller  // needs mon
	batched bool        // ctl is a BatchFlusher: its flush applies and kicks
	bg      bool        // Run's background traffic: no time series
	started bool
	record  bool    // Run with CollectSteps: mon's states are kept
	step    gr.Step // mon's latest tick
	series  []Sample

	// A recorded flow ticks into the next StateDim slot of arena, a block
	// shared by up to stateBlock ticks; a slot once handed out is never
	// written again. left counts the ticks still expected, to size the
	// last block.
	left  int
	arena []float64

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

// stateBlock is the most states one arena block holds: 59 of them fill
// 32 KiB, the allocator's largest size class, to within 200 B. A larger
// block is charged in whole 8 KiB pages, which for the 1–2 s cells of a
// tiny grid costs more than a state per tick did.
const stateBlock = (32 << 10) / (gr.StateDim * 8)

// recordSteps turns f's next n ticks into states the caller keeps.
func (f *flow) recordSteps(n int) {
	f.record, f.left = true, n
}

// stateDst returns the memory f's next tick builds its state in. A
// recorded flow's state is carved from its arena with len == cap ==
// StateDim, so appending to it cannot reach the next one. A full block is
// left to the states it holds and a new one is made for the ticks still
// expected (at least one, should a run tick more often than recordSteps
// was told).
func (d *driver) stateDst(f *flow) []float64 {
	if !f.record {
		if d.state == nil {
			d.state = make([]float64, 0, gr.StateDim)
		}
		return d.state
	}
	if len(f.arena) == cap(f.arena) {
		f.arena = make([]float64, 0, min(max(f.left, 1), stateBlock)*gr.StateDim)
	}
	f.left--
	lo := len(f.arena)
	f.arena = f.arena[:lo+gr.StateDim]
	return f.arena[lo : lo : lo+gr.StateDim]
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
			f.step = f.mon.TickInto(now, d.stateDst(f))
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
