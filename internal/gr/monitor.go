package gr

import (
	"sage/internal/sim"
	"sage/internal/tcp"
)

// Step is one recorded timestep of a trajectory: the 69-element state, the
// generalized action a_t = cwnd_t/cwnd_{t-1}, and the reward.
type Step struct {
	State  []float64
	Action float64
	Reward float64
}

// MeanReward is a trajectory's mean per-step reward, summed in step order
// (0 for no steps): the score of a pool trajectory and of a gate replay.
func MeanReward(steps []Step) float64 {
	if len(steps) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range steps {
		sum += s.Reward
	}
	return sum / float64(len(steps))
}

// Monitor samples a connection every Config.Interval and produces Steps.
// It plays the GR unit's role: the underlying CC scheme is a black box whose
// effect is visible only through the recorded raw signals and cwnd ratio.
type Monitor struct {
	cfg  Config
	conn *tcp.Conn
	rctx RewardContext

	// Windowed raw signals, one row per tick: srtt (ms), throughput (Mb/s),
	// rtt rate (unitless), rttvar (ms), inflight (packets), packets newly
	// lost this tick.
	win *windows

	prevNow       sim.Time
	prevCwnd      float64
	prevLastRTT   sim.Time
	prevDelivered int64
	prevDelPkts   int64
	prevLost      int64
	prevDR        float64
	prevDRMax     float64
	prevAction    float64
	ticks         int

	// Cumulative counters sampled at each tick, for reward-rate smoothing
	// over the trailing RewardWindow ticks.
	delHist  []int64
	lostHist []int64
	timeHist []sim.Time
	histNext int
	histLen  int
}

// NewMonitor attaches a GR monitor to conn. The reward context describes the
// environment the connection runs in (used only during data collection; at
// deployment the policy consumes states, never rewards).
func NewMonitor(cfg Config, conn *tcp.Conn, rctx RewardContext) *Monitor {
	cfg = cfg.Fill()
	return &Monitor{
		cfg:        cfg,
		conn:       conn,
		rctx:       rctx,
		win:        newWindows(cfg.Large),
		prevAction: 1,
		prevCwnd:   conn.Cwnd,
		delHist:    make([]int64, cfg.RewardWindow+1),
		lostHist:   make([]int64, cfg.RewardWindow+1),
		timeHist:   make([]sim.Time, cfg.RewardWindow+1),
	}
}

// Release gives the monitor's signal windows back for the next monitor on
// any goroutine to reuse. Call it after the last Tick; a Tick after Release
// panics.
func (m *Monitor) Release() {
	m.checkLive()
	releasedWindows.Put(m.win)
	m.win = nil
}

func (m *Monitor) checkLive() {
	if m.win == nil {
		panic("gr: monitor used after Release")
	}
}

// smoothedRates returns delivery and loss rates in bits/second over the
// trailing reward window ending at now.
func (m *Monitor) smoothedRates(now sim.Time, delivered, lostBytes int64) (delBps, lossBps float64) {
	n := len(m.delHist)
	m.delHist[m.histNext] = delivered
	m.lostHist[m.histNext] = lostBytes
	m.timeHist[m.histNext] = now
	m.histNext = (m.histNext + 1) % n
	if m.histLen < n {
		m.histLen++
	}
	oldest := m.histNext
	if m.histLen < n {
		oldest = 0
	}
	span := now - m.timeHist[oldest]
	if m.histLen < 2 || span <= 0 {
		return 0, 0
	}
	delBps = float64(delivered-m.delHist[oldest]) * 8 / span.Seconds()
	lossBps = float64(lostBytes-m.lostHist[oldest]) * 8 / span.Seconds()
	return delBps, lossBps
}

// Config returns the monitor's (filled) configuration.
func (m *Monitor) Config() Config { return m.cfg }

// Ticks returns how many samples have been taken.
func (m *Monitor) Ticks() int { return m.ticks }

func msOf(t sim.Time) float64 { return t.Millis() }

func mbpsOfBytesPerSec(b float64) float64 { return b * 8 / 1e6 }

// Tick samples the connection at now and returns the completed Step. Its
// State is a new slice the caller owns.
func (m *Monitor) Tick(now sim.Time) Step {
	return m.TickInto(now, make([]float64, 0, StateDim))
}

// TickInto is Tick with the state built in dst[:0]: the returned Step's
// State is dst[:StateDim] when cap(dst) ≥ StateDim, so a caller that
// reuses dst allocates nothing per tick, and a caller that keeps the state
// hands each tick its own dst.
func (m *Monitor) TickInto(now sim.Time, dst []float64) Step {
	m.checkLive()
	c := m.conn
	mss := float64(c.MSS())

	srttMs := msOf(c.SRTT())
	rttvarMs := msOf(c.RTTVar())
	thrMbps := mbpsOfBytesPerSec(c.DeliveryRate())
	lastRTT := c.LastRTT()

	rttRate := 1.0
	if m.prevLastRTT > 0 && lastRTT > 0 {
		rttRate = float64(lastRTT) / float64(m.prevLastRTT)
	}
	newLostPkts := float64(c.LostPkts() - m.prevLost)
	inflPkts := float64(c.InflightPkts())

	m.win.push([numSignals]float64{srttMs, thrMbps, rttRate, rttvarMs, inflPkts, newLostPkts})

	state := dst[:0]
	// 1-4: instantaneous kernel signals.
	state = append(state, srttMs, rttvarMs, thrMbps, float64(c.State()))
	// 5-58: windowed stats, avg/min/max over Small, Medium, Large.
	state = m.win.appendStats(state, [3]int{m.cfg.Small, m.cfg.Medium, m.cfg.Large})
	// 59-69: scalar signals.
	interval := now - m.prevNow
	if m.prevNow == 0 {
		interval = m.cfg.Interval
	}
	minRTT := c.MinRTT()
	timeDelta := 1.0
	if minRTT > 0 {
		timeDelta = float64(interval) / float64(minRTT)
	}
	lossDBMbps := mbpsOfBytesPerSec(newLostPkts * mss / interval.Seconds())
	ackedRate := 0.0
	if c.Cwnd > 0 {
		ackedRate = float64(c.DeliveredPkts()-m.prevDelPkts) / c.Cwnd
	}
	dr := c.DeliveryRate()
	drRatio := 1.0
	if m.prevDR > 0 && dr > 0 {
		drRatio = dr / m.prevDR
	}
	drMax := c.MaxDeliveryRate()
	bdpCwnd := 0.0
	if c.Cwnd > 0 && minRTT > 0 {
		bdpCwnd = drMax * minRTT.Seconds() / mss / c.Cwnd
	}
	cwndUnacked := 0.0
	if c.Cwnd > 0 {
		cwndUnacked = inflPkts / c.Cwnd
	}
	drMaxRatio := 1.0
	if m.prevDRMax > 0 && drMax > 0 {
		drMaxRatio = drMax / m.prevDRMax
	}
	state = append(state,
		timeDelta,                // 59 time_delta
		rttRate,                  // 60 rtt_rate
		lossDBMbps,               // 61 loss_db
		ackedRate,                // 62 acked_rate
		drRatio,                  // 63 dr_ratio
		bdpCwnd,                  // 64 bdp_cwnd
		mbpsOfBytesPerSec(dr),    // 65 dr
		cwndUnacked,              // 66 cwnd_unacked_rate
		mbpsOfBytesPerSec(drMax), // 67 dr_max
		drMaxRatio,               // 68 dr_max_ratio
		m.prevAction,             // 69 pre_act
	)

	// Generalized action: cwnd ratio.
	action := 1.0
	if m.prevCwnd > 0 {
		action = c.Cwnd / m.prevCwnd
	}

	// Reward for this timestep, over smoothed trailing-window rates.
	deliveryBps, lossBps := m.smoothedRates(now, c.Delivered(), c.LostPkts()*int64(mss))
	var reward float64
	switch m.rctx.Kind {
	case RewardFriendly:
		reward = R2(deliveryBps, m.rctx.FairShare)
	default:
		cap := 0.0
		if m.rctx.Capacity != nil {
			cap = m.rctx.Capacity(now)
		}
		delay := c.SRTT()
		reward = R1(deliveryBps, lossBps, cap, delay, m.rctx.MinRTT, m.cfg.Xi, m.cfg.Kappa)
	}

	m.prevNow = now
	m.prevCwnd = c.Cwnd
	m.prevLastRTT = lastRTT
	m.prevDelivered = c.Delivered()
	m.prevDelPkts = c.DeliveredPkts()
	m.prevLost = c.LostPkts()
	m.prevDR = dr
	m.prevDRMax = drMax
	m.prevAction = action
	m.ticks++

	return Step{State: state, Action: action, Reward: reward}
}
