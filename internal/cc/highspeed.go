package cc

import (
	"math"

	"sage/internal/sim"
	"sage/internal/tcp"
)

func init() { Register("highspeed", func() tcp.CongestionControl { return &HighSpeed{} }) }

// HighSpeed implements HighSpeed TCP (RFC 3649): the AIMD parameters a(w)
// and b(w) grow/shrink with the window so large-BDP paths are filled quickly
// while small windows behave exactly like Reno.
type HighSpeed struct{}

// RFC 3649 corner points.
const (
	hsLowWindow  = 38.0
	hsHighWindow = 83000.0
	hsHighDecr   = 0.1
)

// hsB returns b(w), the multiplicative-decrease fraction.
func hsB(w float64) float64 {
	if w <= hsLowWindow {
		return 0.5
	}
	b := (hsHighDecr-0.5)*(math.Log(w)-math.Log(hsLowWindow))/
		(math.Log(hsHighWindow)-math.Log(hsLowWindow)) + 0.5
	if b < hsHighDecr {
		b = hsHighDecr
	}
	return b
}

// hsA returns a(w), the per-RTT additive increase in packets.
func hsA(w float64) float64 {
	if w <= hsLowWindow {
		return 1
	}
	// RFC 3649 §5: p(w) follows the response function; a(w) derived from it.
	p := 0.078 / math.Pow(w, 1.2)
	b := hsB(w)
	a := w * w * p * 2 * b / (2 - b)
	if a < 1 {
		a = 1
	}
	return a
}

// Name implements tcp.CongestionControl.
func (*HighSpeed) Name() string { return "highspeed" }

// Init implements tcp.CongestionControl.
func (*HighSpeed) Init(c *tcp.Conn) {}

// OnAck implements tcp.CongestionControl.
func (*HighSpeed) OnAck(c *tcp.Conn, e tcp.AckEvent) {
	if e.State != tcp.StateOpen {
		return
	}
	if slowStart(c) {
		c.SetCwnd(c.Cwnd + float64(e.AckedPkts))
		return
	}
	c.SetCwnd(c.Cwnd + hsA(c.Cwnd)*float64(e.AckedPkts)/c.Cwnd)
}

// OnLoss implements tcp.CongestionControl.
func (*HighSpeed) OnLoss(c *tcp.Conn, lost int, now sim.Time) {
	multiplicativeLoss(c, 1-hsB(c.Cwnd))
}

// OnRTO implements tcp.CongestionControl.
func (*HighSpeed) OnRTO(c *tcp.Conn, now sim.Time) { rtoCollapse(c) }
