package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"sage/internal/gr"
	"sage/internal/serve"
	"sage/internal/tcp"
)

// The load generator is a closed loop: each connection sends its next
// request only when the previous reply has arrived, with no think time,
// because a flow cannot ask for its next window before it has this one.
// Every latency sample is kept, so quantiles are exact. (chaos.RunLoad
// records into log2 buckets, up to 2× off at any quantile.)

// exchange is one request and its reply, kept for the replay check.
type exchange struct {
	state   []float64
	cwndIn  float64
	cwndOut float64
}

// lgSession is one flow: its own input stream and the window it feeds back.
type lgSession struct {
	id   uint64
	rng  *rand.Rand
	cwnd float64
	log  []exchange // the first replayDepth exchanges
}

const (
	replayDepth   = 200
	clientTimeout = 2 * time.Second
)

// lgConn is one client connection round-robining its sessions.
type lgConn struct {
	cl       *serve.Client
	sessions []*lgSession
	next     int

	sent, ok, failed int64
	busy, shed       int64     // StatusBusy and StatusOverload replies, both counted in failed
	latUs            []float64 // per OK reply, send → reply
	doneNs           []int64   // when each OK reply arrived, from the phase start
	firstErr         string
}

type loadgen struct {
	conns []*lgConn
	tr    *tracer // when set, every decision is a span
}

// dialLoad opens conns connections with perConn sessions each. Session
// inputs are uniform [0,1) states drawn from streams derived from seed.
func dialLoad(socket string, seed int64, conns, perConn int) (*loadgen, error) {
	lg := &loadgen{}
	for c := 0; c < conns; c++ {
		cl, err := serve.Dial(socket)
		if err != nil {
			lg.close()
			return nil, err
		}
		cl.SetTimeout(clientTimeout)
		lc := &lgConn{cl: cl}
		for s := 0; s < perConn; s++ {
			id := uint64(c*perConn + s + 1)
			lc.sessions = append(lc.sessions, &lgSession{
				id:   id,
				rng:  rand.New(rand.NewSource(seed*1000 + int64(id))),
				cwnd: 10,
			})
		}
		lg.conns = append(lg.conns, lc)
	}
	return lg, nil
}

func (lg *loadgen) close() {
	for _, c := range lg.conns {
		c.cl.Close()
	}
}

// one sends a single decision on the connection's next session.
func (c *lgConn) one(state []float64, t0 time.Time, record bool, tr *tracer) {
	s := c.sessions[c.next]
	c.next = (c.next + 1) % len(c.sessions)
	for i := range state {
		state[i] = s.rng.Float64()
	}
	sp := tr.begin("serve.client_decide", 0, int64(s.id))
	sent := time.Now()
	c.sent++
	cwnd, status, err := c.cl.Decide(s.id, s.cwnd, state)
	got := time.Now()
	tr.end(sp)
	switch status {
	case serve.StatusBusy:
		c.busy++
	case serve.StatusOverload:
		c.shed++
	}
	if err != nil || status != serve.StatusOK || math.IsNaN(cwnd) || math.IsInf(cwnd, 0) || cwnd < 2 {
		c.failed++
		if c.firstErr == "" {
			if err != nil {
				c.firstErr = err.Error()
			} else {
				c.firstErr = fmt.Sprintf("status %d, cwnd %g", status, cwnd)
			}
		}
		return
	}
	c.ok++
	if len(s.log) < replayDepth {
		s.log = append(s.log, exchange{state: append([]float64(nil), state...), cwndIn: s.cwnd, cwndOut: cwnd})
	}
	// The window is fed back clamped as a connection would clamp it
	// (tcp.Options.MaxCwnd): an untrained policy can double it every reply.
	s.cwnd = tcp.ClampCwnd(cwnd, 2, 20000)
	if record {
		c.latUs = append(c.latUs, float64(got.Sub(sent).Nanoseconds())/1e3)
		c.doneNs = append(c.doneNs, got.Sub(t0).Nanoseconds())
	}
}

// run drives every connection for d, keeping every latency in buffers sized
// up front so the timed loop does not grow them.
func (lg *loadgen) run(d time.Duration) {
	for _, c := range lg.conns {
		n := int(d.Seconds()*20000) + 1024
		c.latUs, c.doneNs = make([]float64, 0, n), make([]int64, 0, n)
	}
	lg.drive(true, func(_ int, elapsed time.Duration) bool { return elapsed < d })
}

// warm sends n decisions on every connection without recording them.
func (lg *loadgen) warm(n int) {
	lg.drive(false, func(done int, _ time.Duration) bool { return done < n })
}

// drive runs one goroutine per connection while more allows. A connection
// that errors stops sending: the client's framing is poisoned after a
// timeout, and a failed run is reported as failed, not retried.
func (lg *loadgen) drive(record bool, more func(done int, elapsed time.Duration) bool) {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, c := range lg.conns {
		wg.Add(1)
		go func(c *lgConn) {
			defer wg.Done()
			state := make([]float64, gr.StateDim)
			for done := 0; c.firstErr == "" && more(done, time.Since(t0)); done++ {
				c.one(state, t0, record, lg.tr)
			}
		}(c)
	}
	wg.Wait()
}

// totals sums the accounting; sent == ok + failed holds by construction
// and is asserted by the caller.
func (lg *loadgen) totals() (sent, ok, failed int64, firstErr string) {
	for _, c := range lg.conns {
		sent, ok, failed = sent+c.sent, ok+c.ok, failed+c.failed
		if firstErr == "" {
			firstErr = c.firstErr
		}
	}
	return
}

// windows cuts the recorded phase into whole windows, each a repetition:
// the OK replies that arrived in it and their latencies.
func (lg *loadgen) windows(d, window time.Duration) []rep {
	reps := make([]rep, int(d/window))
	for i := range reps {
		reps[i].wall = window
	}
	for _, c := range lg.conns {
		for i, ns := range c.doneNs {
			if w := int(ns / window.Nanoseconds()); w < len(reps) {
				reps[w].ops++
				reps[w].latUs = append(reps[w].latUs, c.latUs[i])
			}
		}
	}
	return reps
}

func (lg *loadgen) latencies() []float64 {
	var all []float64
	for _, c := range lg.conns {
		all = append(all, c.latUs...)
	}
	return all
}
