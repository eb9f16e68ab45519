package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"strconv"
	"sync"
	"time"

	"sage/internal/wire"
)

// Control handles the lifecycle verbs of the wire protocol (OpSwap,
// OpStatus). The sage-serve daemon installs its promotion manager here;
// a server without one rejects control requests.
type Control interface {
	// Swap hot-swaps the serving model. Empty id = reload the registry
	// incumbent; otherwise the named registry model. Returns a
	// human-readable report.
	Swap(id string) (string, error)
	// Status returns a JSON lifecycle status document.
	Status() string
}

// Server exposes an Engine over a stream listener (a Unix domain socket
// for the sage-serve daemon). Each client connection is handled by one
// goroutine that decodes frames sequentially; concurrency across
// connections is what the engine's batcher coalesces.
type Server struct {
	eng *Engine

	// MaxConns caps concurrently served connections (0 = unlimited). An
	// accept beyond the cap is shed explicitly: the new connection gets a
	// single StatusOverload frame with a jittered retry-after hint and is
	// closed, so a connection storm can never pile handler goroutines onto
	// an already-overloaded engine. Set before Serve.
	MaxConns int

	mu     sync.Mutex
	ctl    Control
	conns  wire.Conns
	doneCh chan struct{}
}

// SetControl installs the lifecycle handler for OpSwap/OpStatus.
func (s *Server) SetControl(ctl Control) {
	s.mu.Lock()
	s.ctl = ctl
	s.mu.Unlock()
}

func (s *Server) control() Control {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctl
}

// NewServer wraps an engine. The engine's async path is started on Serve.
func NewServer(eng *Engine) *Server {
	return &Server{eng: eng, doneCh: make(chan struct{})}
}

// ListenAndServe listens on a Unix socket at path (removing a stale
// socket file first) and serves until Shutdown.
func (s *Server) ListenAndServe(path string) error {
	ln, err := wire.Listen("unix", path)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown. It always returns a
// non-nil error; after Shutdown the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.eng.Start() // a no-op once Shutdown has closed the engine
	return s.conns.Serve(ln, s.MaxConns, s.shedConn, s.handle)
}

// Shutdown drains gracefully: stop accepting, let queued and in-flight
// decisions complete (Engine.Close), then hang up on idle clients and
// wait for every handler to exit. Safe to call from a signal handler
// goroutine and to call more than once.
func (s *Server) Shutdown() {
	if s.conns.Close() {
		close(s.doneCh) // wake handlers parked in a backpressure pause

		// Drain the engine first: handlers blocked in Decide get their
		// responses out before connections are torn down.
		s.eng.Close()

		// Hang up the read side only: a handler mid-request still writes
		// its response over the intact write side, then exits on the next
		// read. Closing outright here would race the final response write.
		s.conns.Each(func(c net.Conn) {
			if rc, ok := c.(interface{ CloseRead() error }); ok {
				rc.CloseRead()
			} else {
				c.Close()
			}
		})
	}
	s.conns.Wait()
}

// shedConn rejects a connection beyond MaxConns: one explicit
// StatusOverload frame carrying a jittered retry-after hint (integer
// milliseconds), then hang up. The dialer learns to back off instead of
// observing a silent RST or, worse, a socket that accepts and stalls.
func (s *Server) shedConn(conn net.Conn) {
	hint := s.eng.retryHint()
	s.eng.cfg.Metrics.Counter(MetricOverloadConnShed).Inc()
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	frame := appendResponse(wire.StartFrame(nil), StatusOverload, 0, strconv.Itoa(int(hint.Milliseconds())))
	wire.WriteFrame(conn, frame, maxFrame)
	conn.Close()
}

// handle serves one client connection until EOF or Shutdown. It reads
// through one readAhead buffer and builds each reply in place behind its
// frame prefix, so a decision costs one read, one write and no allocation.
func (s *Server) handle(conn net.Conn) {
	var (
		r        = bufio.NewReaderSize(conn, readAhead)
		rbuf     []byte
		wbuf     []byte
		stateBuf []float64
	)
	for {
		p, err := wire.ReadFrame(r, rbuf, maxFrame)
		if err != nil {
			return // EOF, hangup, or oversized frame: drop the connection
		}
		rbuf = p[:0]
		wbuf = wire.StartFrame(wbuf)
		req, sb, err := parseRequest(p, stateBuf)
		stateBuf = sb
		if err != nil {
			wbuf = appendResponse(wbuf, StatusError, 0, err.Error())
			if wire.WriteFrame(conn, wbuf, maxFrame) != nil {
				return
			}
			continue
		}
		var pause time.Duration
		switch req.Op {
		case OpDecide:
			newCwnd, fallback, err := s.eng.DecidePri(req.SID, req.Cwnd, req.State, req.Pri)
			switch {
			case err != nil:
				wbuf, pause = appendDecideError(wbuf, req.Cwnd, err)
			case fallback:
				wbuf = appendResponse(wbuf, StatusFallback, newCwnd, "")
			default:
				wbuf = appendResponse(wbuf, StatusOK, newCwnd, "")
			}
		case OpReset:
			s.eng.ResetSession(req.SID)
			wbuf = appendResponse(wbuf, StatusOK, 0, "")
		case OpCloseSession:
			s.eng.CloseSession(req.SID)
			wbuf = appendResponse(wbuf, StatusOK, 0, "")
		case OpSwap:
			if ctl := s.control(); ctl == nil {
				wbuf = appendResponse(wbuf, StatusError, 0, "no lifecycle control handler")
			} else if report, err := ctl.Swap(req.Arg); err != nil {
				wbuf = appendResponse(wbuf, StatusError, 0, err.Error())
			} else {
				wbuf = appendResponse(wbuf, StatusOK, 0, report)
			}
		case OpStatus:
			if ctl := s.control(); ctl == nil {
				wbuf = appendResponse(wbuf, StatusError, 0, "no lifecycle control handler")
			} else {
				wbuf = appendResponse(wbuf, StatusOK, 0, ctl.Status())
			}
		case OpHealth:
			h := s.eng.Health()
			h.Conns, h.Draining = s.conns.Len()
			if doc, err := json.Marshal(h); err != nil {
				wbuf = appendResponse(wbuf, StatusError, 0, err.Error())
			} else {
				wbuf = appendResponse(wbuf, StatusOK, 0, string(doc))
			}
		}
		if wire.WriteFrame(conn, wbuf, maxFrame) != nil {
			return
		}
		if pause > 0 {
			select {
			case <-time.After(pause):
			case <-s.doneCh:
				return
			}
		}
	}
}

// appendDecideError encodes the reply to a Decide the engine refused,
// and the read-side pause before the connection's next request. Only
// this path pays for errors.As's target.
func appendDecideError(b []byte, cwnd float64, err error) ([]byte, time.Duration) {
	var oe *OverloadError
	switch {
	case errors.As(err, &oe):
		// Typed OVERLOAD reply (cwnd echoed, retry hint in msg), then
		// read-side backpressure: pause before the next read so a
		// hot-looping client is rate-limited by its own TCP window
		// instead of hammering admission control.
		return appendResponse(b, StatusOverload, cwnd, strconv.Itoa(int(oe.RetryAfter.Milliseconds()))),
			min(oe.RetryAfter, 100*time.Millisecond)
	case errors.Is(err, ErrSessionBusy):
		return appendResponse(b, StatusBusy, cwnd, ""), 0
	case errors.Is(err, ErrClosed):
		return appendResponse(b, StatusError, cwnd, "server draining"), 0
	default:
		return appendResponse(b, StatusError, cwnd, err.Error()), 0
	}
}
