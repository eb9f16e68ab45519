package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sage/internal/wire"
)

// Transport injects deterministic, seeded network faults into
// length-prefixed-frame connections — internal/wire's framing, which
// internal/dist and internal/serve both speak, read here through the same
// wire.ReadFrame under dist's 1 << 28 bound. Because the wrapper
// understands frames, faults land on protocol-meaningful boundaries: a
// whole request can be dropped, duplicated, or truncated mid-frame,
// rather than corrupting the stream at an arbitrary byte where no real
// network component would.
//
// Faults simulated, each rolled per frame from a per-connection seeded
// stream (so a run with the same seed replays the same schedule):
//
//   - Drop: the connection is torn down abruptly (RST-like);
//   - Dup: the frame is delivered twice (retransmission after a lost ACK);
//   - Trunc: a prefix of the frame is delivered and the connection dies
//     (peer crash mid-send);
//   - Stall: delivery hangs for StallFor (a hung middlebox) — the fault
//     per-RPC deadlines exist to break;
//   - Delay/Jitter: added latency per frame;
//   - Partitions: periodic windows (every PartEvery, lasting PartFor)
//     during which frames are silently discarded — one-way (PartDir
//     "in"/"out") or full ("both") — the fault retries and idempotent
//     RPC exist to absorb.
//
// A Transport is shared by every connection it wraps: connection N gets
// fault stream derive(Seed, N), so concurrent connections do not perturb
// each other's schedules (though accept order still decides which
// connection is N).
type Transport struct {
	spec  FaultSpec
	seq   atomic.Int64
	start time.Time

	// OnEvent, when non-nil, observes every injected fault (telemetry
	// JSONL, test assertions). Called from connection goroutines; must be
	// safe for concurrent use. Set before wrapping any connection.
	OnEvent func(FaultEvent)
}

// FaultSpec configures a Transport. Probabilities are per frame in
// [0,1]; zero values disable the corresponding fault.
type FaultSpec struct {
	Seed     int64         // base seed for every per-connection fault stream
	Drop     float64       // P(abruptly close the connection)
	Dup      float64       // P(deliver the frame twice)
	Trunc    float64       // P(deliver a prefix, then close)
	Stall    float64       // P(hold the frame for StallFor)
	StallFor time.Duration // stall duration (default 5s)
	Delay    time.Duration // fixed added latency per frame
	Jitter   time.Duration // uniform extra latency in [0, Jitter)

	PartEvery time.Duration // partition period (0 = no partitions)
	PartFor   time.Duration // partition length at the start of each period
	PartDir   string        // "in", "out", or "both" (default)
}

// Active reports whether the spec injects any fault at all.
func (s FaultSpec) Active() bool {
	return s.Drop > 0 || s.Dup > 0 || s.Trunc > 0 || s.Stall > 0 ||
		s.Delay > 0 || s.Jitter > 0 || (s.PartEvery > 0 && s.PartFor > 0)
}

// FaultEvent describes one injected fault.
type FaultEvent struct {
	Time  time.Time `json:"time"`
	Conn  int64     `json:"conn"` // connection index within the transport
	Dir   string    `json:"dir"`  // "read" | "write"
	Kind  string    `json:"kind"` // "drop" | "dup" | "trunc" | "stall" | "partition"
	Bytes int       `json:"bytes"`
}

// ParseFaultSpec parses the comma-separated key=value spec the -chaos
// CLI flag accepts, e.g.
//
//	seed=7,drop=0.02,dup=0.05,trunc=0.01,delay=2ms,jitter=3ms,stall=0.01,stall-for=2s,part-every=10s,part-for=1s,part-dir=out
func ParseFaultSpec(s string) (FaultSpec, error) {
	spec := FaultSpec{Seed: 1, StallFor: 5 * time.Second, PartDir: "both"}
	if strings.TrimSpace(s) == "" {
		return spec, errors.New("chaos: empty fault spec")
	}
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return spec, fmt.Errorf("chaos: fault spec entry %q is not key=value", kv)
		}
		var err error
		switch key {
		case "seed":
			spec.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			spec.Drop, err = parseProb(val)
		case "dup":
			spec.Dup, err = parseProb(val)
		case "trunc":
			spec.Trunc, err = parseProb(val)
		case "stall":
			spec.Stall, err = parseProb(val)
		case "stall-for":
			spec.StallFor, err = time.ParseDuration(val)
		case "delay":
			spec.Delay, err = time.ParseDuration(val)
		case "jitter":
			spec.Jitter, err = time.ParseDuration(val)
		case "part-every":
			spec.PartEvery, err = time.ParseDuration(val)
		case "part-for":
			spec.PartFor, err = time.ParseDuration(val)
		case "part-dir":
			if val != "in" && val != "out" && val != "both" {
				return spec, fmt.Errorf("chaos: part-dir %q (want in|out|both)", val)
			}
			spec.PartDir = val
		default:
			return spec, fmt.Errorf("chaos: unknown fault spec key %q", key)
		}
		if err != nil {
			return spec, fmt.Errorf("chaos: fault spec %s=%s: %w", key, val, err)
		}
	}
	if spec.PartEvery > 0 && spec.PartFor >= spec.PartEvery {
		return spec, fmt.Errorf("chaos: part-for %s must be shorter than part-every %s", spec.PartFor, spec.PartEvery)
	}
	return spec, nil
}

func parseProb(val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %g outside [0,1]", p)
	}
	return p, nil
}

// NewTransport builds a transport over the fault spec.
func NewTransport(spec FaultSpec) *Transport {
	if spec.StallFor <= 0 {
		spec.StallFor = 5 * time.Second
	}
	return &Transport{spec: spec, start: time.Now()}
}

// WrapConn wraps one connection with this transport's fault schedule.
func (t *Transport) WrapConn(c net.Conn) net.Conn {
	id := t.seq.Add(1)
	// Independent read/write streams so one direction's draw count does
	// not shift the other's schedule.
	return &faultConn{
		Conn: c,
		t:    t,
		id:   id,
		rd:   faultSide{rng: rand.New(rand.NewSource(t.spec.Seed<<16 ^ id<<1))},
		wr:   faultSide{rng: rand.New(rand.NewSource(t.spec.Seed<<16 ^ (id<<1 | 1)))},
	}
}

// Listener wraps ln so every accepted connection carries the fault
// schedule.
func (t *Transport) Listener(ln net.Listener) net.Listener {
	return &faultListener{Listener: ln, t: t}
}

type faultListener struct {
	net.Listener
	t *Transport
}

func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.WrapConn(c), nil
}

// partitioned reports whether a partition window covers now in the given
// direction ("read" is the spec's "in" side, "write" its "out" side).
func (t *Transport) partitioned(dir string) bool {
	s := t.spec
	if s.PartEvery <= 0 || s.PartFor <= 0 {
		return false
	}
	if s.PartDir == "in" && dir != "read" {
		return false
	}
	if s.PartDir == "out" && dir != "write" {
		return false
	}
	return time.Since(t.start)%s.PartEvery < s.PartFor
}

func (t *Transport) emit(ev FaultEvent) {
	if t.OnEvent != nil {
		ev.Time = time.Now()
		t.OnEvent(ev)
	}
}

// maxChaosFrame bounds a buffered frame; anything larger than the dist
// protocol's own limit is a stream the wrapper does not understand.
const maxChaosFrame = 1 << 28

var errNotFramed = errors.New("chaos: stream is not length-prefixed framed (frame exceeds limit)")

// faultSide is one direction's fault stream and buffer.
type faultSide struct {
	mu      sync.Mutex
	rng     *rand.Rand
	buf     []byte // write: partial outbound frame; read: decoded inbound bytes
	fail    error  // sticky error served after buf drains (trunc/drop)
	payload []byte // wire.ReadFrame's reused buffer; only the frame's length is used
}

// faultConn applies the schedule to each complete frame crossing the
// connection in either direction.
type faultConn struct {
	net.Conn
	t  *Transport
	id int64
	rd faultSide
	wr faultSide
}

// roll draws one fault decision. Order fixes precedence: a frame that
// would both drop and dup only drops.
func (s *faultSide) roll(spec FaultSpec) string {
	// One draw per fault kind per frame keeps the schedule deterministic
	// even as individual probabilities are tuned.
	pDrop, pTrunc, pDup, pStall := s.rng.Float64(), s.rng.Float64(), s.rng.Float64(), s.rng.Float64()
	switch {
	case pDrop < spec.Drop:
		return "drop"
	case pTrunc < spec.Trunc:
		return "trunc"
	case pDup < spec.Dup:
		return "dup"
	case pStall < spec.Stall:
		return "stall"
	}
	return ""
}

// latency draws the added delay for one frame.
func (s *faultSide) latency(spec FaultSpec) time.Duration {
	d := spec.Delay
	if spec.Jitter > 0 {
		d += time.Duration(s.rng.Int63n(int64(spec.Jitter)))
	}
	return d
}

// Write buffers p until at least one complete frame is assembled, then
// delivers each frame through the fault schedule. Buffered bytes are
// reported written; a frame the schedule kills surfaces as a connection
// error on this or a later call.
func (c *faultConn) Write(p []byte) (int, error) {
	s := &c.wr
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail != nil {
		return 0, s.fail
	}
	s.buf = append(s.buf, p...)
	for {
		r := bytes.NewReader(s.buf)
		payload, err := wire.ReadFrame(r, s.payload, maxChaosFrame)
		if errors.Is(err, wire.ErrFrameTooBig) {
			s.fail = errNotFramed
			return 0, s.fail
		}
		if err != nil {
			return len(p), nil // only part of a frame so far
		}
		s.payload = payload[:0]
		n := len(s.buf) - r.Len()
		frame := s.buf[:n:n]
		s.buf = append([]byte(nil), s.buf[n:]...)
		if err := c.deliver(s, "write", frame, func(b []byte) error {
			_, werr := c.Conn.Write(b)
			return werr
		}); err != nil {
			s.fail = err
			return 0, err
		}
	}
}

// Read serves decoded bytes, pulling (and fault-processing) one inbound
// frame at a time from the underlying connection.
func (c *faultConn) Read(p []byte) (int, error) {
	s := &c.rd
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.buf) == 0 {
		if s.fail != nil {
			return 0, s.fail
		}
		// The tee keeps the frame's bytes exactly as they arrived, header
		// included, for the fault schedule to deliver.
		var frame bytes.Buffer
		payload, err := wire.ReadFrame(io.TeeReader(c.Conn, &frame), s.payload, maxChaosFrame)
		if errors.Is(err, wire.ErrFrameTooBig) {
			err = errNotFramed
		}
		if err != nil {
			return 0, err
		}
		s.payload = payload[:0]
		if err := c.deliver(s, "read", frame.Bytes(), func(b []byte) error {
			s.buf = append(s.buf, b...)
			return nil
		}); err != nil {
			if len(s.buf) > 0 {
				// Serve the truncated prefix first; the error is sticky.
				s.fail = err
				break
			}
			return 0, err
		}
	}
	n := copy(p, s.buf)
	s.buf = s.buf[n:]
	return n, nil
}

// deliver applies the fault schedule to one complete frame and hands the
// surviving bytes to sink.
func (c *faultConn) deliver(s *faultSide, dir string, frame []byte, sink func([]byte) error) error {
	spec := c.t.spec
	if c.t.partitioned(dir) {
		// Silent discard: the bytes vanish as if in flight when the
		// partition began. Deadlines, retries, and idempotency must cope.
		c.t.emit(FaultEvent{Conn: c.id, Dir: dir, Kind: "partition", Bytes: len(frame)})
		return nil
	}
	if d := s.latency(spec); d > 0 {
		time.Sleep(d)
	}
	switch s.roll(spec) {
	case "drop":
		c.t.emit(FaultEvent{Conn: c.id, Dir: dir, Kind: "drop", Bytes: len(frame)})
		c.Conn.Close()
		return &ErrInjected{Kind: "connection drop"}
	case "trunc":
		n := len(frame) / 2
		c.t.emit(FaultEvent{Conn: c.id, Dir: dir, Kind: "trunc", Bytes: n})
		sink(frame[:n])
		c.Conn.Close()
		return &ErrInjected{Kind: "truncated frame"}
	case "dup":
		c.t.emit(FaultEvent{Conn: c.id, Dir: dir, Kind: "dup", Bytes: len(frame)})
		if err := sink(frame); err != nil {
			return err
		}
		return sink(frame)
	case "stall":
		c.t.emit(FaultEvent{Conn: c.id, Dir: dir, Kind: "stall", Bytes: len(frame)})
		time.Sleep(spec.StallFor)
	}
	return sink(frame)
}
