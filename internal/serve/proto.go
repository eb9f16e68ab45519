package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"sync"
	"time"

	"sage/internal/wire"
)

// Wire protocol of the sage-serve daemon: internal/wire's length-prefixed
// frames, carrying binary bodies, over a stream socket (Unix domain in
// practice).
//
//	frame    := u32(BE) payload length | payload
//	request  := u8 version | u8 op | u64(BE) session id | body
//	  OpDecide body: f64(BE) cwnd | u16(BE) dim | dim × f64(BE) state
//	  OpReset, OpCloseSession: empty body
//	response := u8 version | u8 status | f64(BE) new cwnd | u16(BE) len | msg
//
// All floats are IEEE-754 bits, big-endian. Session ids are chosen by the
// client (one per flow); an id the server has evicted silently restarts
// from a fresh hidden state, mirroring Engine session semantics.
const (
	ProtoVersion = 1

	OpDecide       = 1
	OpReset        = 2
	OpCloseSession = 3
	// OpSwap asks the daemon to hot-swap its serving model. Body: u16(BE)
	// length + model id bytes (empty id = reload the registry incumbent).
	// The response msg carries a human-readable swap report.
	OpSwap = 4
	// OpStatus asks for the daemon's lifecycle status. Empty body; the
	// response msg carries a JSON status document.
	OpStatus = 5
	// OpHealth asks for the daemon's overload/readiness document. Empty
	// body; the response msg carries a JSON serve.Health document.
	OpHealth = 6

	StatusOK       = 0 // decision served from the policy
	StatusFallback = 1 // decision served, but as a safety no-op (ratio 1)
	StatusBusy     = 2 // session already has a request in flight
	StatusError    = 3 // malformed request or draining server; msg explains
	// StatusOverload is the typed OVERLOAD reply: admission control shed
	// the request (or the accept-time connection cap shed the whole
	// connection). The cwnd field echoes the request unchanged and the msg
	// carries a jittered retry-after hint in integer milliseconds —
	// explicit rejection, never a stalled or silently dropped caller.
	StatusOverload = 4

	// maxFrame bounds a frame payload (a 69-signal Decide is ~600 bytes;
	// anything near this limit is a corrupt or hostile frame). Client and
	// server both read through wire.ReadFrame, which checks it against the
	// length prefix — sign bit included — before allocating.
	maxFrame = 1 << 16

	// readAhead sizes the buffered reader each end of a connection reads
	// frames through: a Decide's header and body arrive in one read, and
	// a peer that sends ahead of its replies gets at most this much read
	// before the server's backpressure pause holds it.
	readAhead = 4 << 10
)

// Decide priority classes carried in the optional trailing priority byte.
const (
	priorityLow  = 0
	priorityHigh = 1
)

// appendDecideRequest encodes an OpDecide request payload. The priority
// byte trails the state vector so decoders predating it still parse the
// frame (a missing byte means low priority).
func appendDecideRequest(b []byte, sid uint64, cwnd float64, state []float64, highPri bool) []byte {
	b = append(b, ProtoVersion, OpDecide)
	b = binary.BigEndian.AppendUint64(b, sid)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(cwnd))
	b = binary.BigEndian.AppendUint16(b, uint16(len(state)))
	for _, v := range state {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
	}
	pri := byte(priorityLow)
	if highPri {
		pri = priorityHigh
	}
	return append(b, pri)
}

// appendSessionRequest encodes an OpReset / OpCloseSession payload.
func appendSessionRequest(b []byte, op byte, sid uint64) []byte {
	b = append(b, ProtoVersion, op)
	return binary.BigEndian.AppendUint64(b, sid)
}

// appendControlRequest encodes an OpSwap / OpStatus payload (the session id
// field is unused and zero; arg is the model id for OpSwap).
func appendControlRequest(b []byte, op byte, arg string) []byte {
	b = append(b, ProtoVersion, op)
	b = binary.BigEndian.AppendUint64(b, 0)
	b = binary.BigEndian.AppendUint16(b, uint16(len(arg)))
	return append(b, arg...)
}

// appendResponse encodes a response payload.
func appendResponse(b []byte, status byte, cwnd float64, msg string) []byte {
	b = append(b, ProtoVersion, status)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(cwnd))
	b = binary.BigEndian.AppendUint16(b, uint16(len(msg)))
	return append(b, msg...)
}

// decodedRequest is a parsed request frame. State aliases the read buffer
// and is only valid until the next read.
type decodedRequest struct {
	Op    byte
	SID   uint64
	Cwnd  float64
	State []float64
	Pri   bool   // OpDecide high-priority class
	Arg   string // OpSwap model id
}

// parseRequest decodes a request payload; stateBuf is reused for the
// state vector.
func parseRequest(p []byte, stateBuf []float64) (decodedRequest, []float64, error) {
	var req decodedRequest
	if len(p) < 10 {
		return req, stateBuf, errors.New("serve: short request")
	}
	if p[0] != ProtoVersion {
		return req, stateBuf, fmt.Errorf("serve: protocol version %d, want %d", p[0], ProtoVersion)
	}
	req.Op = p[1]
	req.SID = binary.BigEndian.Uint64(p[2:10])
	p = p[10:]
	switch req.Op {
	case OpReset, OpCloseSession:
		return req, stateBuf, nil
	case OpSwap, OpStatus, OpHealth:
		if len(p) < 2 {
			return req, stateBuf, errors.New("serve: short control body")
		}
		n := int(binary.BigEndian.Uint16(p[:2]))
		p = p[2:]
		if len(p) != n {
			return req, stateBuf, fmt.Errorf("serve: control arg len %d but %d payload bytes", n, len(p))
		}
		req.Arg = string(p)
		return req, stateBuf, nil
	case OpDecide:
		if len(p) < 10 {
			return req, stateBuf, errors.New("serve: short decide body")
		}
		req.Cwnd = math.Float64frombits(binary.BigEndian.Uint64(p[:8]))
		dim := int(binary.BigEndian.Uint16(p[8:10]))
		p = p[10:]
		// An optional priority byte trails the state vector (absent in
		// frames from pre-overload clients: low priority).
		if len(p) == 8*dim+1 {
			req.Pri = p[8*dim] == priorityHigh
			p = p[:8*dim]
		}
		if len(p) != 8*dim {
			return req, stateBuf, fmt.Errorf("serve: state dim %d but %d payload bytes", dim, len(p))
		}
		if cap(stateBuf) < dim {
			stateBuf = make([]float64, dim)
		}
		stateBuf = stateBuf[:dim]
		for i := 0; i < dim; i++ {
			stateBuf[i] = math.Float64frombits(binary.BigEndian.Uint64(p[8*i : 8*i+8]))
		}
		req.State = stateBuf
		return req, stateBuf, nil
	default:
		return req, stateBuf, fmt.Errorf("serve: unknown op %d", req.Op)
	}
}

// Client talks the sage-serve protocol over one connection. Methods are
// serialized by an internal mutex; use one Client per concurrent flow (or
// one per goroutine) to let the server batch across them.
type Client struct {
	mu         sync.Mutex
	conn       net.Conn
	r          *bufio.Reader // conn's replies, through readAhead
	timeout    time.Duration
	highPri    bool
	retryAfter time.Duration // last OVERLOAD reply's hint
	wbuf       []byte        // the request frame, built in place by wire.StartFrame
	rbuf       []byte
}

// DefaultDialTimeout bounds Dial's connect phase. A daemon whose accept
// queue is wedged (or a socket file pointing at a hung process) must not
// block a caller forever; callers that want different bounds use
// DialTimeout or DialContext.
const DefaultDialTimeout = wire.ConnectTimeout

// Dial connects to a sage-serve daemon's Unix socket, bounding the
// connect by DefaultDialTimeout.
func Dial(socketPath string) (*Client, error) {
	return DialTimeout(socketPath, DefaultDialTimeout)
}

// DialTimeout connects with an explicit connect-phase bound (0 = no
// bound). Established-connection calls are bounded separately by
// SetTimeout.
func DialTimeout(socketPath string, d time.Duration) (*Client, error) {
	return dial(context.Background(), socketPath, d)
}

// DialContext connects under the caller's context: cancellation or
// deadline expiry aborts a hung connect instead of blocking forever.
func DialContext(ctx context.Context, socketPath string) (*Client, error) {
	return dial(ctx, socketPath, 0)
}

func dial(ctx context.Context, socketPath string, d time.Duration) (*Client, error) {
	conn, err := wire.Dial(ctx, "unix", socketPath, d)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, r: bufio.NewReaderSize(conn, readAhead)}
}

// SetTimeout bounds every subsequent call's full round trip (request
// write through response read). Zero restores the default: block until
// the server answers or the connection dies. A Decide sitting inside a
// congestion-control tick cannot afford to wait out a wedged daemon, so
// flow integrations should set this to a fraction of their control
// interval; a call that exceeds it fails with a net.Error whose
// Timeout() is true, after which the connection is poisoned (the late
// response would desynchronize framing) and the client should redial.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d < 0 {
		d = 0
	}
	c.timeout = d
}

// SetHighPriority marks this client's subsequent Decide requests as the
// high-priority class. During brownout (ModeDegraded) the engine keeps
// serving high-priority flows from the policy while low-priority flows
// get the cheap ratio-1.0 fallback; the default is low priority.
func (c *Client) SetHighPriority(v bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.highPri = v
}

// RetryAfter returns the retry-after hint from the most recent
// StatusOverload reply (zero if none seen yet). Callers that receive
// StatusOverload should back off at least this long before retrying.
func (c *Client) RetryAfter() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retryAfter
}

// Decide requests a cwnd decision for session sid currently at cwnd with
// observation state. status is one of the Status* constants; for StatusOK
// and StatusFallback newCwnd is the window to apply. StatusOverload means
// admission control shed the request: cwnd is echoed unchanged and
// RetryAfter carries the server's backoff hint.
func (c *Client) Decide(sid uint64, cwnd float64, state []float64) (newCwnd float64, status byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wbuf = appendDecideRequest(wire.StartFrame(c.wbuf), sid, cwnd, state, c.highPri)
	return c.roundTrip()
}

// Reset clears session sid's recurrent state on the server.
func (c *Client) Reset(sid uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wbuf = appendSessionRequest(wire.StartFrame(c.wbuf), OpReset, sid)
	_, status, err := c.roundTrip()
	return statusErr(status, err)
}

// CloseSession frees session sid on the server.
func (c *Client) CloseSession(sid uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wbuf = appendSessionRequest(wire.StartFrame(c.wbuf), OpCloseSession, sid)
	_, status, err := c.roundTrip()
	return statusErr(status, err)
}

// Swap asks the daemon to hot-swap its serving model. An empty id means
// "reload the registry incumbent"; a specific id force-swaps that model
// (the demotion watchdog still protects a bad forced swap). The returned
// string is the daemon's human-readable swap report.
func (c *Client) Swap(id string) (string, error) { return c.control(OpSwap, id) }

// Status returns the daemon's lifecycle status document (JSON).
func (c *Client) Status() (string, error) { return c.control(OpStatus, "") }

// Health returns the daemon's overload/readiness document (a JSON
// serve.Health). Unlike Status it is served even while the daemon is
// shedding load, so probes keep seeing brownout transitions.
func (c *Client) Health() (string, error) { return c.control(OpHealth, "") }

// control sends one control request and returns the daemon's reply text;
// any status but StatusOK is an error.
func (c *Client) control(op byte, arg string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wbuf = appendControlRequest(wire.StartFrame(c.wbuf), op, arg)
	_, status, msg, err := c.roundTripMsg()
	if err != nil {
		return msg, err
	}
	if status != StatusOK {
		return msg, fmt.Errorf("serve: unexpected status %d", status)
	}
	return msg, nil
}

// Close closes the connection (server-side sessions persist until evicted
// or explicitly closed).
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip() (float64, byte, error) {
	cwnd, status, _, err := c.roundTripMsg()
	return cwnd, status, err
}

func (c *Client) roundTripMsg() (float64, byte, string, error) {
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return 0, StatusError, "", err
		}
		defer c.conn.SetDeadline(time.Time{})
	}
	// A failed write still reads: a server that shed this connection at
	// accept wrote its one OVERLOAD frame and hung up, possibly before the
	// request left, and that frame is the answer.
	werr := wire.WriteFrame(c.conn, c.wbuf, maxFrame)
	p, err := wire.ReadFrame(c.r, c.rbuf, maxFrame)
	if werr != nil && err != nil {
		err = werr
	}
	if err != nil {
		return 0, StatusError, "", err
	}
	c.rbuf = p[:0]
	status, cwnd, msg, err := parseResponse(p)
	if err != nil {
		return 0, status, "", err
	}
	if status == StatusError {
		if msg == "" {
			msg = "server error"
		}
		return cwnd, status, msg, errors.New("serve: " + msg)
	}
	if status == StatusOverload {
		// The msg is the server's jittered retry-after hint in integer
		// milliseconds. An unparsable hint is not an error — the status
		// alone tells the caller to back off.
		if ms, perr := strconv.Atoi(msg); perr == nil && ms >= 0 {
			c.retryAfter = time.Duration(ms) * time.Millisecond
		}
	}
	return cwnd, status, msg, nil
}

// parseResponse decodes a response payload. A msg whose declared length
// runs past the payload is read as empty.
func parseResponse(p []byte) (status byte, cwnd float64, msg string, err error) {
	if len(p) < 12 {
		return StatusError, 0, "", errors.New("serve: short response")
	}
	if p[0] != ProtoVersion {
		return StatusError, 0, "", fmt.Errorf("serve: protocol version %d, want %d", p[0], ProtoVersion)
	}
	status = p[1]
	cwnd = math.Float64frombits(binary.BigEndian.Uint64(p[2:10]))
	if msgLen := int(binary.BigEndian.Uint16(p[10:12])); msgLen > 0 && 12+msgLen <= len(p) {
		msg = string(p[12 : 12+msgLen])
	}
	return status, cwnd, msg, nil
}

func statusErr(status byte, err error) error {
	if err != nil {
		return err
	}
	if status != StatusOK {
		return fmt.Errorf("serve: unexpected status %d", status)
	}
	return nil
}
