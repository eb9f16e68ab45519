package dist

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"sage/internal/rl"
	"sage/internal/wire"
)

// Wire protocol of the sage-coord control plane: internal/wire's
// length-prefixed frames carrying one gob-encoded Message each — gob
// bodies, since control-plane messages are low-rate and structured
// (campaign specs, parameter tensors) rather than per-packet hot-path
// data. Every exchange is a strict request/response pair initiated by the
// agent, so one connection serves an agent's work loop and heartbeat
// goroutine under a client-side mutex.
const (
	ProtoVersion = 1

	// maxFrame bounds one frame: big enough for a full parameter
	// broadcast or a multi-MB pool shard. wire.ReadFrame grows its buffer
	// only as payload bytes arrive, so a corrupt length prefix costs the
	// receiver at most 64 KiB, not this bound.
	maxFrame = 1 << 28
)

// Message types. Agents send Hello once per connection, then loop on the
// work messages; the coordinator only ever replies.
const (
	MsgHello        = 1  // agent → coord: register a session (Role selects the service)
	MsgWelcome      = 2  // coord → agent: campaign spec / training state
	MsgRequestCell  = 3  // agent → coord: lease one collection cell
	MsgAssign       = 4  // coord → agent: cell lease granted
	MsgWait         = 5  // coord → agent: nothing assignable now, retry after Backoff
	MsgCampaignDone = 6  // coord → agent: campaign complete, drain
	MsgHeartbeat    = 7  // agent → coord: renew leases, ship telemetry snapshot
	MsgHeartbeatAck = 8  // coord → agent: Verdict ok|evicted
	MsgCellDone     = 9  // agent → coord: checksummed pool shard for a finished cell
	MsgCellFailed   = 10 // agent → coord: cell failed permanently
	MsgCellAck      = 11 // coord → agent: Verdict ok|duplicate|retry|evicted
	MsgGrads        = 12 // worker → coord: gradient shard for one training step
	MsgTrainStep    = 13 // coord → worker: post-step params (or resync / done)
	MsgError        = 14 // coord → agent: request could not be served; Err explains
	MsgBye          = 15 // agent → coord: every runner heard MsgCampaignDone; hanging up
)

// Verdicts returned in acks.
const (
	VerdictOK        = "ok"
	VerdictDuplicate = "duplicate" // cell already completed by another lease
	VerdictRetry     = "retry"     // shard arrived corrupt; resend
	VerdictEvicted   = "evicted"   // session declared dead; re-register or exit
)

// Message is the single envelope for every frame. Gob omits zero-value
// fields, so small control messages stay small even though the struct
// carries the union of all bodies.
type Message struct {
	Version byte
	Type    byte
	AgentID string
	Role    string // "collect" | "train"
	Err     string

	// Session is a nonce minted once per client process, and Req a
	// monotonically increasing request ID within that session. Together
	// they make every RPC idempotent: the coordinator replays its cached
	// reply for a (agent, session, req) it has already served, so a
	// request retried after a lost reply cannot execute twice, and a
	// client discards replies whose Req is not the one in flight (the
	// residue of a duplicated request frame). Replies echo Req.
	Session uint64
	Req     uint64

	// Collection service.
	Campaign    *Campaign
	LeaseTTL    time.Duration
	Scheme, Env string
	Backoff     time.Duration
	Shard       []byte // single-cell pool payload (collector.EncodePool)
	Checksum    uint64 // CRC-64/ECMA of Shard
	Verdict     string
	Metrics     map[string]float64

	// Training service.
	WorkerIdx  int
	Workers    int
	Step       int // absolute applied-step index the payload corresponds to
	StepsTotal int
	CRR        *rl.CRRConfig
	Mask       []int
	Params     [][]float64
	Targets    [][]float64 // non-nil = full resync (join)
	RNG        uint64
	GradShard  *rl.GradShard
	Done       bool
}

// writeMsg writes one length-prefixed gob frame, in one Write: the
// message is encoded straight after the frame's reserved prefix.
func writeMsg(w io.Writer, m *Message) error {
	m.Version = ProtoVersion
	buf := bytes.NewBuffer(wire.StartFrame(nil))
	if err := gob.NewEncoder(buf).Encode(m); err != nil {
		return fmt.Errorf("dist: encode: %w", err)
	}
	return wire.WriteFrame(w, buf.Bytes(), maxFrame)
}

// readMsg reads one frame and decodes its message.
func readMsg(r io.Reader) (*Message, error) {
	body, err := wire.ReadFrame(r, nil, maxFrame)
	if err != nil {
		return nil, err
	}
	var m Message
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&m); err != nil {
		return nil, fmt.Errorf("dist: decode: %w", err)
	}
	if m.Version != ProtoVersion {
		return nil, fmt.Errorf("dist: protocol version %d, want %d", m.Version, ProtoVersion)
	}
	return &m, nil
}

// ParseAddr validates and splits a coordinator address spec:
// "unix:/path/to.sock" for a Unix socket, otherwise "host:port" TCP.
// CLI flags run it before any work so a typo fails in microseconds, not
// after a campaign's worth of setup.
func ParseAddr(spec string) (network, addr string, err error) {
	if spec == "" {
		return "", "", errors.New("dist: empty coordinator address")
	}
	if p, ok := strings.CutPrefix(spec, "unix:"); ok {
		if p == "" {
			return "", "", errors.New("dist: unix: address needs a socket path")
		}
		return "unix", p, nil
	}
	host, port, err := net.SplitHostPort(spec)
	if err != nil {
		return "", "", fmt.Errorf("dist: address %q: %w (want host:port or unix:/path)", spec, err)
	}
	if port == "" {
		return "", "", fmt.Errorf("dist: address %q: missing port", spec)
	}
	_ = host // empty host means all interfaces for listeners, loopback resolution for dials
	return "tcp", spec, nil
}

// client is one serialized request/response connection to the
// coordinator, shared by an agent's work and heartbeat goroutines.
type client struct {
	mu      sync.Mutex
	conn    net.Conn
	timeout time.Duration // per-RPC deadline; 0 disables
	onStale func()        // observes each discarded stale reply
}

// dial connects to the coordinator at spec under ctx, the connect bounded
// by wire.ConnectTimeout. timeout is the per-RPC deadline applied to
// every roundTrip on the connection (0 = none).
func dial(ctx context.Context, spec string, timeout time.Duration) (*client, error) {
	network, addr, err := ParseAddr(spec)
	if err != nil {
		return nil, err
	}
	conn, err := wire.Dial(ctx, network, addr, wire.ConnectTimeout)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, timeout: timeout}, nil
}

// maxStaleReplies bounds how many mismatched replies one roundTrip will
// discard before declaring the stream hopeless.
const maxStaleReplies = 32

// roundTrip sends req and waits for the coordinator's reply. With a
// timeout set, the whole exchange runs under one absolute deadline — a
// stalled coordinator (or a partition eating the reply) surfaces as a
// timeout error instead of blocking the caller forever. Replies whose
// Req does not match the request are leftovers of duplicated frames and
// are discarded.
func (c *client) roundTrip(req *Message) (*Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return nil, err
		}
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := writeMsg(c.conn, req); err != nil {
		return nil, err
	}
	for stale := 0; ; {
		resp, err := readMsg(c.conn)
		if err != nil {
			return nil, err
		}
		if req.Req != 0 && resp.Req != req.Req {
			if c.onStale != nil {
				c.onStale()
			}
			if stale++; stale > maxStaleReplies {
				return nil, fmt.Errorf("dist: %d replies in a row for other requests (want req %d)", stale, req.Req)
			}
			continue
		}
		if resp.Type == MsgError {
			return resp, fmt.Errorf("dist: coordinator: %s", resp.Err)
		}
		return resp, nil
	}
}

func (c *client) close() error { return c.conn.Close() }
