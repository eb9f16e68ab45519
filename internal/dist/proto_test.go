package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sage/internal/alloctest"
	"sage/internal/wire"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{
		Type:    MsgCellDone,
		AgentID: "agent-1",
		Scheme:  "cubic", Env: "seti-x",
		Shard: []byte{1, 2, 3}, Checksum: 42,
		Metrics:  map[string]float64{"cells": 3},
		LeaseTTL: 30 * time.Second,
		Params:   [][]float64{{1.5, -2.25}, {0}},
	}
	if err := writeMsg(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.AgentID != in.AgentID || out.Checksum != 42 ||
		len(out.Shard) != 3 || out.Metrics["cells"] != 3 || out.LeaseTTL != in.LeaseTTL {
		t.Fatalf("round trip mangled message: %+v", out)
	}
	// Parameter tensors must survive bit-exactly: distributed training's
	// bitwise-equivalence guarantee rides on this.
	if out.Params[0][1] != -2.25 {
		t.Fatalf("params = %v", out.Params)
	}
}

// writeCounter counts the Write calls made on it and keeps what they wrote.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// writeMsg sends each message in one Write, length prefix and gob body
// together, and the frame reads back whole.
func TestWriteMsgIsOneWrite(t *testing.T) {
	for _, m := range []*Message{
		{Type: MsgBye},
		{Type: MsgCellDone, Shard: make([]byte, 200<<10), Checksum: 7},
	} {
		var w writeCounter
		if err := writeMsg(&w, m); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Errorf("type %d: %d writes for one frame", m.Type, w.writes)
		}
		got, err := readMsg(&w)
		if err != nil || got.Type != m.Type || len(got.Shard) != len(m.Shard) || w.Len() != 0 {
			t.Errorf("type %d: read back %+v, %v, %d bytes left", m.Type, got, err, w.Len())
		}
	}
}

// readMsg holds dist's frame bound: a prefix one past maxFrame is
// wire.ErrFrameTooBig, returned unwrapped.
func TestReadMsgRejectsOversizedFrame(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	if _, err := readMsg(bytes.NewReader(hdr)); err != wire.ErrFrameTooBig {
		t.Fatalf("err = %v, want wire.ErrFrameTooBig", err)
	}
}

// A hostile length prefix followed by EOF costs the coordinator's read
// path at most wire.ReadFrame's first 64 KiB chunk, not the 256 MiB the
// prefix declares.
func TestReadMsgHostilePrefixAllocatesLittle(t *testing.T) {
	var err error
	got := alloctest.Measure(func() { _, err = readMsg(bytes.NewReader([]byte{0x0f, 0xff, 0xff, 0xff})) }).Bytes
	if err == nil {
		t.Fatal("readMsg accepted a frame with no body")
	}
	if got > 64<<10+16<<10 {
		t.Fatalf("a 4-byte hostile prefix allocated %d bytes, want ≤ %d", got, 64<<10+16<<10)
	}
}

func TestReadMsgRejectsVersionSkew(t *testing.T) {
	// Hand-frame a message stamped with a future protocol version.
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&Message{Version: ProtoVersion + 1, Type: MsgHello}); err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := wire.WriteFrame(&frame, append(wire.StartFrame(nil), body.Bytes()...), maxFrame); err != nil {
		t.Fatal(err)
	}
	if _, err := readMsg(&frame); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew accepted: %v", err)
	}
}

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in, network, addr string
		ok                bool
	}{
		{"127.0.0.1:7070", "tcp", "127.0.0.1:7070", true},
		{":7070", "tcp", ":7070", true},
		{"unix:/tmp/coord.sock", "unix", "/tmp/coord.sock", true},
		{"unix:", "", "", false},
		{"", "", "", false},
		{"no-port", "", "", false},
	}
	for _, c := range cases {
		network, addr, err := ParseAddr(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParseAddr(%q) err = %v", c.in, err)
		}
		if c.ok && (network != c.network || addr != c.addr) {
			t.Fatalf("ParseAddr(%q) = %q %q", c.in, network, addr)
		}
	}
}

// dial connects under its caller's context: a cancelled session stops a
// connect instead of waiting out the network.
func TestDialHonoursContext(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "coord.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dial(ctx, "unix:"+sock, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("dial under a cancelled context: %v, want context.Canceled", err)
	}
	cli, err := dial(context.Background(), "unix:"+sock, 0)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	cli.close()
}

// FuzzReadMsg: no frame body may panic the gob envelope's decoder, and a
// message it accepts carries the current version and survives a second
// trip through writeMsg and readMsg.
func FuzzReadMsg(f *testing.F) {
	for _, m := range []*Message{
		{Type: MsgHello, AgentID: "agent-1", Role: "collect", Session: 7, Req: 1},
		{Type: MsgCellDone, Scheme: "cubic", Env: "seti-x", Shard: []byte{1, 2, 3}, Checksum: 42, Metrics: map[string]float64{"cells": 3}},
		{Type: MsgTrainStep, Step: 4, Params: [][]float64{{1.5, -2.25}, {0}}, RNG: 9},
		{Type: MsgWait, Backoff: time.Second, Verdict: VerdictOK},
	} {
		var b bytes.Buffer
		if err := writeMsg(&b, m); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes()[4:]) // the body, without its length prefix
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		var frame bytes.Buffer
		if err := wire.WriteFrame(&frame, append(wire.StartFrame(nil), body...), maxFrame); err != nil {
			t.Skip() // larger than any frame the coordinator reads
		}
		m, err := readMsg(&frame)
		if err != nil {
			return
		}
		if m.Version != ProtoVersion {
			t.Fatalf("accepted version %d", m.Version)
		}
		var again bytes.Buffer
		if err := writeMsg(&again, m); err != nil {
			t.Fatalf("re-encoding an accepted message: %v", err)
		}
		m2, err := readMsg(&again)
		if err != nil || m2.Type != m.Type || m2.Req != m.Req || m2.AgentID != m.AgentID || len(m2.Shard) != len(m.Shard) {
			t.Fatalf("second trip: %+v, %v (first %+v)", m2, err, m)
		}
	})
}
