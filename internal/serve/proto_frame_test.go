package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"sage/internal/wire"
)

// countingReader counts the bytes read through it.
type countingReader struct {
	r    io.Reader
	read int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.read += n
	return n, err
}

// Hostile length prefixes — including values whose sign bit is set, which
// would be negative decoded as int32 and ~4GiB decoded as uint32 — must be
// rejected at serve's bound before any payload is read, on the read path
// both the client and the server use.
func TestReadFrameRejectsHostilePrefixes(t *testing.T) {
	for _, n := range []uint32{maxFrame + 1, 1 << 20, 0x80000000, 0xFFFFFFFF} {
		stream := append(binary.BigEndian.AppendUint32(nil, n), make([]byte, 64)...) // garbage a naive reader would start consuming
		cr := &countingReader{r: bytes.NewReader(stream)}
		if _, err := wire.ReadFrame(cr, nil, maxFrame); !errors.Is(err, wire.ErrFrameTooBig) {
			t.Errorf("prefix %#x: err = %v, want wire.ErrFrameTooBig", n, err)
		}
		if cr.read > 4 {
			t.Errorf("prefix %#x: read %d bytes past the header", n, cr.read-4)
		}
	}

	// The boundary itself still works.
	var b bytes.Buffer
	if err := wire.WriteFrame(&b, append(wire.StartFrame(nil), make([]byte, maxFrame)...), maxFrame); err != nil {
		t.Fatalf("WriteFrame at limit: %v", err)
	}
	if p, err := wire.ReadFrame(&b, nil, maxFrame); err != nil || len(p) != maxFrame {
		t.Fatalf("ReadFrame at limit: len %d, %v", len(p), err)
	}
}

// The write side refuses, at serve's bound, to emit a frame the read side
// would drop, and writes nothing at all for it.
func TestWriteFrameRejectsOversize(t *testing.T) {
	var b bytes.Buffer
	if err := wire.WriteFrame(&b, append(wire.StartFrame(nil), make([]byte, maxFrame+1)...), maxFrame); !errors.Is(err, wire.ErrFrameTooBig) {
		t.Fatalf("err = %v, want wire.ErrFrameTooBig", err)
	}
	if b.Len() != 0 {
		t.Fatalf("oversize frame emitted %d bytes", b.Len())
	}
}

// The optional trailing priority byte round-trips and its absence decodes
// as low priority (backward compatibility with pre-overload clients).
func TestDecidePriorityByte(t *testing.T) {
	state := []float64{1, 2, 3}
	for _, hi := range []bool{false, true} {
		p := appendDecideRequest(nil, 7, 12.5, state, hi)
		req, _, err := parseRequest(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if req.Pri != hi || req.SID != 7 || req.Cwnd != 12.5 || len(req.State) != 3 {
			t.Fatalf("round trip (hi=%v): %+v", hi, req)
		}
	}
	// Legacy frame: no priority byte at all.
	legacy := appendDecideRequest(nil, 9, 4, state, true)
	legacy = legacy[:len(legacy)-1]
	req, _, err := parseRequest(legacy, nil)
	if err != nil {
		t.Fatalf("legacy frame: %v", err)
	}
	if req.Pri {
		t.Fatal("legacy frame decoded as high priority")
	}
	// Truncated state with a stray byte must still be rejected.
	bad := appendDecideRequest(nil, 9, 4, state, false)
	if _, _, err := parseRequest(bad[:len(bad)-3], nil); err == nil {
		t.Fatal("truncated decide body accepted")
	}
}

// FuzzParseRequest: no payload may panic the request parser or make it
// retain more state than the declared dimension.
func FuzzParseRequest(f *testing.F) {
	f.Add(appendDecideRequest(nil, 1, 10, []float64{1, 2, 3}, false))
	f.Add(appendDecideRequest(nil, 2, 1, nil, true))
	f.Add(appendSessionRequest(nil, OpReset, 3))
	f.Add(appendControlRequest(nil, OpSwap, "model-a"))
	f.Add(appendControlRequest(nil, OpHealth, ""))
	f.Add([]byte{ProtoVersion, OpDecide, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, p []byte) {
		req, _, err := parseRequest(p, nil)
		if err != nil {
			return
		}
		if len(req.State) > maxFrame/8 {
			t.Fatalf("parser produced a %d-element state from a %d-byte payload", len(req.State), len(p))
		}
		for _, v := range req.State {
			_ = math.IsNaN(v) // touch every element: catches aliasing past the buffer
		}
	})
}

// FuzzParseResponse: no payload may panic the client's reply decoder; a
// reply it accepts is at least a header long, and a msg whose declared
// length runs past the payload reads as empty; and appendResponse
// round-trips for every status.
func FuzzParseResponse(f *testing.F) {
	for _, status := range []byte{StatusOK, StatusFallback, StatusBusy, StatusError, StatusOverload} {
		f.Add(appendResponse(nil, status, 12.5, "37"), status, 12.5, "37")
	}
	f.Add([]byte{ProtoVersion, StatusOK, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 'x'}, byte(StatusError), math.NaN(), "")
	f.Add([]byte{ProtoVersion + 1, StatusOK, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, byte(0xFF), math.Inf(-1), "server draining")
	f.Fuzz(func(t *testing.T, p []byte, status byte, cwnd float64, msg string) {
		if st, _, m, err := parseResponse(p); err == nil {
			if len(p) < 12 || p[0] != ProtoVersion || st != p[1] || len(m) > len(p)-12 {
				t.Fatalf("accepted %d bytes as status %d with a %d-byte msg", len(p), st, len(m))
			}
			if declared := int(binary.BigEndian.Uint16(p[10:12])); declared > len(p)-12 && m != "" {
				t.Fatalf("msg of %d bytes declared past a %d-byte payload read as %q", declared, len(p), m)
			}
		}
		if len(msg) > maxFrame-12 {
			return // no frame carries it
		}
		st, c, m, err := parseResponse(appendResponse(nil, status, cwnd, msg))
		if err != nil || st != status || math.Float64bits(c) != math.Float64bits(cwnd) || m != msg {
			t.Fatalf("round trip of (%d, %v, %q): (%d, %v, %q), %v", status, cwnd, msg, st, c, m, err)
		}
	})
}
