package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"path/filepath"
	"testing"

	"sage/internal/alloctest"
)

// bounds are the two payload bounds the repository's protocols read
// under: sage-serve's binary frames and sage-coord's gob frames (which
// the chaos transport shares).
var bounds = []struct {
	name  string
	limit int
}{{"serve", 1 << 16}, {"dist", 1 << 28}}

func header(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }

// frame builds a frame around payload the way writers do: StartFrame,
// then the payload appended after the reserved prefix.
func frame(payload []byte) []byte { return append(StartFrame(nil), payload...) }

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

// TestFrameBounds holds the bound, on both sides of the wire, at each
// protocol's limit.
func TestFrameBounds(t *testing.T) {
	for _, b := range bounds {
		t.Run(b.name, func(t *testing.T) {
			// Hostile length prefixes — including values whose sign bit is
			// set, which would be negative decoded as int32 and ~4 GiB
			// decoded as uint32 — are rejected before any payload is read.
			for _, n := range []uint32{uint32(b.limit) + 1, 1 << 20, 0x80000000, 0xFFFFFFFF} {
				if int64(n) <= int64(b.limit) {
					continue // 1 << 20 is a legal length under dist's bound
				}
				stream := append(header(n), make([]byte, 64)...) // garbage a naive reader would start consuming
				cr := &countingReader{r: bytes.NewReader(stream)}
				if _, err := ReadFrame(cr, nil, b.limit); !errors.Is(err, ErrFrameTooBig) {
					t.Errorf("prefix %#x: err = %v, want ErrFrameTooBig", n, err)
				}
				if cr.read > 4 {
					t.Errorf("prefix %#x: read %d bytes past the header", n, cr.read-4)
				}
			}

			// The bound itself is a legal length: a prefix of exactly limit
			// passes the check and fails only on its missing body, having
			// allocated no more than the first chunk.
			stream := append(header(uint32(b.limit)), "short"...)
			var err error
			got := alloctest.Measure(func() { _, err = ReadFrame(bytes.NewReader(stream), nil, b.limit) }).Bytes
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("prefix at limit with a short body: err = %v, want io.ErrUnexpectedEOF", err)
			}
			if got > firstChunk+4<<10 {
				t.Errorf("prefix at limit with a short body allocated %d bytes, want ≤ %d", got, firstChunk+4<<10)
			}
		})
	}

	// The cases that need a payload of the bound's size run at serve's
	// bound only: at dist's, each would touch 256 MiB.
	limit := bounds[0].limit
	var w bytes.Buffer
	if err := WriteFrame(&w, frame(make([]byte, limit)), limit); err != nil {
		t.Fatalf("WriteFrame at limit: %v", err)
	}
	if p, err := ReadFrame(&w, nil, limit); err != nil || len(p) != limit {
		t.Fatalf("ReadFrame at limit: len %d, %v", len(p), err)
	}
	// The write side refuses to emit a frame the read side would drop.
	if err := WriteFrame(&w, frame(make([]byte, limit+1)), limit); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("WriteFrame oversize: %v, want ErrFrameTooBig", err)
	}
	if w.Len() != 0 {
		t.Fatalf("oversize WriteFrame emitted %d bytes", w.Len())
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

// A frame leaves in one Write, prefix and payload together, so a socket
// sees one syscall per frame; an oversize one leaves in none.
func TestWriteFrameIsOneWrite(t *testing.T) {
	for _, n := range []int{0, 1, 600, 1 << 16} {
		var w writeCounter
		if err := WriteFrame(&w, frame(make([]byte, n)), 1<<16); err != nil {
			t.Fatalf("%d-byte payload: %v", n, err)
		}
		if w.writes != 1 || w.Len() != 4+n || !bytes.Equal(w.Bytes()[:4], header(uint32(n))) {
			t.Fatalf("%d-byte payload: %d writes, %d bytes, prefix % x", n, w.writes, w.Len(), w.Bytes()[:min(4, w.Len())])
		}
	}
	var w writeCounter
	if err := WriteFrame(&w, frame(make([]byte, 1<<16+1)), 1<<16); !errors.Is(err, ErrFrameTooBig) || w.writes != 0 {
		t.Fatalf("oversize: %v after %d writes", err, w.writes)
	}
}

// A payload that fits the caller's buffer is read into it, header
// included: the serve loop's steady state allocates nothing per frame.
func TestReadFrameReusesBuffer(t *testing.T) {
	var w bytes.Buffer
	WriteFrame(&w, frame([]byte("decide")), 1<<16)
	stream := w.Bytes()
	buf := make([]byte, 0, 64)
	r := bytes.NewReader(stream)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(stream)
		p, err := ReadFrame(r, buf, 1<<16)
		if err != nil || string(p) != "decide" || &p[0] != &buf[:1][0] {
			t.Fatalf("ReadFrame = %q, %v (aliases buf: %v)", p, err, err == nil && &p[0] == &buf[:1][0])
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadFrame into a large-enough buffer: %.1f allocs, want 0", allocs)
	}
}

// A frame larger than the first chunk arrives whole through the
// geometric growth path, and a stream that ends mid-frame is an error.
func TestReadFrameGrows(t *testing.T) {
	payload := make([]byte, 3*firstChunk+17)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var w bytes.Buffer
	if err := WriteFrame(&w, frame(payload), 1<<28); err != nil {
		t.Fatal(err)
	}
	stream := w.Bytes()
	p, err := ReadFrame(bytes.NewReader(stream), make([]byte, 0, 10), 1<<28)
	if err != nil || !bytes.Equal(p, payload) {
		t.Fatalf("grown read: %d bytes, %v", len(p), err)
	}
	if _, err := ReadFrame(bytes.NewReader(stream[:len(stream)-1]), nil, 1<<28); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated body: %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := ReadFrame(bytes.NewReader(nil), nil, 1<<28); err != io.EOF {
		t.Fatalf("clean end of stream: %v, want io.EOF", err)
	}
}

// FuzzReadFrame: at both bounds, WriteFrame → ReadFrame round-trips, an
// oversized prefix is ErrFrameTooBig, and a body shorter than its prefix
// is an error — never a short frame.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte("hello"), uint32(5))
	f.Add([]byte{}, uint32(0))
	f.Add([]byte("short"), uint32(0x0fffffff))
	f.Add([]byte{1, 2, 3}, uint32(1<<16+1))
	f.Add([]byte{1, 2, 3}, uint32(0x80000000))
	f.Add(make([]byte, 70), uint32(0xFFFFFFFF))
	f.Fuzz(func(t *testing.T, payload []byte, prefix uint32) {
		for _, b := range bounds {
			var w bytes.Buffer
			err := WriteFrame(&w, frame(payload), b.limit)
			if len(payload) > b.limit {
				if !errors.Is(err, ErrFrameTooBig) || w.Len() != 0 {
					t.Fatalf("%s: WriteFrame of %d bytes: %v, %d bytes written", b.name, len(payload), err, w.Len())
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: WriteFrame(%d bytes): %v", b.name, len(payload), err)
			}
			for _, buf := range [][]byte{nil, make([]byte, 0, len(payload))} {
				got, err := ReadFrame(bytes.NewReader(w.Bytes()), buf, b.limit)
				if err != nil || !bytes.Equal(got, payload) {
					t.Fatalf("%s: round trip of %d bytes: %d bytes, %v", b.name, len(payload), len(got), err)
				}
			}

			stream := append(header(prefix), payload...)
			got, err := ReadFrame(bytes.NewReader(stream), nil, b.limit)
			switch {
			case int64(prefix) > int64(b.limit):
				if !errors.Is(err, ErrFrameTooBig) {
					t.Fatalf("%s: prefix %#x over the bound: %v", b.name, prefix, err)
				}
			case int(prefix) > len(payload):
				if err == nil {
					t.Fatalf("%s: prefix %d with %d body bytes returned a %d-byte frame", b.name, prefix, len(payload), len(got))
				}
			default:
				if err != nil || !bytes.Equal(got, payload[:prefix]) {
					t.Fatalf("%s: prefix %d: %d bytes, %v", b.name, prefix, len(got), err)
				}
			}
		}
	})
}

// Listen replaces a stale unix socket file, and Conns serves, counts and
// drains connections.
func TestListenAndConns(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "s.sock")
	stale, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	stale.(*net.UnixListener).SetUnlinkOnClose(false)
	stale.Close() // leaves the socket file behind, as a killed process would
	ln, err := Listen("unix", sock)
	if err != nil {
		t.Fatalf("Listen over a stale socket file: %v", err)
	}

	var conns Conns
	served := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		errCh <- conns.Serve(ln, 1, func(c net.Conn) { c.Close() }, func(c net.Conn) {
			close(served)
			io.Copy(io.Discard, c)
		})
	}()
	c1, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	<-served
	if n, closed := conns.Len(); n != 1 || closed {
		t.Fatalf("Len = %d, %v; want 1, false", n, closed)
	}
	// Past the limit the connection goes to shed, which hangs up.
	c2, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("shed connection read: %v, want io.EOF", err)
	}
	c2.Close()

	if !conns.Close() || conns.Close() {
		t.Fatal("Close must report true exactly once")
	}
	if err := <-errCh; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve after Close: %v, want net.ErrClosed", err)
	}
	conns.Each(func(c net.Conn) { c.Close() })
	conns.Wait()
	if n, closed := conns.Len(); n != 0 || !closed {
		t.Fatalf("after drain Len = %d, %v; want 0, true", n, closed)
	}
}
