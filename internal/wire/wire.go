// Package wire is the transport layer sage-serve, sage-coord and the
// chaos transport share: one length-prefixed frame reader and writer, one
// accept loop with its connection set, one listen and one dial.
//
//	frame := u32(BE) payload length | payload
//
// Each protocol passes its own bound on the payload length: 64 KiB for
// sage-serve's binary bodies, 1 << 28 for sage-coord's gob bodies (and
// the chaos transport in front of them). The bound is checked against
// the prefix before the payload is allocated, and before anything is
// written.
package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// ErrFrameTooBig is returned for a frame whose payload exceeds the
// caller's bound, on either side of the wire.
var ErrFrameTooBig = errors.New("wire: frame exceeds size limit")

// firstChunk is the most ReadFrame allocates before a frame's payload
// bytes start to arrive.
const firstChunk = 64 << 10

// headerLen is the size of a frame's length prefix.
const headerLen = 4

// StartFrame empties b, keeping its storage, and reserves a frame's
// length prefix in it. The caller appends the payload and hands the
// whole frame to WriteFrame, which fills the prefix in.
func StartFrame(b []byte) []byte { return append(b[:0], 0, 0, 0, 0) }

// WriteFrame fills in the length prefix of frame, built by StartFrame and
// the payload appended after it, and writes the frame in one Write. A
// payload over limit is refused before anything is written.
func WriteFrame(w io.Writer, frame []byte, limit int) error {
	n := len(frame) - headerLen
	if n > limit {
		return ErrFrameTooBig
	}
	binary.BigEndian.PutUint32(frame[:headerLen], uint32(n))
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one frame and returns its payload, which reuses buf
// when the payload fits in cap(buf). The length prefix is read into buf
// too, so a caller that reuses its buffer reads without allocating; read
// through a buffered reader, header and payload arrive in one read. A
// length prefix over limit — the sign bit included — is ErrFrameTooBig
// before the payload is allocated. A larger payload than buf holds is read
// into a buffer that starts at firstChunk and doubles only as bytes
// arrive, so a prefix is a claim the peer has to pay for: one that
// promises 256 MiB and hangs up costs 64 KiB. A body cut short is an
// error, never a short frame.
func ReadFrame(r io.Reader, buf []byte, limit int) ([]byte, error) {
	if cap(buf) < headerLen {
		buf = make([]byte, 0, headerLen)
	}
	hdr := buf[:headerLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n64 := int64(binary.BigEndian.Uint32(hdr))
	if n64 > int64(limit) {
		return nil, ErrFrameTooBig
	}
	n := int(n64)
	for buf = buf[:0]; len(buf) < n; {
		chunk := n - len(buf)
		if chunk > cap(buf)-len(buf) {
			chunk = min(chunk, max(len(buf), firstChunk))
			grown := make([]byte, len(buf), len(buf)+chunk)
			copy(grown, buf)
			buf = grown
		}
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+chunk]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // only a hang-up between frames is io.EOF
			}
			return nil, err
		}
		buf = buf[:len(buf)+chunk]
	}
	return buf, nil
}

// ConnectTimeout is the connect-phase bound dialers use unless their
// caller picks another: a wedged accept queue, or a SYN the network
// black-holes, must not block a caller forever.
const ConnectTimeout = 10 * time.Second

// Dial connects under ctx, bounding the connect by timeout when it is
// positive. Cancelling ctx aborts a connect in progress.
func Dial(ctx context.Context, network, addr string, timeout time.Duration) (net.Conn, error) {
	d := net.Dialer{Timeout: max(timeout, 0)} // the Dialer reads a negative one as already expired
	return d.DialContext(ctx, network, addr)
}

// Listen listens on network/addr. For a unix socket it first removes a
// stale socket file a previous process left behind; any error but "not
// there" from that removal is returned.
func Listen(network, addr string) (net.Listener, error) {
	if network == "unix" {
		if err := os.Remove(addr); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	return net.Listen(network, addr)
}

// Conns is one accept loop and the set of connections it serves; the
// zero value is ready to use. How to hang up on open connections at
// shutdown is the protocol's choice, made through Each.
type Conns struct {
	mu     sync.Mutex
	ln     net.Listener
	open   map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve accepts connections on ln until Close and runs handle on each in
// its own goroutine, closing the connection when handle returns. With
// limit > 0, a connection accepted while limit are open is passed to shed
// instead, which owns closing it. Serve always returns a non-nil error;
// after Close it is net.ErrClosed.
func (s *Conns) Serve(ln net.Listener, limit int, shed, handle func(net.Conn)) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			if conn != nil {
				conn.Close()
			}
			return net.ErrClosed
		}
		if err != nil {
			s.mu.Unlock()
			return err
		}
		if limit > 0 && len(s.open) >= limit {
			s.mu.Unlock()
			shed(conn)
			continue
		}
		if s.open == nil {
			s.open = make(map[net.Conn]struct{})
		}
		s.open[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			handle(conn)
			conn.Close()
			s.mu.Lock()
			delete(s.open, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting: it marks the set closed and closes the
// listener. It reports whether this call closed the set; every later
// call returns false.
func (s *Conns) Close() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	return true
}

// Each calls f on every open connection, outside the set's lock.
func (s *Conns) Each(f func(net.Conn)) {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.open))
	for c := range s.open {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		f(c)
	}
}

// Len reports how many connections are open and whether the set is
// closed.
func (s *Conns) Len() (open int, closed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.open), s.closed
}

// Wait blocks until every handler Serve started has returned.
func (s *Conns) Wait() { s.wg.Wait() }
