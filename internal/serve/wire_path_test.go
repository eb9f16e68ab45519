package serve_test

import (
	"errors"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sage/internal/serve"
)

// A decision through a real Client and Server on a unix socket allocates
// nothing on either side once the connection's buffers are sized: the
// frame prefix is built in place, read into the caller's buffer, and the
// engine's path allocates nothing (TestDecideSteadyStateAllocatesNothing).
func TestWireDecideAllocatesNothing(t *testing.T) {
	eng := serve.NewEngine(serve.Config{Policy: benchPolicy(), Seed: 1})
	sock, stop := startServer(t, eng)
	defer stop()
	cl, err := serve.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	state := randState(rand.New(rand.NewSource(5)))
	decide := func() {
		if _, status, err := cl.Decide(1, 10, state); err != nil || status != serve.StatusOK {
			t.Fatalf("Decide: status %d, err %v", status, err)
		}
	}
	for i := 0; i < 32; i++ { // size both ends' buffers and the engine's scratch
		decide()
	}
	if allocs := testing.AllocsPerRun(200, decide); allocs != 0 {
		t.Errorf("a decision over the wire allocates %v times, want 0", allocs)
	}
}

// countingConn counts the Read and Write calls made on a connection.
type countingConn struct {
	net.Conn
	reads, writes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingListener wraps every accepted connection in a countingConn
// sharing one pair of counters.
type countingListener struct {
	net.Listener
	reads, writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.reads, l.writes}, nil
}

// Every frame serve writes — the client's requests, the server's replies
// and the accept-time OVERLOAD frame — leaves in exactly one Write, and
// each end reads a frame in one Read through its read-ahead buffer.
func TestOneWritePerFrame(t *testing.T) {
	eng := serve.NewEngine(serve.Config{Policy: testPolicy(7), Workers: 1})
	srv := serve.NewServer(eng)
	srv.MaxConns = 1
	sock := filepath.Join(t.TempDir(), "sage.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	var srvReads, srvWrites, cliReads, cliWrites atomic.Int64
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(countingListener{ln, &srvReads, &srvWrites}) }()
	defer func() {
		srv.Shutdown()
		if err := <-errCh; !errors.Is(err, net.ErrClosed) {
			t.Errorf("Serve returned %v after Shutdown", err)
		}
	}()

	raw, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	cl := serve.NewClient(countingConn{raw, &cliReads, &cliWrites})
	defer cl.Close()
	state := randState(rand.New(rand.NewSource(11)))
	const decides = 50
	for i := 0; i < decides; i++ {
		if _, status, err := cl.Decide(3, 10, state); err != nil || status != serve.StatusOK {
			t.Fatalf("Decide %d: status %d, err %v", i, status, err)
		}
	}
	if err := cl.Reset(3); err != nil {
		t.Fatal(err)
	}
	if err := cl.CloseSession(3); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Status(); err == nil { // no control installed: a StatusError reply
		t.Fatal("Status without a control handler succeeded")
	}
	if doc, err := cl.Health(); err != nil || !strings.HasPrefix(doc, "{") {
		t.Fatalf("Health = %q, %v", doc, err)
	}
	const frames = decides + 4
	if got := cliWrites.Load(); got != frames {
		t.Errorf("client: %d writes for %d request frames", got, frames)
	}
	if got := srvWrites.Load(); got != frames {
		t.Errorf("server: %d writes for %d reply frames", got, frames)
	}
	if got := cliReads.Load(); got != frames {
		t.Errorf("client: %d reads for %d reply frames", got, frames)
	}
	// The handler may already be parked in its read of the next frame.
	if got := srvReads.Load(); got < frames || got > frames+1 {
		t.Errorf("server: %d reads for %d request frames", got, frames)
	}

	// A second connection is over MaxConns: one OVERLOAD frame, one Write.
	raw2, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	shed := serve.NewClient(raw2)
	defer shed.Close()
	if _, status, err := shed.Decide(4, 10, state); err != nil || status != serve.StatusOverload {
		t.Fatalf("shed connection: status %d, err %v", status, err)
	}
	if got := srvWrites.Load(); got != frames+1 {
		t.Errorf("server: %d writes after the shed frame, want %d", got, frames+1)
	}
}

// fakeControl is a lifecycle handler whose Swap fails with err when set.
type fakeControl struct {
	status string
	err    error
	swaps  []string
}

func (f *fakeControl) Swap(id string) (string, error) {
	f.swaps = append(f.swaps, id)
	if f.err != nil {
		return "", f.err
	}
	return "swapped to " + id, nil
}

func (f *fakeControl) Status() string { return f.status }

// OpSwap and OpStatus through a real Server: with no handler installed,
// with one that succeeds and with one whose Swap fails. The ids and the
// status document are larger than the read-ahead buffer, so these frames
// are built in place and read well past one buffer's worth.
func TestControlVerbs(t *testing.T) {
	eng := serve.NewEngine(serve.Config{Policy: testPolicy(13), Workers: 1})
	srv := serve.NewServer(eng)
	sock := filepath.Join(t.TempDir(), "sage.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown()
		<-errCh
	}()
	cl, err := serve.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const noHandler = "serve: no lifecycle control handler"
	if _, err := cl.Swap("m"); err == nil || err.Error() != noHandler {
		t.Errorf("Swap without a handler: %v, want %q", err, noHandler)
	}
	if _, err := cl.Status(); err == nil || err.Error() != noHandler {
		t.Errorf("Status without a handler: %v, want %q", err, noHandler)
	}

	id := "model-" + strings.Repeat("x", 5000)
	ok := &fakeControl{status: `{"incumbent":"` + strings.Repeat("y", 9000) + `"}`}
	srv.SetControl(ok)
	if report, err := cl.Swap(id); err != nil || report != "swapped to "+id {
		t.Errorf("Swap = %.40q…, %v", report, err)
	}
	if report, err := cl.Swap(""); err != nil || report != "swapped to " {
		t.Errorf("Swap of the incumbent = %q, %v", report, err)
	}
	if doc, err := cl.Status(); err != nil || doc != ok.status {
		t.Errorf("Status = %d bytes, %v; want the %d-byte document", len(doc), err, len(ok.status))
	}
	if len(ok.swaps) != 2 || ok.swaps[0] != id || ok.swaps[1] != "" {
		t.Errorf("handler saw %d swaps", len(ok.swaps))
	}

	failing := &fakeControl{status: `{"incumbent":"a"}`, err: errors.New("gate refused model b")}
	srv.SetControl(failing)
	msg, err := cl.Swap("b")
	if err == nil || err.Error() != "serve: gate refused model b" || msg != "gate refused model b" {
		t.Errorf("failed Swap = %q, %v", msg, err)
	}
	if doc, err := cl.Status(); err != nil || doc != failing.status {
		t.Errorf("Status after a failed Swap = %q, %v", doc, err)
	}
	// The connection still serves decisions after the control traffic.
	if _, status, err := cl.Decide(1, 10, randState(rand.New(rand.NewSource(1)))); err != nil || status != serve.StatusOK {
		t.Errorf("Decide after control verbs: status %d, err %v", status, err)
	}
}

func TestOverloadErrorText(t *testing.T) {
	err := &serve.OverloadError{RetryAfter: 40 * time.Millisecond, Mode: serve.ModeShedShadow}
	if got, want := err.Error(), "serve: overloaded (shed-shadow), retry after 40ms"; got != want {
		t.Errorf("OverloadError = %q, want %q", got, want)
	}
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Error("OverloadError does not match ErrOverloaded")
	}
}
