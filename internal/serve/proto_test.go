package serve_test

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sage/internal/serve"
	"sage/internal/telemetry"
)

// startServer runs a daemon on a per-test Unix socket and returns the
// socket path plus a shutdown func.
func startServer(t testing.TB, eng *serve.Engine) (string, func()) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "sage.sock")
	srv := serve.NewServer(eng)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(sock) }()
	// Wait for the socket to accept.
	var cli *serve.Client
	var err error
	for i := 0; i < 200; i++ {
		cli, err = serve.Dial(sock)
		if err == nil {
			cli.Close()
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	return sock, func() {
		srv.Shutdown()
		// Serve must have returned once Shutdown completes, and with the
		// sentinel the daemon uses to tell a drain from a real failure.
		if err := <-errCh; !errors.Is(err, net.ErrClosed) {
			t.Errorf("Serve returned %v after Shutdown, want net.ErrClosed", err)
		}
	}
}

// End-to-end daemon exercise: decisions, fallback status, session reset
// and close, all over the wire, from concurrent clients.
func TestProtoEndToEnd(t *testing.T) {
	pol := testPolicy(29)
	reg := telemetry.NewRegistry()
	eng := serve.NewEngine(serve.Config{
		Policy:        pol,
		MaxBatch:      32,
		BatchDeadline: 5 * time.Millisecond,
		Workers:       2,
		Metrics:       reg,
	})
	sock, shutdown := startServer(t, eng)
	defer shutdown()

	const clients = 8
	var wg sync.WaitGroup
	failures := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := serve.Dial(sock)
			if err != nil {
				failures[i] = err
				return
			}
			defer cli.Close()
			rng := rand.New(rand.NewSource(int64(100 + i)))
			sid := uint64(i + 1)
			cwnd := 10.0
			for step := 0; step < 20; step++ {
				newCwnd, status, err := cli.Decide(sid, cwnd, randState(rng))
				if err != nil {
					failures[i] = err
					return
				}
				if status != serve.StatusOK {
					failures[i] = errStatus(status)
					return
				}
				if math.IsNaN(newCwnd) || newCwnd < 2 {
					failures[i] = errBadCwnd(newCwnd)
					return
				}
				cwnd = newCwnd
			}
			if err := cli.Reset(sid); err != nil {
				failures[i] = err
				return
			}
			failures[i] = cli.CloseSession(sid)
		}(i)
	}
	wg.Wait()
	for i, err := range failures {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	// Fallback decisions surface as StatusFallback with cwnd unchanged.
	cli, err := serve.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	poison := randState(rand.New(rand.NewSource(999)))
	poison[0] = math.Inf(1)
	newCwnd, status, err := cli.Decide(77, 10, poison)
	if err != nil {
		t.Fatal(err)
	}
	if status != serve.StatusFallback {
		t.Errorf("poisoned decide status = %d, want StatusFallback", status)
	}
	if newCwnd != 10 {
		t.Errorf("fallback cwnd = %v, want unchanged 10", newCwnd)
	}
}

// Shutdown drains: decisions in flight and queued when SIGTERM-style
// shutdown begins still get their responses, and afterwards the socket is
// gone.
func TestServerGracefulDrain(t *testing.T) {
	eng := serve.NewEngine(serve.Config{Policy: testPolicy(31), MaxBatch: 64, Workers: 1})
	hold := serve.HoldWorker(eng) // one request in flight, the rest queued behind it
	sock, shutdown := startServer(t, eng)

	const inflight = 4
	type outcome struct {
		status byte
		err    error
	}
	outcomes := make(chan outcome, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			cli, err := serve.Dial(sock)
			if err != nil {
				outcomes <- outcome{err: err}
				return
			}
			defer cli.Close()
			_, status, err := cli.Decide(uint64(i+1), 10, randState(rand.New(rand.NewSource(int64(i)))))
			outcomes <- outcome{status: status, err: err}
		}(i)
	}
	<-hold.Held()
	waitUntil := time.Now().Add(5 * time.Second)
	for eng.Health().QueueDepth < inflight {
		if time.Now().After(waitUntil) {
			t.Fatal("requests never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Drain while all four are admitted and unanswered: Shutdown stops
	// accepting at once, then waits for the engine, which waits for us.
	drained := make(chan struct{})
	go func() {
		shutdown()
		close(drained)
	}()
	for {
		cli, err := serve.Dial(sock)
		if err != nil {
			break // the listener is closed: the drain has begun
		}
		cli.Close()
		if time.Now().After(waitUntil) {
			t.Fatal("Shutdown never closed the listener")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-drained:
		t.Fatal("Shutdown returned with decisions still in flight")
	default:
	}
	hold.Release()
	for i := 0; i < inflight; i++ {
		o := <-outcomes
		if o.err != nil {
			t.Fatalf("in-flight decision dropped during drain: %v", o.err)
		}
		if o.status != serve.StatusOK {
			t.Fatalf("in-flight decision status = %d, want StatusOK", o.status)
		}
	}
	<-drained
	if _, err := serve.Dial(sock); err == nil {
		t.Error("socket still accepting after Shutdown")
	}
}

type errStatus byte

func (e errStatus) Error() string { return "unexpected status " + string('0'+byte(e)) }

type errBadCwnd float64

func (e errBadCwnd) Error() string { return "bad cwnd" }

// TestClientTimeoutOnStalledServer: a daemon that accepts the request
// but never answers must not wedge the caller — with SetTimeout the
// round trip fails with a timeout net.Error instead of blocking a
// congestion-control tick forever.
func TestClientTimeoutOnStalledServer(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	defer serverEnd.Close()
	stalled := make(chan struct{})
	go func() {
		// Swallow the request frame, then go silent.
		buf := make([]byte, 1<<10)
		serverEnd.Read(buf)
		close(stalled)
		<-make(chan struct{})
	}()

	cli := serve.NewClient(clientEnd)
	defer cli.Close()
	cli.SetTimeout(50 * time.Millisecond)
	start := time.Now()
	_, _, err := cli.Decide(1, 10, []float64{1, 2, 3})
	if err == nil {
		t.Fatal("Decide against a stalled server returned no error")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("Decide error = %v, want a timeout net.Error", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("timed out only after %v", waited)
	}
	select {
	case <-stalled:
	case <-time.After(time.Second):
		t.Fatal("server never saw the request frame")
	}
}

// TestClientTimeoutLeavesFastServerAlone: a deadline well above the
// server's response time never fires, and calls after SetTimeout(0) go
// back to running without deadlines at all.
func TestClientTimeoutLeavesFastServerAlone(t *testing.T) {
	eng := serve.NewEngine(serve.Config{
		Policy:        testPolicy(3),
		MaxBatch:      4,
		BatchDeadline: time.Millisecond,
		Workers:       1,
	})
	sock, shutdown := startServer(t, eng)
	defer shutdown()
	cli, err := serve.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.SetTimeout(5 * time.Second)
	state := randState(rand.New(rand.NewSource(1)))
	if _, status, err := cli.Decide(1, 10, state); err != nil || status != serve.StatusOK {
		t.Fatalf("Decide with generous timeout: status=%d err=%v", status, err)
	}
	cli.SetTimeout(0)
	if _, status, err := cli.Decide(1, 10, state); err != nil || status != serve.StatusOK {
		t.Fatalf("Decide after clearing timeout: status=%d err=%v", status, err)
	}
}
