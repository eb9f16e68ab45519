package serve_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"sage/internal/serve"
	"sage/internal/telemetry"
)

// queueBehindHeldWorker parks the engine's only worker on session 1000,
// queues one Decide for each of sessions 1..n behind it, and returns once
// all n are waiting. Errors from every Decide arrive on the channel.
func queueBehindHeldWorker(t *testing.T, eng *serve.Engine, hold *serve.HoldShadow, n int) <-chan error {
	t.Helper()
	errs := make(chan error, n+1)
	decide := func(sid uint64) {
		_, _, err := eng.Decide(sid, 10, randState(rand.New(rand.NewSource(int64(sid)))))
		errs <- err
	}
	go decide(1000)
	<-hold.Held()
	for i := 1; i <= n; i++ {
		go decide(uint64(i))
	}
	for deadline := time.Now().Add(5 * time.Second); eng.QueueLen() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests queued", eng.QueueLen(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return errs
}

func heldEngine(seed int64, reg *telemetry.Registry) (*serve.Engine, *serve.HoldShadow) {
	eng := serve.NewEngine(serve.Config{Policy: testPolicy(seed), MaxBatch: 64, Workers: 1, Metrics: reg})
	hold := serve.HoldWorker(eng)
	eng.Start()
	return eng, hold
}

// No timer stands between an idle engine and a lone request: BatchDeadline
// is a unit for the overload budget, not a hold.
func TestLoneDecideWaitsForNoTimer(t *testing.T) {
	eng := serve.NewEngine(serve.Config{Policy: testPolicy(71), BatchDeadline: time.Hour})
	eng.Start()
	defer eng.Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := eng.Decide(1, 10, randState(rand.New(rand.NewSource(1))))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a lone Decide on an idle engine is waiting on something")
	}
}

// Batches grow exactly when every worker is busy: everything queued behind
// a held worker runs as one pass once it frees up, every future completes,
// and Close then refuses new work.
func TestAsyncBatchingAndDrain(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng, hold := heldEngine(17, reg)
	const n = 32
	errs := queueBehindHeldWorker(t, eng, hold, n)
	before := reg.Counter(serve.MetricBatches).Value()
	hold.Release()
	for i := 0; i < n+1; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter(serve.MetricDecisions).Value(); got != n+1 {
		t.Errorf("decisions = %d, want %d", got, n+1)
	}
	// The held request's own batch is counted when its pass ends, after the
	// release: it and the queued batch make two.
	if got := reg.Counter(serve.MetricBatches).Value() - before; got != 2 {
		t.Errorf("%d queued requests ran as %d batches, want 1 (+1 for the held one)", n, got-1)
	}
	if got := reg.Histogram(serve.MetricBatchSize).Summary().Max; got != n {
		t.Errorf("largest batch = %v, want %d", got, n)
	}
	eng.Close()
	if _, _, err := eng.Decide(1, 10, randState(rand.New(rand.NewSource(1)))); err != serve.ErrClosed {
		t.Errorf("Decide after Close = %v, want ErrClosed", err)
	}
}

// Close and Swap with requests still queued complete every future. Either
// may win the race with the release; -race runs cover both orders.
func TestCloseAndSwapCompleteQueuedRequests(t *testing.T) {
	const n = 8
	t.Run("close", func(t *testing.T) {
		eng, hold := heldEngine(79, nil)
		errs := queueBehindHeldWorker(t, eng, hold, n)
		closed := make(chan struct{})
		go func() {
			eng.Close()
			close(closed)
		}()
		// Session 1000 is busy until the release, so this probe never
		// enqueues: it reports busy until Close has shut the queue.
		for {
			_, _, err := eng.Decide(1000, 10, randState(rand.New(rand.NewSource(1))))
			if err == serve.ErrClosed {
				break
			}
			if err != serve.ErrSessionBusy {
				t.Fatalf("probe on the held session returned %v", err)
			}
			time.Sleep(100 * time.Microsecond)
		}
		hold.Release()
		for i := 0; i < n+1; i++ {
			if err := <-errs; err != nil {
				t.Errorf("request dropped by Close: %v", err)
			}
		}
		<-closed
	})
	t.Run("swap", func(t *testing.T) {
		eng, hold := heldEngine(83, nil)
		defer eng.Close()
		errs := queueBehindHeldWorker(t, eng, hold, n)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if stats, err := eng.Swap(testPolicy(89), nil); err != nil || stats.Sessions != n+1 {
				t.Errorf("Swap = %v, %v; want %d sessions migrated", stats, err, n+1)
			}
		}()
		hold.Release()
		for i := 0; i < n+1; i++ {
			if err := <-errs; err != nil {
				t.Errorf("request dropped by Swap: %v", err)
			}
		}
		wg.Wait()
		if _, _, err := eng.Decide(1, 10, randState(rand.New(rand.NewSource(2)))); err != nil {
			t.Fatalf("Decide after Swap: %v", err)
		}
	})
}

// In steady state a decision allocates nothing in the engine: the session
// is its own request (state buffer, reply channel, admit stamp) and the
// worker's batch scratch is reused.
func TestDecideSteadyStateAllocatesNothing(t *testing.T) {
	eng := serve.NewEngine(serve.Config{Policy: testPolicy(97), Workers: 1, Metrics: telemetry.NewRegistry()})
	eng.Start()
	defer eng.Close()
	state := randState(rand.New(rand.NewSource(3)))
	decide := func() {
		if _, _, err := eng.Decide(1, 10, state); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ { // fill the re-prime ring and size every scratch buffer
		decide()
	}
	if allocs := testing.AllocsPerRun(200, decide); allocs != 0 {
		t.Errorf("Decide allocates %v times per call in steady state, want 0", allocs)
	}
}
