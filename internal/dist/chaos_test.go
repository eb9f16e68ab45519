package dist

import (
	"bytes"
	"context"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sage/internal/chaos"
	"sage/internal/rl"
	"sage/internal/telemetry"
)

// chaosServe starts coord behind a fault-injecting listener and reports
// how many faults fired.
func chaosServe(t *testing.T, coord *Coordinator, spec chaos.FaultSpec) (addr string, faults *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := chaos.NewTransport(spec)
	faults = &atomic.Int64{}
	tr.OnEvent = func(chaos.FaultEvent) { faults.Add(1) }
	go coord.Serve(tr.Listener(ln))
	return ln.Addr().String(), faults
}

// TestCampaignByteIdenticalUnderChaos is the tentpole acceptance test at
// the package level: a sharded campaign over a transport that drops
// connections and duplicates and truncates frames still produces a
// merged pool byte-identical to the fault-free single-process run, with
// the retries/reconnects/dedups visible in dist.* counters.
func TestCampaignByteIdenticalUnderChaos(t *testing.T) {
	dir := t.TempDir()
	coordMetrics := telemetry.NewRegistry()
	coord, err := NewCoordinator(CoordConfig{
		Campaign:    testCampaign(),
		ShardDir:    filepath.Join(dir, "shards"),
		WALPath:     filepath.Join(dir, "wal"),
		LeaseTTL:    30 * time.Second,
		HedgeFactor: 4,
		Metrics:     coordMetrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown()
	addr, faults := chaosServe(t, coord, chaos.FaultSpec{
		Seed: 11, Drop: 0.05, Dup: 0.10, Trunc: 0.02,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	agentMetrics := []*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	var wg sync.WaitGroup
	agentErrs := make(chan error, 2)
	for i, id := range []string{"agent-1", "agent-2"} {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			agentErrs <- RunAgent(ctx, AgentConfig{
				Coordinator: addr, ID: id, Parallel: 2,
				RedialAttempts: 30, RedialBackoff: 10 * time.Millisecond,
				RPCTimeout: 5 * time.Second,
				Metrics:    agentMetrics[i],
			})
		}(i, id)
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-agentErrs; err != nil {
			t.Fatalf("agent under chaos: %v", err)
		}
	}
	merged, err := coord.MergedPool()
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Failed) != 0 {
		t.Fatalf("failed cells under chaos: %v", merged.Failed)
	}
	if !bytes.Equal(savedBytes(t, merged), referencePoolBytes(t)) {
		t.Fatal("pool under chaos differs from fault-free single-process bytes")
	}
	if faults.Load() == 0 {
		t.Fatal("chaos transport injected no faults; the test exercised nothing")
	}
	var retries, reconnects float64
	for _, m := range agentMetrics {
		snap := m.Snapshot()
		retries += snap["dist.retries"]
		reconnects += snap["dist.reconnects"]
	}
	if retries == 0 && reconnects == 0 {
		t.Fatalf("no dist.retries/dist.reconnects recorded despite %d faults", faults.Load())
	}
	if got := coordMetrics.Snapshot()["dist.wal_records"]; got == 0 {
		t.Fatal("no dist.wal_records recorded")
	}
	t.Logf("chaos campaign: %d faults, %.0f retries, %.0f reconnects, %.0f dedup hits",
		faults.Load(), retries, reconnects, coordMetrics.Snapshot()["dist.dedup_hits"])
}

// TestTrainingBitwiseUnderChaos: data-parallel training over the same
// faulty transport converges to parameters bitwise-identical to the
// in-process run — lost replies resync, duplicated gradient frames are
// reconciled by the step barrier, dropped connections redial.
func TestTrainingBitwiseUnderChaos(t *testing.T) {
	cfg := trainCfg()
	pool := trainPool(t)
	ds := rl.BuildDataset(pool, nil)
	want, _ := referenceParams(t, ds, cfg, cfg.Steps)

	master := rl.NewCRR(ds, cfg)
	coord, err := NewCoordinator(CoordConfig{
		Train: &TrainConfig{Learner: master, Workers: cfg.Workers, StepsTotal: cfg.Steps},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown()
	addr, faults := chaosServe(t, coord, chaos.FaultSpec{
		Seed: 5, Drop: 0.04, Dup: 0.10, Trunc: 0.02,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	workerMetrics := []*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	errs := make(chan error, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go func(i int) {
			errs <- RunTrainWorker(ctx, TrainWorkerConfig{
				Coordinator: addr, ID: "w" + string(rune('0'+i)), Index: i,
				Workers: cfg.Workers, Pool: pool,
				RedialAttempts: 30, RedialBackoff: 10 * time.Millisecond,
				Metrics: workerMetrics[i],
			})
		}(i)
	}
	for i := 0; i < cfg.Workers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker under chaos: %v", err)
		}
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	assertParamsEqual(t, master.SnapshotParams(), want, "training under chaos")
	if faults.Load() == 0 {
		t.Fatal("chaos transport injected no faults; the test exercised nothing")
	}
}
