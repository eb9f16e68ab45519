package rl

import (
	"context"
	"testing"

	"sage/internal/cc"
	"sage/internal/collector"
	"sage/internal/netem"
	"sage/internal/sim"
)

// benchDataset is the train_crr workload's input (bench/train.go): every
// pool scheme over tiny Set I, two seconds a cell.
func benchDataset(tb testing.TB) *Dataset {
	tb.Helper()
	scs := netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: 2 * sim.Second, Seed: 1})
	for i := range scs {
		scs[i].Jitter = 500 * sim.Microsecond
	}
	pool, err := collector.Collect(context.Background(), cc.PoolNames(), scs, collector.Options{Parallel: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return BuildDataset(pool, nil)
}

// BenchmarkTrainStep is train_crr without the harness: default networks,
// Workers: 2, 30 warm-up steps, one TrainStep per iteration.
func BenchmarkTrainStep(b *testing.B) {
	ds := benchDataset(b)
	l := NewCRR(ds, CRRConfig{Workers: 2, Seed: 1})
	for i := 0; i < 30; i++ {
		l.TrainStep(ds)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.TrainStep(ds)
	}
}

// TestTrainStepAllocs: once the first step has sized the arenas, a worker's
// share of a step allocates nothing, and a whole data-parallel TrainStep
// only what fanning out and reporting cost (worker 1's goroutine, the
// WorkerBusy slice handed to the caller): 2, held here at the 5 train_crr's
// allocs_per_op bound was set against.
func TestTrainStepAllocs(t *testing.T) {
	ds := goldenDataset(t)
	l := NewCRR(ds, CRRConfig{Workers: 2, Seed: 23})
	for i := 0; i < 3; i++ {
		l.TrainStep(ds)
	}
	w := l.workerSet[0]
	if allocs := testing.AllocsPerRun(10, func() { w.run(l, ds) }); allocs != 0 {
		t.Errorf("worker.run allocates %.1f objects per step after warm-up, want 0", allocs)
	}
	w.nets.zeroGrads()
	if allocs := testing.AllocsPerRun(10, func() { l.TrainStep(ds) }); allocs > 5 {
		t.Errorf("TrainStep allocates %.1f objects after warm-up, want at most 5", allocs)
	}
}
