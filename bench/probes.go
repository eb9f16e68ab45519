package main

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"sage/internal/cc"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/safeio"
	"sage/internal/sim"
	"sage/internal/tcp"
)

// The isolated probes time one layer each with nothing else running. Each
// is repeated probeReps times and the fastest repetition reported: a probe
// is asked what the layer costs, and interference only ever adds to that.
const probeReps = 3

// probe runs fn probeReps times; fn reports how many units it did. It
// returns the best ns per unit and the allocations per unit of that rep.
func probe(fn func() int) (nsPerUnit, allocsPerUnit float64) {
	best := -1.0
	for i := 0; i < probeReps; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		units := fn()
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if ns := float64(wall.Nanoseconds()) / float64(units); best < 0 || ns < best {
			best = ns
			allocsPerUnit = float64(m1.Mallocs-m0.Mallocs) / float64(units)
		}
	}
	return best, allocsPerUnit
}

// probeSim times Loop.At + RunUntil with 1024 events pending throughout:
// every event that fires schedules its successor.
func probeSim(events int) (ns, allocs float64) {
	return probe(func() int {
		loop := sim.NewLoop()
		left := events
		var fire sim.Event
		fire = func(now sim.Time) {
			if left > 0 {
				left--
				loop.At(now+1024, fire)
			}
		}
		for i := 0; i < 1024; i++ {
			loop.At(sim.Time(i), fire)
		}
		loop.Run()
		return int(loop.Processed())
	})
}

type countingReceiver struct{ n int }

func (r *countingReceiver) Receive(*netem.Packet, sim.Time) { r.n++ }

// probeLink offers packets to Network.SendData at exactly line rate and
// counts them out of the far end: queue, link service and propagation.
func probeLink(pkts int) (ns, allocs float64) {
	return probe(func() int {
		loop := sim.NewLoop()
		rate := netem.Mbps(1000)
		n := netem.New(loop, netem.Config{Rate: netem.FlatRate(rate), MinRTT: 10 * sim.Millisecond})
		sink := &countingReceiver{}
		n.Attach(1, netem.Endpoints{Data: sink})
		gap := sim.Time(float64(netem.MTU*8) / rate * float64(sim.Second))
		now := sim.Time(0)
		for i := 0; i < pkts; i++ {
			n.SendData(&netem.Packet{FlowID: 1, Seq: int64(i), Size: netem.MTU, Sent: now}, now)
			now += gap
			loop.RunUntil(now)
		}
		loop.Run()
		return sink.n
	})
}

// probeFlow runs one flow alone on a lossless 1 Gb/s, 10 ms path. Under
// "pure" the window is pinned at 100 packets, so the cost per delivered
// packet is the datapath's; under a real scheme the difference is cc's.
func probeFlow(scheme string, dur sim.Time) (ns, allocs float64) {
	return probe(func() int {
		loop := sim.NewLoop()
		rate := netem.Mbps(1000)
		n := netem.New(loop, netem.Config{Rate: netem.FlatRate(rate), MinRTT: 10 * sim.Millisecond})
		opt := tcp.Options{}
		if scheme == "pure" {
			opt.InitCwnd = 100
		}
		fl := tcp.NewFlow(loop, n, 1, cc.MustNew(scheme), opt)
		fl.Conn.Start(0)
		loop.RunUntil(dur)
		return int(fl.Sink.RxPkts)
	})
}

// probeForward times Policy.BatchForward plus the mixture mean at one batch
// size, per row, on a production-sized policy.
func probeForward(pol *nn.Policy, batch, rows int) (ns, allocsPerCall float64) {
	rng := rand.New(rand.NewSource(int64(batch)))
	states, hidden := nn.NewMat(batch, gr.StateDim), nn.NewMat(batch, pol.Cfg.Hidden)
	for i := range states.Data {
		states.Data[i] = rng.NormFloat64()
	}
	scratch := pol.NewBatchScratch()
	mean := make([]float64, pol.GMM.K)
	sink := 0.0
	call := func() {
		heads, _ := pol.BatchForward(states, hidden, scratch)
		for r := 0; r < batch; r++ {
			sink += pol.GMM.MeanInto(heads.Row(r), mean)
		}
	}
	call() // grow the scratch once
	calls := (rows + batch - 1) / batch
	ns, allocs := probe(func() int {
		for i := 0; i < calls; i++ {
			call()
		}
		return calls * batch
	})
	if sink != sink {
		panic("non-finite forward pass")
	}
	return ns, allocs * float64(batch)
}

// flopsPerRow is computed from the layer sizes, not measured: one multiply
// and one add per weight-matrix element.
func flopsPerRow(pol *nn.Policy) float64 {
	flops := 0
	for _, p := range pol.Params() {
		if p.Rows > 1 {
			flops += 2 * p.Rows * p.Cols
		}
	}
	return float64(flops)
}

// probeAppend times AppendLog.Append of a 256-byte record, fsync included.
func probeAppend(dir string, log io.Writer) (p50us float64, err error) {
	path := filepath.Join(dir, "probe.log")
	l, _, err := safeio.OpenAppendLog(path, nil)
	if err != nil {
		return 0, err
	}
	defer l.Close()
	rec := make([]byte, 256)
	for i := range rec {
		rec[i] = 'a' + byte(i%26)
	}
	us := make([]float64, 0, 200)
	for i := 0; i < cap(us); i++ {
		t0 := time.Now()
		if err := l.Append(rec); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	t := summarize(us)
	fmt.Fprintf(log, "safeio.append on %s: %v µs\n", fsType(dir), t)
	return t.P50, nil
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown fs"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("fs type %#x", st.Type)
}
