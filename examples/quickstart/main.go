// Quickstart walks the full Sage pipeline end to end at toy scale:
//
//  1. collect a small pool of policies (kernel heuristics × environments),
//  2. train a Sage model offline with CRR — no environment access,
//  3. deploy the learned policy over TCP Pure on an unseen network,
//     and compare it with Cubic on the same network.
//
// Run:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"time"

	"sage/internal/collector"
	"sage/internal/core"
	"sage/internal/eval"
	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/rl"
	"sage/internal/rollout"
	"sage/internal/sim"
)

func main() {
	// 1) Pool of policies: a few heuristics across a tiny environment grid.
	scens := append(
		netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: 4 * sim.Second}),
		netem.SetII(netem.SetIIOptions{Level: netem.GridTiny, Duration: 10 * sim.Second})...)
	fmt.Printf("collecting pool: %d schemes x %d environments...\n", 4, len(scens))
	start := time.Now()
	pool, err := collector.Collect(context.Background(), []string{"cubic", "vegas", "bbr2", "westwood"}, scens, collector.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("  %d transitions in %s\n", pool.Transitions(), time.Since(start).Round(time.Millisecond))

	// 2) Offline training. The environments are now "unplugged": Train only
	// reads the pool.
	fmt.Println("training Sage with CRR (offline)...")
	start = time.Now()
	model := core.Train(pool, core.Config{
		CRR: rl.CRRConfig{
			Policy: nn.PolicyConfig{Enc: 24, Hidden: 12, ResBlocks: 2, K: 3},
			Steps:  400,
		},
	}, nil)
	fmt.Printf("  trained %d-parameter policy in %s\n",
		nn.ParamCount(model.Policy), time.Since(start).Round(time.Millisecond))

	// 3) Deployment on an unseen network: 36 Mb/s (not in the tiny grid),
	// 30 ms RTT, 2-BDP buffer.
	mrtt := 30 * sim.Millisecond
	unseen := netem.Scenario{
		Name:       "unseen-36mbps-30ms",
		Rate:       netem.FlatRate(netem.Mbps(36)),
		MinRTT:     mrtt,
		QueueBytes: 2 * netem.BDPBytes(netem.Mbps(36), mrtt),
		Duration:   10 * sim.Second,
	}
	sage := eval.ControllerEntrant("sage", func() rollout.Controller { return model.NewAgent(1) })
	for _, ent := range []eval.Entrant{sage, eval.SchemeEntrant("cubic"), eval.SchemeEntrant("vegas")} {
		res := ent.Run(unseen, rollout.Options{})
		fmt.Printf("%-8s thr %6.2f Mb/s  avg RTT %5.1f ms  power(α=2) %.2f\n",
			ent.Name, res.ThroughputBps/1e6, res.AvgRTT.Millis(),
			eval.PowerScore(res.ThroughputBps, res.AvgRTT.Millis(), 2))
	}
}
