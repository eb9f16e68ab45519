package exp

import (
	"context"
	"fmt"
	"os"
	"testing"

	"sage/internal/cc"
	"sage/internal/core"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/rl"
	"sage/internal/rollout"
	"sage/internal/sim"
	"sage/internal/tcp"
)

type uProbe struct {
	agent *core.Agent
	model *core.Model
	us    []float64
	cwnd  []float64
}

func (p *uProbe) Control(now sim.Time, conn *tcp.Conn, state []float64) {
	before := conn.Cwnd
	p.agent.Control(now, conn, state)
	ratio := conn.Cwnd / before
	p.us = append(p.us, ratio)
	p.cwnd = append(p.cwnd, conn.Cwnd)
}

func TestDiagDeployActions(t *testing.T) {
	if os.Getenv("SAGE_DIAG") == "" {
		t.Skip("diagnostic")
	}
	pool := diagGetPool(t)
	s := Quick()
	if v := os.Getenv("SAGE_STEPS"); v != "" {
		fmt.Sscanf(v, "%d", &s.TrainSteps)
	}
	ds := rl.BuildDataset(pool, nil)
	learner := rl.NewCRR(ds, s.crr())
	learner.Train(context.Background(), ds, nil)
	model := &core.Model{Policy: learner.Policy, Mask: ds.Mask, GR: pool.GR}

	// Pool-state policy means + Q diagnostics.
	for _, pr := range []struct{ traj, step int }{{0, 2}, {0, 120}, {40, 120}} {
		tr := pool.Trajs[pr.traj]
		if pr.step >= len(tr.Steps) {
			continue
		}
		st := gr.ApplyMask(tr.Steps[pr.step].State, ds.Mask)
		head, _ := learner.Policy.Forward(st, learner.Policy.InitHidden())
		fmt.Printf("pool %s/%s step%d: mean_u=%.3f  Q(-0.5/0/0.5)=%.2f/%.2f/%.2f\n",
			tr.Scheme, tr.Env, pr.step, learner.Policy.GMM.Mean(head),
			learner.QValue(st, -0.5), learner.QValue(st, 0), learner.QValue(st, 0.5))
	}

	mrtt := 20 * sim.Millisecond
	sc := netem.Scenario{Name: "diag", Rate: netem.FlatRate(netem.Mbps(48)), MinRTT: mrtt,
		QueueBytes: 2 * netem.BDPBytes(netem.Mbps(48), mrtt), Duration: 6 * sim.Second}
	pr := &uProbe{agent: model.NewAgent(1), model: model}
	res := rollout.Run(sc, cc.MustNew("pure"), rollout.Options{Controller: pr})
	fmt.Printf("deploy thr=%.2f loss=%.3f\n", res.ThroughputBps/1e6, res.LossRate)
	for i := 0; i < len(pr.us); i += 20 {
		fmt.Printf("tick %3d ratio=%.3f cwnd=%.1f\n", i, pr.us[i], pr.cwnd[i])
	}
}
