package dist

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestDrainAgentsWaitsForTheVerdict: after the campaign is complete,
// DrainAgents holds the coordinator up while a registered agent is between
// connections — the moment a chaos disconnect used to let the coordinator
// leave — and while it has been sent MsgCampaignDone but not said Bye, as
// when a partition swallows the reply; it returns once RunAgent, every
// runner told, says Bye and hangs up. An evicted agent does not hold the
// drain, and an agent that never comes back holds it only for the grace
// period.
func TestDrainAgentsWaitsForTheVerdict(t *testing.T) {
	dir := t.TempDir()
	campaign := &Campaign{Schemes: []string{"cubic"}, Level: "tiny", SetIDurSec: 3, SetIIDur: 5, Seed: 1}
	coord, addr := startCoordinator(t, CoordConfig{
		Campaign: campaign, ShardDir: filepath.Join(dir, "shards"), WALPath: filepath.Join(dir, "wal"),
		LeaseTTL: 10 * time.Second,
	})
	defer coord.Shutdown()
	now := time.Unix(0, 0)
	var mu sync.Mutex
	coord.Tracker().SetClock(func() time.Time { mu.Lock(); defer mu.Unlock(); return now })

	// open sends msgs as agent over a new connection and leaves it open.
	open := func(agent string, msgs ...*Message) (*client, *Message) {
		t.Helper()
		cli, err := dial(context.Background(), addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		var resp *Message
		for _, m := range msgs {
			m.AgentID = agent
			if resp, err = cli.roundTrip(m); err != nil {
				t.Fatal(err)
			}
		}
		return cli, resp
	}
	call := func(agent string, msgs ...*Message) *Message {
		t.Helper()
		cli, resp := open(agent, msgs...)
		cli.close()
		return resp
	}
	hello := func() *Message { return &Message{Type: MsgHello, Role: "collect"} }
	request := func() *Message { return &Message{Type: MsgRequestCell} }

	// A zombie takes a lease and goes silent past the TTL, its connection
	// still open (closing it would release the lease): evicted.
	zombie, resp := open("zombie", hello(), request())
	if resp.Type != MsgAssign {
		t.Fatalf("zombie request = %+v", resp)
	}
	mu.Lock()
	now = now.Add(time.Minute)
	mu.Unlock()
	if !coord.Tracker().Evicted("zombie") {
		t.Fatal("zombie not evicted")
	}
	zombie.close()
	// The agent that will matter registers, then its connection drops.
	call("agent", hello())
	cells, err := campaign.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range cells {
		coord.Tracker().MarkDone(cell)
	}

	drained := make(chan time.Duration, 1)
	start := time.Now()
	go func() {
		coord.DrainAgents(time.Minute)
		drained <- time.Since(start)
	}()
	stillDraining := func(why string) {
		t.Helper()
		select {
		case d := <-drained:
			t.Fatalf("DrainAgents returned after %v with %s", d, why)
		case <-time.After(300 * time.Millisecond):
		}
	}
	stillDraining("a registered agent between connections")
	if resp := call("agent", hello(), request()); resp.Type != MsgCampaignDone {
		t.Fatalf("request after completion = %+v, want MsgCampaignDone", resp)
	}
	stillDraining("an agent sent the verdict that has not said Bye")

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := RunAgent(ctx, AgentConfig{Coordinator: addr, ID: "agent", Parallel: 2}); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-drained:
		t.Logf("drained %v after start", d)
	case <-time.After(5 * time.Second):
		t.Fatal("DrainAgents still waiting after the agent said Bye and hung up")
	}

	// A fresh Hello means the agent may not have heard the verdict: it holds
	// the drain again, for no longer than the grace period.
	call("agent", hello())
	start = time.Now()
	coord.DrainAgents(200 * time.Millisecond)
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Fatalf("DrainAgents returned after %v, before its grace, with an agent yet to say Bye", d)
	}
}
