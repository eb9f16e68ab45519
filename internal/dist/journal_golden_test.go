package dist

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sage/internal/collector"
	"sage/internal/golden"
	"sage/internal/telemetry"
)

// TestGoldenCoordinatorWAL pins the coordinator WAL's on-disk bytes across
// commits (testdata/coordinator-wal.golden): a .wal written by one binary
// must reopen in the next. It drives one agent through the coordinator's
// wire API — cell 1 granted and completed, cell 2 granted and failed, cell 3
// granted and left in flight — then digests the log and checks what a
// restarted coordinator rebuilds from it.
func TestGoldenCoordinatorWAL(t *testing.T) {
	dir := t.TempDir()
	campaign := &Campaign{Schemes: []string{"cubic"}, Level: "tiny", SetIDurSec: 3, SetIIDur: 5, Seed: 1}
	base := CoordConfig{
		Campaign: campaign, ShardDir: filepath.Join(dir, "shards"),
		ManifestPath: filepath.Join(dir, "manifest"), WALPath: filepath.Join(dir, "wal"),
		LeaseTTL: time.Minute,
	}
	coord, addr := startCoordinator(t, base)
	cli, err := dial(context.Background(), addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := uint64(0)
	call := func(m *Message) *Message {
		t.Helper()
		req++
		m.AgentID, m.Session, m.Req = "worker", 7, req
		resp, err := cli.roundTrip(m)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	assign := func() *Message {
		t.Helper()
		resp := call(&Message{Type: MsgRequestCell})
		if resp.Type != MsgAssign {
			t.Fatalf("request cell = %+v", resp)
		}
		return resp
	}
	call(&Message{Type: MsgHello, Role: "collect"})

	c1 := assign()
	scens, err := campaign.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	var tr collector.Trajectory
	for _, sc := range scens {
		if sc.Name == c1.Env {
			if tr, err = collector.CollectCell(context.Background(), c1.Scheme, sc, collector.Options{GR: campaign.GR()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	payload, sum, err := EncodeShard(&collector.Pool{GR: campaign.GR().Fill(), Trajs: []collector.Trajectory{tr}})
	if err != nil {
		t.Fatal(err)
	}
	if ack := call(&Message{Type: MsgCellDone, Scheme: c1.Scheme, Env: c1.Env, Shard: payload, Checksum: sum}); ack.Verdict != VerdictOK {
		t.Fatalf("cell done = %+v", ack)
	}
	c2 := assign()
	if ack := call(&Message{Type: MsgCellFailed, Scheme: c2.Scheme, Env: c2.Env, Err: "worker panic: boom"}); ack.Verdict != VerdictOK {
		t.Fatalf("cell failed = %+v", ack)
	}
	assign()
	cli.close()
	coord.Shutdown()

	raw, err := os.ReadFile(base.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	d := golden.NewDigest()
	d.Write(raw)
	if !golden.Check(t, "coordinator-wal", d.Sum()) {
		t.Logf("%s", raw)
	}

	resume := base
	resume.Resume = true
	resume.Metrics = telemetry.NewRegistry()
	coord2, _ := startCoordinator(t, resume)
	defer coord2.Shutdown()
	if got := resume.Metrics.Snapshot()["dist.wal_replayed"]; got != 5 {
		t.Errorf("dist.wal_replayed = %v, want 5 (grant, done, grant, fail, grant)", got)
	}
	// The done cell comes back through manifest + shard, the in-flight one
	// through the WAL; a failed cell is retried by a resumed campaign.
	pending, leased, done, failed := coord2.Tracker().Counts()
	if leased != 1 || done != 1 || failed != 0 || pending != coord2.TotalCells()-2 {
		t.Errorf("resumed tracker: pending=%d leased=%d done=%d failed=%d of %d cells", pending, leased, done, failed, coord2.TotalCells())
	}
	if coord2.LastEpoch() != 0 {
		t.Errorf("LastEpoch = %d, want 0", coord2.LastEpoch())
	}
}
