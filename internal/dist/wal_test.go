package dist

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"sage/internal/collector"
	"sage/internal/telemetry"
)

// TestWALReadoptsInFlightLease: a coordinator that crashes after
// granting a lease but before the shard lands re-adopts the lease from
// its WAL on restart — the agent's in-flight work is still expected, a
// third party has to wait, and the original agent's completion lands as
// VerdictOK without re-collection.
func TestWALReadoptsInFlightLease(t *testing.T) {
	dir := t.TempDir()
	campaign := &Campaign{Schemes: []string{"cubic"}, Level: "tiny", SetIDurSec: 3, SetIIDur: 5, Seed: 1}
	base := CoordConfig{
		Campaign: campaign, ShardDir: filepath.Join(dir, "shards"),
		WALPath:  filepath.Join(dir, "wal"),
		LeaseTTL: 10 * time.Second,
	}
	coord1, addr := startCoordinator(t, base)
	cli, err := dial(context.Background(), addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.roundTrip(&Message{Type: MsgHello, AgentID: "worker", Role: "collect", Session: 7, Req: 1}); err != nil {
		t.Fatal(err)
	}
	assign, err := cli.roundTrip(&Message{Type: MsgRequestCell, AgentID: "worker", Session: 7, Req: 2})
	if err != nil || assign.Type != MsgAssign {
		t.Fatalf("assign: %v %+v", err, assign)
	}
	cli.close()
	coord1.Shutdown() // crash: no CellDone ever arrived

	resumeCfg := base
	resumeCfg.Resume = true
	resumeCfg.Metrics = telemetry.NewRegistry()
	coord2, addr2 := startCoordinator(t, resumeCfg)
	defer coord2.Shutdown()
	if got := resumeCfg.Metrics.Snapshot()["dist.wal_replayed"]; got < 1 {
		t.Fatalf("dist.wal_replayed = %v, want ≥ 1", got)
	}
	if _, leased, _, _ := coord2.Tracker().Counts(); leased != 1 {
		t.Fatalf("re-adopted leases = %d, want 1", leased)
	}

	// A different agent never receives the re-adopted cell: draining the
	// pending set hands out every OTHER cell, then waits.
	other, err := dial(context.Background(), addr2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer other.close()
	if _, err := other.roundTrip(&Message{Type: MsgHello, AgentID: "other", Role: "collect", Session: 9, Req: 1}); err != nil {
		t.Fatal(err)
	}
	for req := uint64(2); ; req++ {
		resp, err := other.roundTrip(&Message{Type: MsgRequestCell, AgentID: "other", Session: 9, Req: req})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type == MsgWait {
			break
		}
		if resp.Type != MsgAssign {
			t.Fatalf("drain reply = %+v", resp)
		}
		if resp.Scheme == assign.Scheme && resp.Env == assign.Env {
			t.Fatalf("re-adopted cell %s/%s leaked to another agent", resp.Scheme, resp.Env)
		}
	}

	// ...while the original agent's in-flight completion lands first try.
	scens, _ := campaign.Scenarios()
	sc := scens[0]
	for _, s := range scens {
		if s.Name == assign.Env {
			sc = s
		}
	}
	tr, err := collector.CollectCell(context.Background(), assign.Scheme, sc, collector.Options{GR: campaign.GR()})
	if err != nil {
		t.Fatal(err)
	}
	payload, sum, err := EncodeShard(&collector.Pool{GR: campaign.GR().Fill(), Trajs: []collector.Trajectory{tr}})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := dial(context.Background(), addr2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.close()
	if _, err := orig.roundTrip(&Message{Type: MsgHello, AgentID: "worker", Role: "collect", Session: 8, Req: 1}); err != nil {
		t.Fatal(err)
	}
	ack, err := orig.roundTrip(&Message{Type: MsgCellDone, AgentID: "worker", Session: 8, Req: 2,
		Scheme: assign.Scheme, Env: assign.Env, Shard: payload, Checksum: sum})
	if err != nil || ack.Verdict != VerdictOK {
		t.Fatalf("in-flight completion after restart = %v %+v", err, ack)
	}
	if got := resumeCfg.Metrics.Snapshot()["dist.wal_records"]; got < 1 {
		t.Fatalf("dist.wal_records = %v, want ≥ 1 (done record)", got)
	}
}

// TestWALDoneRecordPreventsReadoption: a cell whose grant is followed by
// a done record is not re-leased — the WAL only resurrects genuinely
// in-flight leases — and, with no verified shard behind the done record,
// not re-admitted either: it stays pending.
func TestWALDoneRecordPreventsReadoption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	w, recs, err := openWAL(path, nil, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh wal replayed %v", recs)
	}
	cell := collector.CellKey{Scheme: "cubic", Env: "x"}
	w.append(walRecord{T: "grant", Agent: "a", Scheme: cell.Scheme, Env: cell.Env})
	w.append(walRecord{T: "done", Agent: "a", Scheme: cell.Scheme, Env: cell.Env})
	w.append(walRecord{T: "grant", Agent: "b", Scheme: "cubic", Env: "y"})
	w.append(walRecord{T: "epoch", Step: 5})
	w.close()

	w2, recs, err := openWAL(path, nil, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs))
	}
	tracker := NewTracker([]collector.CellKey{cell, {Scheme: "cubic", Env: "y"}}, time.Minute)
	c := &Coordinator{cfg: CoordConfig{Logf: func(string, ...any) {}}, tracker: tracker}
	c.replayWAL(recs)
	if pending, leased, _, _ := tracker.Counts(); pending != 1 || leased != 1 {
		t.Fatalf("after replay: pending=%d leased=%d (want the done cell pending, the granted one leased)", pending, leased)
	}
	if c.LastEpoch() != 5 {
		t.Fatalf("LastEpoch = %d, want 5", c.LastEpoch())
	}
}
