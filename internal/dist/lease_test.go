package dist

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"sage/internal/collector"
	"sage/internal/telemetry"
)

func cellList(n int) []collector.CellKey {
	out := make([]collector.CellKey, n)
	for i := range out {
		out[i] = collector.CellKey{Scheme: "cubic", Env: string(rune('a' + i))}
	}
	return out
}

func TestTrackerAcquireRenewComplete(t *testing.T) {
	tr := NewTracker(cellList(2), time.Minute)
	c1, res := tr.Acquire("a1")
	if res != AcquireGranted {
		t.Fatalf("acquire = %v", res)
	}
	c2, res := tr.Acquire("a1")
	if res != AcquireGranted || c2 == c1 {
		t.Fatalf("second acquire = %v (%v)", res, c2)
	}
	if _, res := tr.Acquire("a2"); res != AcquireWait {
		t.Fatalf("exhausted acquire = %v, want wait", res)
	}
	if v, _ := tr.Complete("a1", c1); v != VerdictOK {
		t.Fatalf("complete = %q", v)
	}
	if v, _ := tr.Complete("a1", c1); v != VerdictDuplicate {
		t.Fatalf("re-complete = %q", v)
	}
	tr.Complete("a1", c2)
	if !tr.Done() {
		t.Fatal("all cells done but tracker disagrees")
	}
	if _, res := tr.Acquire("a2"); res != AcquireComplete {
		t.Fatalf("post-completion acquire = %v", res)
	}
}

// TestTrackerLeaseExpiry: an un-renewed lease returns its cell to the
// pending set and evicts the holder; renewal prevents it; a fresh
// Register clears the eviction.
func TestTrackerLeaseExpiry(t *testing.T) {
	tr := NewTracker(cellList(1), 10*time.Second)
	now := time.Unix(0, 0)
	tr.SetClock(func() time.Time { return now })

	cell, res := tr.Acquire("slow")
	if res != AcquireGranted {
		t.Fatalf("acquire = %v", res)
	}
	now = now.Add(8 * time.Second)
	tr.Renew("slow")
	now = now.Add(8 * time.Second) // 16s total, but renewed at 8s
	if tr.Evicted("slow") {
		t.Fatal("renewed agent evicted")
	}
	now = now.Add(11 * time.Second) // past the renewed deadline
	cell2, res := tr.Acquire("fast")
	if res != AcquireGranted || cell2 != cell {
		t.Fatalf("expired cell not reassigned: %v %v", cell2, res)
	}
	if !tr.Evicted("slow") {
		t.Fatal("delinquent agent not evicted")
	}
	tr.Register("slow")
	if tr.Evicted("slow") {
		t.Fatal("re-registered agent still evicted")
	}
}

// TestTrackerDuplicateCompletionFromRevivedAgent: the lapsed holder's
// late result is reported as duplicate once someone else completed the
// cell, and first-completion-wins even when the lapsed holder reports
// first.
func TestTrackerDuplicateCompletionFromRevivedAgent(t *testing.T) {
	tr := NewTracker(cellList(1), time.Second)
	now := time.Unix(0, 0)
	tr.SetClock(func() time.Time { return now })

	cell, _ := tr.Acquire("zombie")
	now = now.Add(2 * time.Second)
	if c2, res := tr.Acquire("healthy"); res != AcquireGranted || c2 != cell {
		t.Fatalf("reassignment failed: %v %v", c2, res)
	}
	// The zombie finishes first anyway — deterministic cells make its
	// result correct, so it wins.
	if v, _ := tr.Complete("zombie", cell); v != VerdictOK {
		t.Fatalf("first completion = %q", v)
	}
	if v, _ := tr.Complete("healthy", cell); v != VerdictDuplicate {
		t.Fatalf("second completion = %q", v)
	}
	if pending, leased, done, failed := tr.Counts(); done != 1 || pending+leased+failed != 0 {
		t.Fatalf("counts = %d %d %d %d", pending, leased, done, failed)
	}
}

// TestTrackerReleaseIsNotEviction: a clean disconnect returns cells to
// pending without branding the agent.
func TestTrackerReleaseIsNotEviction(t *testing.T) {
	tr := NewTracker(cellList(2), time.Minute)
	tr.Acquire("a1")
	tr.Release("a1")
	if tr.Evicted("a1") {
		t.Fatal("released agent evicted")
	}
	if pending, leased, _, _ := tr.Counts(); pending != 2 || leased != 0 {
		t.Fatalf("counts after release: pending=%d leased=%d", pending, leased)
	}
}

func TestTrackerFailAndFailures(t *testing.T) {
	cells := cellList(3)
	tr := NewTracker(cells, time.Minute)
	tr.Acquire("a")
	tr.Acquire("a")
	tr.Acquire("a")
	tr.Fail("a", cells[2], "panic: boom")
	tr.Fail("a", cells[0], "panic: bust")
	tr.Complete("a", cells[1])
	if !tr.Done() {
		t.Fatal("terminal states not recognized")
	}
	fs := tr.Failures()
	if len(fs) != 2 || fs[0].Env > fs[1].Env {
		t.Fatalf("failures = %v (want 2, sorted)", fs)
	}
	// A failure reported after another agent completed the cell is a
	// duplicate, not a campaign failure.
	tr2 := NewTracker(cells[:1], time.Minute)
	tr2.Acquire("a")
	tr2.Complete("a", cells[0])
	if v := tr2.Fail("b", cells[0], "x"); v != VerdictDuplicate {
		t.Fatalf("late failure verdict = %q", v)
	}
}

func TestTrackerMarkDoneResume(t *testing.T) {
	cells := cellList(2)
	tr := NewTracker(cells, time.Minute)
	tr.MarkDone(cells[0])
	c, res := tr.Acquire("a")
	if res != AcquireGranted || c != cells[1] {
		t.Fatalf("resume acquire = %v %v", c, res)
	}
	if done := tr.DoneCells(); len(done) != 1 || done[0] != cells[0] {
		t.Fatalf("done cells = %v", done)
	}
}

// TestTrackerLeaseBoundaryExactTTL pins the eviction boundary: the
// lease interval is closed — a heartbeat or completion landing at
// exactly granted-time + TTL still counts, and only strictly-after is
// delinquent. (An earlier draft evicted at >= TTL, which made agents
// whose heartbeat period equals the TTL flap; this test keeps the
// boundary honest.)
func TestTrackerLeaseBoundaryExactTTL(t *testing.T) {
	tr := NewTracker(cellList(1), 10*time.Second)
	now := time.Unix(0, 0)
	tr.SetClock(func() time.Time { return now })
	cell, _ := tr.Acquire("edge")

	// Heartbeat at exactly the deadline renews.
	now = now.Add(10 * time.Second)
	tr.Renew("edge")
	if tr.Evicted("edge") {
		t.Fatal("agent heartbeating exactly at TTL evicted")
	}
	if _, res := tr.Acquire("poacher"); res != AcquireWait {
		t.Fatalf("boundary heartbeat did not hold the lease: %v", res)
	}
	// Completion at exactly the renewed deadline is the holder's win.
	now = now.Add(10 * time.Second)
	if v, _ := tr.Complete("edge", cell); v != VerdictOK {
		t.Fatalf("completion at exact TTL = %q", v)
	}
	if tr.Evicted("edge") {
		t.Fatal("agent completing exactly at TTL evicted")
	}
}

// TestTrackerLeaseBoundaryJustPastTTL: one nanosecond past the deadline
// the sweep has already run — a renewal arriving then cannot resurrect
// the lease, and the agent is evicted.
func TestTrackerLeaseBoundaryJustPastTTL(t *testing.T) {
	tr := NewTracker(cellList(1), 10*time.Second)
	now := time.Unix(0, 0)
	tr.SetClock(func() time.Time { return now })
	tr.Acquire("late")
	now = now.Add(10*time.Second + time.Nanosecond)
	tr.Renew("late")
	if !tr.Evicted("late") {
		t.Fatal("agent renewing past TTL not evicted")
	}
	if pending, leased, _, _ := tr.Counts(); pending != 1 || leased != 0 {
		t.Fatalf("expired cell not reclaimed: pending=%d leased=%d", pending, leased)
	}
}

// TestCoordinatorRejectsEvictedShardDone drives the eviction boundary
// end to end: an agent whose lease lapsed loses the race to a healthy
// one, and its late CellDone is rejected with VerdictEvicted at the
// coordinator — the shard is never merged a second time.
func TestCoordinatorRejectsEvictedShardDone(t *testing.T) {
	dir := t.TempDir()
	campaign := &Campaign{Schemes: []string{"cubic"}, Level: "tiny", SetIDurSec: 3, SetIIDur: 5, Seed: 1}
	metrics := telemetry.NewRegistry()
	coord, addr := startCoordinator(t, CoordConfig{
		Campaign: campaign, ShardDir: filepath.Join(dir, "shards"),
		WALPath:  filepath.Join(dir, "wal"),
		LeaseTTL: 10 * time.Second, Metrics: metrics,
	})
	defer coord.Shutdown()
	now := time.Unix(0, 0)
	coord.Tracker().SetClock(func() time.Time { return now })

	slow, err := dial(context.Background(), addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.close()
	if _, err := slow.roundTrip(&Message{Type: MsgHello, AgentID: "slow", Role: "collect", Session: 1, Req: 1}); err != nil {
		t.Fatal(err)
	}
	assign, err := slow.roundTrip(&Message{Type: MsgRequestCell, AgentID: "slow", Session: 1, Req: 2})
	if err != nil || assign.Type != MsgAssign {
		t.Fatalf("assign: %v %+v", err, assign)
	}

	// The slow agent goes silent past its TTL; its cell returns to the
	// head of the pending order, so the healthy agent picks it up.
	now = now.Add(10*time.Second + time.Millisecond)
	fast, err := dial(context.Background(), addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.close()
	if _, err := fast.roundTrip(&Message{Type: MsgHello, AgentID: "fast", Role: "collect", Session: 2, Req: 1}); err != nil {
		t.Fatal(err)
	}
	reassign, err := fast.roundTrip(&Message{Type: MsgRequestCell, AgentID: "fast", Session: 2, Req: 2})
	if err != nil || reassign.Type != MsgAssign || reassign.Scheme != assign.Scheme || reassign.Env != assign.Env {
		t.Fatalf("expired cell not reassigned first: %v %+v", err, reassign)
	}

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
	done := &Message{Type: MsgCellDone, AgentID: "fast", Session: 2, Req: 3,
		Scheme: assign.Scheme, Env: assign.Env, Shard: payload, Checksum: sum}
	if ack, err := fast.roundTrip(done); err != nil || ack.Verdict != VerdictOK {
		t.Fatalf("healthy completion = %v %+v", err, ack)
	}

	// The evicted agent's late copy: rejected outright, not merged, not
	// even counted a duplicate — the agent must re-Hello before anything
	// it says is trusted again.
	late := &Message{Type: MsgCellDone, AgentID: "slow", Session: 1, Req: 3,
		Scheme: assign.Scheme, Env: assign.Env, Shard: payload, Checksum: sum}
	ack, err := slow.roundTrip(late)
	if err != nil || ack.Verdict != VerdictEvicted {
		t.Fatalf("evicted late CellDone = %v %+v, want VerdictEvicted", err, ack)
	}
	snap := metrics.Snapshot()
	if snap["coord.evicted_rejections"] < 1 {
		t.Fatalf("coord.evicted_rejections = %v, want >= 1", snap["coord.evicted_rejections"])
	}
	if snap["coord.cells_done"] != 1 {
		t.Fatalf("coord.cells_done = %v after late duplicate, want exactly 1", snap["coord.cells_done"])
	}
}
