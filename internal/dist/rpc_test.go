package dist

import (
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"sage/internal/collector"
	"sage/internal/telemetry"
)

// TestIdempotentCellDoneReplay: the coordinator replays its original
// verdict for a retried (session, req) CellDone — the retry after a
// lost reply must see VerdictOK, not the VerdictDuplicate a
// re-execution would produce — while a genuinely new session gets the
// truthful duplicate verdict.
func TestIdempotentCellDoneReplay(t *testing.T) {
	dir := t.TempDir()
	campaign := &Campaign{Schemes: []string{"cubic"}, Level: "tiny", SetIDurSec: 3, SetIIDur: 5, Seed: 1}
	metrics := telemetry.NewRegistry()
	coord, addr := startCoordinator(t, CoordConfig{
		Campaign: campaign, ShardDir: filepath.Join(dir, "shards"), WALPath: filepath.Join(dir, "wal"),
		LeaseTTL: 10 * time.Second, Metrics: metrics,
	})
	defer coord.Shutdown()

	cli, err := dial(context.Background(), addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.close()
	if _, err := cli.roundTrip(&Message{Type: MsgHello, AgentID: "a", Role: "collect", Session: 42, Req: 1}); err != nil {
		t.Fatal(err)
	}

	// A retried RequestCell must not leak a second lease: same req →
	// same cell, next req → a different one.
	first, err := cli.roundTrip(&Message{Type: MsgRequestCell, AgentID: "a", Session: 42, Req: 2})
	if err != nil || first.Type != MsgAssign {
		t.Fatalf("assign: %v %+v", err, first)
	}
	retry, err := cli.roundTrip(&Message{Type: MsgRequestCell, AgentID: "a", Session: 42, Req: 2})
	if err != nil || retry.Type != MsgAssign || retry.Env != first.Env || retry.Scheme != first.Scheme {
		t.Fatalf("retried assign = %+v, want replay of %+v", retry, first)
	}
	second, err := cli.roundTrip(&Message{Type: MsgRequestCell, AgentID: "a", Session: 42, Req: 3})
	if err != nil || second.Type != MsgAssign || second.Env == first.Env {
		t.Fatalf("fresh request after replay: %v %+v", err, second)
	}

	scens, _ := campaign.Scenarios()
	sc := scens[0]
	for _, s := range scens {
		if s.Name == first.Env {
			sc = s
		}
	}
	tr, err := collector.CollectCell(context.Background(), first.Scheme, sc, collector.Options{GR: campaign.GR()})
	if err != nil {
		t.Fatal(err)
	}
	payload, sum, err := EncodeShard(&collector.Pool{GR: campaign.GR().Fill(), Trajs: []collector.Trajectory{tr}})
	if err != nil {
		t.Fatal(err)
	}
	done := &Message{Type: MsgCellDone, AgentID: "a", Session: 42, Req: 4, Scheme: first.Scheme, Env: first.Env, Shard: payload, Checksum: sum}
	ack, err := cli.roundTrip(done)
	if err != nil || ack.Verdict != VerdictOK {
		t.Fatalf("cell done: %v %+v", err, ack)
	}
	replay, err := cli.roundTrip(done)
	if err != nil || replay.Verdict != VerdictOK {
		t.Fatalf("retried cell done = %+v, want replayed VerdictOK", replay)
	}
	if replay.Req != 4 {
		t.Fatalf("replayed reply echoes req %d, want 4", replay.Req)
	}
	if got := metrics.Snapshot()["dist.dedup_hits"]; got < 2 {
		t.Fatalf("dist.dedup_hits = %v, want ≥ 2", got)
	}
	if done := coord.Tracker().DoneCells(); len(done) != 1 {
		t.Fatalf("done cells = %v, want exactly one", done)
	}

	// A restarted agent process (new session nonce, req counter reset)
	// must NOT hit the old session's cache: its duplicate completion is
	// reported truthfully.
	if _, err := cli.roundTrip(&Message{Type: MsgHello, AgentID: "a", Role: "collect", Session: 43, Req: 1}); err != nil {
		t.Fatal(err)
	}
	dup, err := cli.roundTrip(&Message{Type: MsgCellDone, AgentID: "a", Session: 43, Req: 4, Scheme: first.Scheme, Env: first.Env, Shard: payload, Checksum: sum})
	if err != nil || dup.Verdict != VerdictDuplicate {
		t.Fatalf("new-session duplicate = %+v, want VerdictDuplicate", dup)
	}
}

// TestRoundTripDiscardsStaleReplies: a duplicated reply frame left over
// from an earlier exchange must not be taken as the answer to the
// current request.
func TestRoundTripDiscardsStaleReplies(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	stale := 0
	cli := &client{conn: a, onStale: func() { stale++ }}
	go func() {
		req, err := readMsg(b)
		if err != nil {
			return
		}
		// A leftover duplicate of reply 6, then the real reply.
		writeMsg(b, &Message{Type: MsgHeartbeatAck, Verdict: VerdictEvicted, Req: 6})
		writeMsg(b, &Message{Type: MsgHeartbeatAck, Verdict: VerdictOK, Req: req.Req})
	}()
	resp, err := cli.roundTrip(&Message{Type: MsgHeartbeat, AgentID: "a", Session: 1, Req: 7})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Req != 7 || resp.Verdict != VerdictOK {
		t.Fatalf("accepted stale reply: %+v", resp)
	}
	if stale != 1 {
		t.Fatalf("stale count = %d, want 1", stale)
	}
}

// TestRoundTripDeadline: a stalled coordinator surfaces as a timeout
// error instead of blocking the caller forever.
func TestRoundTripDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cli := &client{conn: a, timeout: 50 * time.Millisecond}
	go readMsg(b) // swallow the request, never reply
	start := time.Now()
	_, err := cli.roundTrip(&Message{Type: MsgHeartbeat, AgentID: "a", Session: 1, Req: 1})
	if err == nil {
		t.Fatal("stalled server did not time the call out")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	nerr, ok := err.(net.Error)
	if !ok || !nerr.Timeout() {
		t.Fatalf("error %v is not a timeout", err)
	}
}

// TestReplyCacheBounded: the per-agent cache holds the most recent
// replyCacheSize entries and evicts the oldest.
func TestReplyCacheBounded(t *testing.T) {
	rc := newReplyCache()
	for i := 1; i <= replyCacheSize+5; i++ {
		req := &Message{Type: MsgHeartbeat, AgentID: "a", Session: 9, Req: uint64(i)}
		rc.store(req, &Message{Type: MsgHeartbeatAck, Req: uint64(i)})
	}
	if _, ok := rc.lookup(&Message{Type: MsgHeartbeat, AgentID: "a", Session: 9, Req: 1}); ok {
		t.Fatal("oldest entry survived past the bound")
	}
	got, ok := rc.lookup(&Message{Type: MsgHeartbeat, AgentID: "a", Session: 9, Req: replyCacheSize + 5})
	if !ok || got.Req != replyCacheSize+5 {
		t.Fatal("newest entry missing")
	}
	// Requests without IDs and Hello never cache.
	rc.store(&Message{Type: MsgHeartbeat, AgentID: "a", Session: 9}, &Message{})
	if _, ok := rc.lookup(&Message{Type: MsgHeartbeat, AgentID: "a", Session: 9}); ok {
		t.Fatal("legacy request cached")
	}
	rc.store(&Message{Type: MsgHello, AgentID: "a", Session: 9, Req: 99}, &Message{})
	if _, ok := rc.lookup(&Message{Type: MsgHello, AgentID: "a", Session: 9, Req: 99}); ok {
		t.Fatal("hello cached")
	}
}
