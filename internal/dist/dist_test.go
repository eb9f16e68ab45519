package dist

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sage/internal/collector"
	"sage/internal/telemetry"
)

func testCampaign() *Campaign {
	return &Campaign{
		Schemes:    []string{"cubic", "vegas"},
		Level:      "tiny",
		SetIDurSec: 3,
		SetIIDur:   5,
		Seed:       1,
	}
}

// refPool computes the single-process reference pool for testCampaign
// once and returns its canonical saved bytes.
var refOnce struct {
	sync.Once
	bytes []byte
	err   error
}

func referencePoolBytes(t *testing.T) []byte {
	t.Helper()
	refOnce.Do(func() {
		c := testCampaign()
		scens, err := c.Scenarios()
		if err != nil {
			refOnce.err = err
			return
		}
		pool, err := collector.Collect(context.Background(), c.Schemes, scens, collector.Options{GR: c.GR(), Parallel: 4})
		if err != nil {
			refOnce.err = err
			return
		}
		pool.SortByCell()
		path := filepath.Join(os.TempDir(), "dist-ref-pool.gob.gz")
		defer os.Remove(path)
		if err := pool.Save(path); err != nil {
			refOnce.err = err
			return
		}
		refOnce.bytes, refOnce.err = os.ReadFile(path)
	})
	if refOnce.err != nil {
		t.Fatal(refOnce.err)
	}
	return refOnce.bytes
}

func startCoordinator(t *testing.T, cfg CoordConfig) (*Coordinator, string) {
	t.Helper()
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(ln)
	return coord, ln.Addr().String()
}

func savedBytes(t *testing.T, pool *collector.Pool) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pool.gob.gz")
	if err := pool.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestShardedCampaignByteIdenticalToSingleProcess is the tentpole
// guarantee: two agents splitting a campaign produce, after merge, the
// exact bytes a single-process run saves.
func TestShardedCampaignByteIdenticalToSingleProcess(t *testing.T) {
	dir := t.TempDir()
	coord, addr := startCoordinator(t, CoordConfig{
		Campaign: testCampaign(),
		ShardDir: filepath.Join(dir, "shards"),
		WALPath:  filepath.Join(dir, "wal"),
		LeaseTTL: 10 * time.Second,
	})
	defer coord.Shutdown()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	agentErrs := make(chan error, 2)
	for _, id := range []string{"agent-1", "agent-2"} {
		go func(id string) {
			agentErrs <- RunAgent(ctx, AgentConfig{Coordinator: addr, ID: id, Parallel: 2, Metrics: telemetry.NewRegistry()})
		}(id)
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-agentErrs; err != nil {
			t.Fatalf("agent: %v", err)
		}
	}
	merged, err := coord.MergedPool()
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Failed) != 0 {
		t.Fatalf("failed cells: %v", merged.Failed)
	}
	if !bytes.Equal(savedBytes(t, merged), referencePoolBytes(t)) {
		t.Fatal("sharded campaign pool differs from single-process bytes")
	}
}

// TestCoordinatorRestartMidCampaign: a coordinator killed mid-campaign
// leaves its WAL and shards; a successor with -resume re-admits the
// verified cells and the completed campaign is still byte-identical. Once
// the pool is merged and the successor shut down, CleanupResumeState
// leaves the state dir empty.
func TestCoordinatorRestartMidCampaign(t *testing.T) {
	dir := t.TempDir()
	shardDir := filepath.Join(dir, "shards")
	wal := filepath.Join(dir, "wal")
	campaign := testCampaign()
	cells, err := campaign.Cells()
	if err != nil {
		t.Fatal(err)
	}
	scens, err := campaign.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i, sc := range scens {
		byName[sc.Name] = i
	}

	// Phase 1: a raw protocol client completes three cells, then the
	// coordinator dies without merging.
	coord1, addr := startCoordinator(t, CoordConfig{
		Campaign: campaign, ShardDir: shardDir, WALPath: wal, LeaseTTL: 10 * time.Second,
	})
	cli, err := dial(context.Background(), addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.roundTrip(&Message{Type: MsgHello, AgentID: "pre", Role: "collect"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		resp, err := cli.roundTrip(&Message{Type: MsgRequestCell, AgentID: "pre"})
		if err != nil || resp.Type != MsgAssign {
			t.Fatalf("assign %d: %v %+v", i, err, resp)
		}
		sc := scens[byName[resp.Env]]
		tr, err := collector.CollectCell(context.Background(), resp.Scheme, sc, collector.Options{GR: campaign.GR()})
		if err != nil {
			t.Fatal(err)
		}
		payload, sum, err := EncodeShard(&collector.Pool{GR: campaign.GR().Fill(), Trajs: []collector.Trajectory{tr}})
		if err != nil {
			t.Fatal(err)
		}
		ack, err := cli.roundTrip(&Message{Type: MsgCellDone, AgentID: "pre", Scheme: resp.Scheme, Env: resp.Env, Shard: payload, Checksum: sum})
		if err != nil || ack.Verdict != VerdictOK {
			t.Fatalf("cell done: %v %+v", err, ack)
		}
	}
	cli.close()
	coord1.Shutdown()

	// Phase 2: the successor resumes and two agents finish the campaign.
	coord2, addr2 := startCoordinator(t, CoordConfig{
		Campaign: campaign, ShardDir: shardDir, WALPath: wal,
		LeaseTTL: 10 * time.Second, Resume: true,
	})
	defer coord2.Shutdown()
	if coord2.Resumed() != 3 {
		t.Fatalf("resumed %d cells, want 3", coord2.Resumed())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	agentErrs := make(chan error, 2)
	for _, id := range []string{"agent-1", "agent-2"} {
		go func(id string) {
			agentErrs <- RunAgent(ctx, AgentConfig{Coordinator: addr2, ID: id, Parallel: 2})
		}(id)
	}
	if err := coord2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-agentErrs; err != nil {
			t.Fatalf("agent: %v", err)
		}
	}
	merged, err := coord2.MergedPool()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(savedBytes(t, merged), referencePoolBytes(t)) {
		t.Fatal("resumed campaign pool differs from single-process bytes")
	}
	if len(cells) != len(merged.Trajs) {
		t.Fatalf("trajs = %d, want %d", len(merged.Trajs), len(cells))
	}

	coord2.Shutdown()
	for _, p := range []string{wal, shardDir} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("resume state before cleanup: %v", err)
		}
	}
	coord2.CleanupResumeState()
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("state dir after CleanupResumeState holds %v (%v), want nothing", left, err)
	}
}

// TestEvictionAndDuplicateCompletion drives the revived-agent story at
// the protocol level: a stalled agent's lease expires, the cell is
// reassigned and completed elsewhere, and the zombie's late messages get
// evicted/duplicate verdicts while the pool keeps exactly one copy.
func TestEvictionAndDuplicateCompletion(t *testing.T) {
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
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	zombie, err := dial(context.Background(), addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer zombie.close()
	if _, err := zombie.roundTrip(&Message{Type: MsgHello, AgentID: "zombie", Role: "collect"}); err != nil {
		t.Fatal(err)
	}
	assign, err := zombie.roundTrip(&Message{Type: MsgRequestCell, AgentID: "zombie"})
	if err != nil || assign.Type != MsgAssign {
		t.Fatalf("assign: %v %+v", err, assign)
	}

	// The zombie goes silent past the TTL; a healthy agent gets the cell.
	advance(25 * time.Second)
	healthy, err := dial(context.Background(), addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.close()
	if _, err := healthy.roundTrip(&Message{Type: MsgHello, AgentID: "healthy", Role: "collect"}); err != nil {
		t.Fatal(err)
	}
	reassign, err := healthy.roundTrip(&Message{Type: MsgRequestCell, AgentID: "healthy"})
	if err != nil || reassign.Type != MsgAssign || reassign.Env != assign.Env {
		t.Fatalf("reassign: %v %+v (want cell %s)", err, reassign, assign.Env)
	}

	scens, _ := campaign.Scenarios()
	var sc = scens[0]
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

	// A corrupted shard (checksum mismatch) is asked to resend, not
	// persisted.
	bad := append([]byte(nil), payload...)
	bad[len(bad)/2] ^= 0x01
	ack, err := healthy.roundTrip(&Message{Type: MsgCellDone, AgentID: "healthy", Scheme: assign.Scheme, Env: assign.Env, Shard: bad, Checksum: sum})
	if err != nil || ack.Verdict != VerdictRetry {
		t.Fatalf("corrupt shard verdict: %v %+v", err, ack)
	}

	ack, err = healthy.roundTrip(&Message{Type: MsgCellDone, AgentID: "healthy", Scheme: assign.Scheme, Env: assign.Env, Shard: payload, Checksum: sum})
	if err != nil || ack.Verdict != VerdictOK {
		t.Fatalf("healthy completion: %v %+v", err, ack)
	}

	// The zombie wakes up: heartbeat and late completion both tell it the
	// session is dead.
	hb, err := zombie.roundTrip(&Message{Type: MsgHeartbeat, AgentID: "zombie"})
	if err != nil || hb.Verdict != VerdictEvicted {
		t.Fatalf("zombie heartbeat: %v %+v", err, hb)
	}
	late, err := zombie.roundTrip(&Message{Type: MsgCellDone, AgentID: "zombie", Scheme: assign.Scheme, Env: assign.Env, Shard: payload, Checksum: sum})
	if err != nil || late.Verdict != VerdictEvicted {
		t.Fatalf("zombie late completion: %v %+v", err, late)
	}

	// A fresh Hello revives the identity; its duplicate result is then
	// reported as duplicate, and the pool still has exactly one copy.
	if _, err := zombie.roundTrip(&Message{Type: MsgHello, AgentID: "zombie", Role: "collect"}); err != nil {
		t.Fatal(err)
	}
	dup, err := zombie.roundTrip(&Message{Type: MsgCellDone, AgentID: "zombie", Scheme: assign.Scheme, Env: assign.Env, Shard: payload, Checksum: sum})
	if err != nil || dup.Verdict != VerdictDuplicate {
		t.Fatalf("revived duplicate completion: %v %+v", err, dup)
	}
	if done := coord.Tracker().DoneCells(); len(done) != 1 {
		t.Fatalf("done cells = %v", done)
	}
}

func TestCampaignValidate(t *testing.T) {
	good := testCampaign()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Campaign{
		{Schemes: nil, Level: "tiny", SetIDurSec: 1, SetIIDur: 1},
		{Schemes: []string{"nope"}, Level: "tiny", SetIDurSec: 1, SetIIDur: 1},
		{Schemes: []string{"cubic"}, Level: "huge", SetIDurSec: 1, SetIIDur: 1},
		{Schemes: []string{"cubic"}, Level: "tiny", SetIDurSec: 0, SetIIDur: 1},
		{Schemes: []string{"cubic"}, Level: "tiny", SetIDurSec: 1, SetIIDur: 1, Window: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad campaign %d validated", i)
		}
	}
	cells, err := good.Cells()
	if err != nil {
		t.Fatal(err)
	}
	scens, _ := good.Scenarios()
	if len(cells) != len(good.Schemes)*len(scens) {
		t.Fatalf("cells = %d, want %d", len(cells), len(good.Schemes)*len(scens))
	}
	// Scheme-major order, like collector.Collect dispatch.
	if cells[0].Scheme != "cubic" || cells[len(scens)].Scheme != "vegas" {
		t.Fatalf("cell order: %v ... %v", cells[0], cells[len(scens)])
	}
}

func TestShardEncodeVerify(t *testing.T) {
	campaign := testCampaign()
	scens, _ := campaign.Scenarios()
	tr, err := collector.CollectCell(context.Background(), "cubic", scens[0], collector.Options{GR: campaign.GR()})
	if err != nil {
		t.Fatal(err)
	}
	grCfg := campaign.GR().Fill()
	payload, sum, err := EncodeShard(&collector.Pool{GR: grCfg, Trajs: []collector.Trajectory{tr}})
	if err != nil {
		t.Fatal(err)
	}
	if ChecksumShard(payload) != sum {
		t.Fatal("checksum disagrees with EncodeShard")
	}
	cell := collector.CellKey{Scheme: "cubic", Env: scens[0].Name}
	if err := verifyShardPayload(payload, cell, grCfg); err != nil {
		t.Fatal(err)
	}
	// Wrong cell claimed → rejected.
	if err := verifyShardPayload(payload, collector.CellKey{Scheme: "vegas", Env: scens[0].Name}, grCfg); err == nil {
		t.Fatal("shard for the wrong cell accepted")
	}
	// Same shard name for the same cell, different for others.
	if ShardName(cell) != ShardName(cell) {
		t.Fatal("shard name unstable")
	}
	if ShardName(cell) == ShardName(collector.CellKey{Scheme: "vegas", Env: scens[0].Name}) {
		t.Fatal("shard name collision")
	}
}
