package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sage/internal/collector"
	"sage/internal/gr"
	"sage/internal/rl"
	"sage/internal/safeio"
	"sage/internal/telemetry"
	"sage/internal/wire"
)

// TrainConfig configures the coordinator's data-parallel training
// service.
type TrainConfig struct {
	// Learner is the master: it owns the optimizer moments and applies
	// every all-reduced step. Its Cfg.Workers must equal Workers.
	Learner *rl.CRR
	Workers int
	// StepsTotal is the absolute step index to stop at (the learner may
	// already be past zero when resumed from a checkpoint).
	StepsTotal int
	// Mask is the input mask workers must build their datasets with.
	Mask []int
	// OnStep receives every applied step's stats on the applying
	// handler's goroutine — the checkpoint/metrics hook.
	OnStep func(rl.TrainStats)
}

// CoordConfig configures a Coordinator. Campaign enables the collection
// service, Train the training service; either or both may be set.
type CoordConfig struct {
	Campaign *Campaign
	// ShardDir is where verified pool shards are persisted (collection).
	ShardDir string
	// LeaseTTL bounds how long a silent agent keeps its cells
	// (default 30s). Agents heartbeat at TTL/3.
	LeaseTTL time.Duration
	// Resume replays the WAL: a cell whose last record is done AND whose
	// shard file verifies is re-admitted, one whose last record is a grant
	// is re-adopted; anything else is re-collected.
	Resume bool
	// HedgeFactor enables straggler hedging: a cell leased for longer
	// than HedgeFactor × the fleet's p75 completion duration is
	// speculatively re-leased to an idle agent; the first checksummed
	// shard wins. 0 disables hedging.
	HedgeFactor float64
	// WALPath is the write-ahead log of lease grants, terminal cell
	// outcomes and training barrier epochs — the coordinator's one ledger,
	// required with a Campaign and optional for training. A restarted
	// coordinator (Resume) re-admits done cells and re-adopts in-flight
	// leases from it instead of waiting out their TTLs.
	WALPath string

	Train *TrainConfig

	Metrics  *telemetry.Registry
	Fleet    *telemetry.Fleet
	Progress *telemetry.Progress
	Logf     func(format string, args ...any)
}

// Coordinator serves the distributed control plane: cell leases and
// shard intake for collection agents, gradient all-reduce for training
// workers. One goroutine per connection decodes request frames
// sequentially, on the accept loop internal/serve's server also runs
// (wire.Conns).
type Coordinator struct {
	cfg     CoordConfig
	tracker *Tracker
	grCfg   gr.Config
	total   int
	resumed int
	train   *trainState
	replies *replyCache
	wal     *wal
	// lastEpoch is the last training step the WAL held when opened.
	lastEpoch int

	conns wire.Conns

	doneOnce sync.Once
	doneCh   chan struct{}
}

// NewCoordinator validates the configuration, rebuilds resume state from
// the WAL and shard directory, and returns a coordinator ready to Serve.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.Campaign == nil && cfg.Train == nil {
		return nil, errors.New("dist: coordinator needs a campaign, a training config, or both")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Coordinator{
		cfg:     cfg,
		doneCh:  make(chan struct{}),
		replies: newReplyCache(),
	}
	if cfg.Campaign != nil {
		if err := cfg.Campaign.Validate(); err != nil {
			return nil, err
		}
		if cfg.ShardDir == "" || cfg.WALPath == "" {
			return nil, errors.New("dist: collection coordinator needs ShardDir and WALPath")
		}
		if err := os.MkdirAll(cfg.ShardDir, 0o755); err != nil {
			return nil, fmt.Errorf("dist: shard dir: %w", err)
		}
		cells, err := cfg.Campaign.Cells()
		if err != nil {
			return nil, err
		}
		c.total = len(cells)
		c.grCfg = cfg.Campaign.GR().Fill()
		c.tracker = NewTracker(cells, cfg.LeaseTTL)
		c.tracker.SetHedge(cfg.HedgeFactor)
	}
	if cfg.WALPath != "" {
		if !cfg.Resume {
			os.Remove(cfg.WALPath)
		}
		w, recs, err := openWAL(cfg.WALPath, cfg.Metrics, cfg.Logf)
		if err != nil {
			return nil, fmt.Errorf("dist: wal: %w", err)
		}
		c.wal = w
		c.replayWAL(recs)
	}
	if cfg.Train != nil {
		// The coordinator wraps the caller's OnStep (on a copy of the
		// config) to commit each applied step to the WAL before the
		// checkpoint hook sees it.
		tc := *cfg.Train
		userOnStep := tc.OnStep
		tc.OnStep = func(st rl.TrainStats) {
			c.wal.append(walRecord{T: "epoch", Step: st.Step})
			if userOnStep != nil {
				userOnStep(st)
			}
		}
		c.cfg.Train = &tc
		ts, err := newTrainState(&tc, c.checkDone)
		if err != nil {
			return nil, err
		}
		c.train = ts
	}
	c.checkDone()
	return c, nil
}

// replayWAL rebuilds the campaign from the recovered log by folding each
// cell's last record. A done cell is finished only when a verified shard
// agrees — the log alone could claim a cell whose shard never reached disk
// (the shard is written first, but trust nothing). A cell whose last
// record is a grant is re-adopted — leased back to its agent with a fresh
// TTL, so a live agent's in-flight work lands without re-collection while
// a dead agent's lease simply expires. A failed cell stays pending, so a
// resumed campaign retries it. Epoch records recover the last committed
// training step.
func (c *Coordinator) replayWAL(recs []walRecord) {
	if len(recs) == 0 {
		return
	}
	last := map[collector.CellKey]walRecord{}
	for _, rec := range recs {
		switch rec.T {
		case "grant", "done", "fail":
			last[rec.cell()] = rec
		case "epoch":
			c.lastEpoch = max(c.lastEpoch, rec.Step)
		}
	}
	c.cfg.Metrics.Counter("dist.wal_replayed").Add(int64(len(recs)))
	if c.tracker != nil {
		for cell, rec := range last {
			switch {
			case rec.T == "done" && c.shardHasCell(cell):
				c.tracker.MarkDone(cell)
				c.resumed++
			case rec.T == "grant":
				c.tracker.Readopt(cell, rec.Agent)
				c.cfg.Logf("coord: wal: re-adopted lease %s/%s → %s", cell.Scheme, cell.Env, rec.Agent)
			}
		}
	}
	if c.lastEpoch > 0 {
		c.cfg.Logf("coord: wal: last committed training step %d", c.lastEpoch)
	}
}

// LastEpoch reports the last training step the WAL recorded when the
// coordinator opened it (0 for a fresh log); steps applied since are the
// learner's to report.
func (c *Coordinator) LastEpoch() int { return c.lastEpoch }

// Resumed reports how many cells were re-admitted from a previous
// coordinator's WAL and shards.
func (c *Coordinator) Resumed() int { return c.resumed }

// TotalCells reports the campaign's cell count.
func (c *Coordinator) TotalCells() int { return c.total }

// Tracker exposes the lease table (status reporting, tests).
func (c *Coordinator) Tracker() *Tracker { return c.tracker }

func (c *Coordinator) shardPath(cell collector.CellKey) string {
	return filepath.Join(c.cfg.ShardDir, ShardName(cell))
}

// shardHasCell verifies that the shard file for cell exists, passes
// checksum verification, and actually contains that cell.
func (c *Coordinator) shardHasCell(cell collector.CellKey) bool {
	p, err := collector.Load(c.shardPath(cell))
	return err == nil && p.Cells()[cell]
}

// checkDone closes the completion channel once every configured service
// has finished.
func (c *Coordinator) checkDone() {
	if c.tracker != nil && !c.tracker.Done() {
		return
	}
	if c.train != nil && !c.train.finished() {
		return
	}
	c.doneOnce.Do(func() { close(c.doneCh) })
}

// Wait blocks until the campaign (and/or training run) completes or ctx
// is cancelled.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Serve accepts connections on ln until Shutdown. Always returns a
// non-nil error; after Shutdown it is net.ErrClosed.
func (c *Coordinator) Serve(ln net.Listener) error {
	return c.conns.Serve(ln, 0, nil, c.handle)
}

// DrainAgents keeps serving until every agent connection has closed and
// every registered collection agent that is not evicted has said Bye since
// its latest Hello, or until the grace period expires. Agents hang up on
// their own once told the campaign (or training run) is done; draining
// before Shutdown lets them observe that verdict instead of a vanished
// coordinator, so supervised agents exit 0 rather than churning through
// redials. No open connection alone is not enough: an agent whose
// connection dropped just as the campaign finished is between redials. Nor
// is having sent MsgCampaignDone: a partition can swallow the reply, and
// an agent with several runners hangs up only when each has heard it.
func (c *Coordinator) DrainAgents(grace time.Duration) {
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		if n, _ := c.conns.Len(); n == 0 && (c.tracker == nil || c.tracker.Lingering() == 0) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Shutdown stops accepting, closes every connection, wakes blocked
// training handlers, waits for handlers to exit, and closes the WAL. The
// WAL and shard files stay on disk — a future coordinator resumes from
// them.
func (c *Coordinator) Shutdown() {
	if !c.conns.Close() {
		c.conns.Wait()
		return
	}
	if c.train != nil {
		c.train.abort()
	}
	c.conns.Each(func(conn net.Conn) { conn.Close() })
	c.conns.Wait()
	c.wal.close()
}

// handle serves one agent connection until EOF, error, or Shutdown.
func (c *Coordinator) handle(conn net.Conn) {
	agentID := ""
	defer func() {
		// A vanished connection releases its leases immediately (faster
		// than TTL expiry) without eviction: the agent may simply redial.
		if agentID != "" && c.tracker != nil {
			c.tracker.Release(agentID)
		}
	}()
	for {
		req, err := readMsg(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				c.cfg.Logf("coord: %s: read: %v", agentID, err)
			}
			return
		}
		if req.Type == MsgHello {
			agentID = req.AgentID
		}
		resp := c.replyFor(req)
		if err := writeMsg(conn, resp); err != nil {
			return
		}
	}
}

func errMsg(format string, args ...any) *Message {
	return &Message{Type: MsgError, Err: fmt.Sprintf(format, args...)}
}

// replyFor serves req from the dedup cache when this exact (agent,
// session, req) was already executed — the idempotency half of
// at-least-once RPC — and dispatches it otherwise. Every reply echoes
// the request ID so clients can discard stale replies from duplicated
// frames.
func (c *Coordinator) replyFor(req *Message) *Message {
	if cached, ok := c.replies.lookup(req); ok {
		c.cfg.Metrics.Counter("dist.dedup_hits").Inc()
		return cached
	}
	resp := c.dispatch(req)
	resp.Req = req.Req
	c.replies.store(req, resp)
	return resp
}

func (c *Coordinator) dispatch(req *Message) *Message {
	switch req.Type {
	case MsgHello:
		return c.handleHello(req)
	case MsgRequestCell:
		return c.handleRequestCell(req)
	case MsgHeartbeat:
		return c.handleHeartbeat(req)
	case MsgCellDone:
		return c.handleCellDone(req)
	case MsgCellFailed:
		return c.handleCellFailed(req)
	case MsgBye:
		return c.handleBye(req)
	case MsgGrads:
		return c.handleGrads(req)
	default:
		return errMsg("unknown message type %d", req.Type)
	}
}

func (c *Coordinator) handleHello(req *Message) *Message {
	if req.AgentID == "" {
		return errMsg("hello without agent id")
	}
	switch req.Role {
	case "collect":
		if c.tracker == nil {
			return errMsg("no collection campaign configured")
		}
		c.tracker.Register(req.AgentID)
		c.cfg.Metrics.Counter("coord.hellos").Inc()
		c.cfg.Logf("coord: agent %s joined", req.AgentID)
		return &Message{Type: MsgWelcome, Campaign: c.cfg.Campaign, LeaseTTL: c.cfg.LeaseTTL}
	case "train":
		if c.train == nil {
			return errMsg("no training run configured")
		}
		return c.train.welcome(req)
	default:
		return errMsg("unknown role %q", req.Role)
	}
}

func (c *Coordinator) handleRequestCell(req *Message) *Message {
	if c.tracker == nil {
		return errMsg("no collection campaign configured")
	}
	if c.tracker.Evicted(req.AgentID) {
		c.cfg.Metrics.Counter("coord.evicted_rejections").Inc()
		return &Message{Type: MsgWait, Verdict: VerdictEvicted}
	}
	cell, res := c.tracker.Acquire(req.AgentID)
	switch res {
	case AcquireGranted:
		c.cfg.Metrics.Counter("coord.leases_granted").Inc()
		c.wal.appendCell("grant", req.AgentID, cell, "")
		return &Message{Type: MsgAssign, Scheme: cell.Scheme, Env: cell.Env, Verdict: VerdictOK}
	case AcquireHedged:
		c.cfg.Metrics.Counter("dist.hedges").Inc()
		c.wal.appendCell("grant", req.AgentID, cell, "")
		c.cfg.Logf("coord: hedging straggler cell %s/%s to idle agent %s", cell.Scheme, cell.Env, req.AgentID)
		return &Message{Type: MsgAssign, Scheme: cell.Scheme, Env: cell.Env, Verdict: VerdictOK}
	case AcquireWait:
		backoff := c.cfg.LeaseTTL / 4
		if backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
		return &Message{Type: MsgWait, Verdict: VerdictOK, Backoff: backoff}
	default:
		c.checkDone()
		return &Message{Type: MsgCampaignDone, Verdict: VerdictOK}
	}
}

func (c *Coordinator) handleHeartbeat(req *Message) *Message {
	if c.tracker == nil {
		return errMsg("no collection campaign configured")
	}
	c.cfg.Fleet.Update(req.AgentID, req.Metrics)
	if c.tracker.Evicted(req.AgentID) {
		c.cfg.Metrics.Counter("coord.evicted_rejections").Inc()
		return &Message{Type: MsgHeartbeatAck, Verdict: VerdictEvicted}
	}
	c.tracker.Renew(req.AgentID)
	c.cfg.Metrics.Counter("coord.heartbeats").Inc()
	return &Message{Type: MsgHeartbeatAck, Verdict: VerdictOK}
}

func (c *Coordinator) handleCellDone(req *Message) *Message {
	if c.tracker == nil {
		return errMsg("no collection campaign configured")
	}
	if c.tracker.Evicted(req.AgentID) {
		c.cfg.Metrics.Counter("coord.evicted_rejections").Inc()
		return &Message{Type: MsgCellAck, Verdict: VerdictEvicted}
	}
	cell := collector.CellKey{Scheme: req.Scheme, Env: req.Env}
	if ChecksumShard(req.Shard) != req.Checksum {
		c.cfg.Metrics.Counter("coord.shard_checksum_mismatches").Inc()
		c.cfg.Logf("coord: shard %s/%s failed wire checksum; asking %s to resend", cell.Scheme, cell.Env, req.AgentID)
		return &Message{Type: MsgCellAck, Verdict: VerdictRetry}
	}
	// The shard must decode and actually contain the cell it claims —
	// a confused agent must not poison the campaign's shard store.
	if err := verifyShardPayload(req.Shard, cell, c.grCfg); err != nil {
		return errMsg("shard %s/%s rejected: %v", cell.Scheme, cell.Env, err)
	}
	// Durability order: shard bytes reach disk (atomically, checksummed)
	// before the cell can be declared done anywhere.
	path := c.shardPath(cell)
	err := safeio.WriteFile(path, func(w io.Writer) error {
		_, werr := w.Write(req.Shard)
		return werr
	})
	if err != nil {
		c.cfg.Logf("coord: persist shard %s: %v", path, err)
		return &Message{Type: MsgCellAck, Verdict: VerdictRetry}
	}
	verdict, hedgeWin := c.tracker.Complete(req.AgentID, cell)
	if verdict == VerdictOK {
		c.wal.appendCell("done", req.AgentID, cell, "")
		c.cfg.Metrics.Counter("coord.cells_done").Inc()
		c.cfg.Metrics.Counter("coord.shard_bytes").Add(int64(len(req.Shard)))
		if hedgeWin {
			c.cfg.Metrics.Counter("dist.hedge_wins").Inc()
			c.cfg.Logf("coord: hedge won cell %s/%s (agent %s beat the straggler)", cell.Scheme, cell.Env, req.AgentID)
		}
		c.cfg.Progress.Add(1)
		c.checkDone()
	} else {
		c.cfg.Metrics.Counter("coord.duplicate_completions").Inc()
	}
	return &Message{Type: MsgCellAck, Verdict: verdict}
}

func (c *Coordinator) handleCellFailed(req *Message) *Message {
	if c.tracker == nil {
		return errMsg("no collection campaign configured")
	}
	if c.tracker.Evicted(req.AgentID) {
		c.cfg.Metrics.Counter("coord.evicted_rejections").Inc()
		return &Message{Type: MsgCellAck, Verdict: VerdictEvicted}
	}
	cell := collector.CellKey{Scheme: req.Scheme, Env: req.Env}
	verdict := c.tracker.Fail(req.AgentID, cell, req.Err)
	if verdict == VerdictOK {
		c.wal.appendCell("fail", req.AgentID, cell, req.Err)
		c.cfg.Metrics.Counter("coord.cells_failed").Inc()
		c.cfg.Progress.Add(1)
		c.cfg.Logf("coord: cell %s/%s failed permanently: %s", cell.Scheme, cell.Env, req.Err)
		c.checkDone()
	}
	return &Message{Type: MsgCellAck, Verdict: verdict}
}

func (c *Coordinator) handleBye(req *Message) *Message {
	if c.tracker == nil {
		return errMsg("no collection campaign configured")
	}
	c.tracker.Bye(req.AgentID)
	return &Message{Type: MsgCampaignDone, Verdict: VerdictOK}
}

func (c *Coordinator) handleGrads(req *Message) *Message {
	if c.train == nil {
		return errMsg("no training run configured")
	}
	if req.GradShard == nil {
		return errMsg("grads message without a shard")
	}
	return c.train.submit(req.AgentID, req.GradShard)
}

// verifyShardPayload decodes a shard payload and checks it carries
// exactly the claimed cell under the campaign's GR config.
func verifyShardPayload(payload []byte, cell collector.CellKey, want gr.Config) error {
	p, err := decodeShard(payload)
	if err != nil {
		return err
	}
	if got := p.GR.Fill(); got != want {
		return fmt.Errorf("GR config %+v differs from campaign %+v", got, want)
	}
	if len(p.Trajs) != 1 && len(p.Failed) == 0 {
		return fmt.Errorf("shard has %d trajectories, want 1", len(p.Trajs))
	}
	if !p.Cells()[cell] {
		return fmt.Errorf("shard does not contain cell %s/%s", cell.Scheme, cell.Env)
	}
	return nil
}

// MergedPool streams the completed cells' shard files into the final
// deduplicated pool, appends the campaign's permanent failures, and
// sorts canonically — byte-identical to a single-process run over the
// same campaign once saved.
func (c *Coordinator) MergedPool() (*collector.Pool, error) {
	if c.tracker == nil {
		return nil, errors.New("dist: no collection campaign configured")
	}
	cells := c.tracker.DoneCells()
	paths := make([]string, len(cells))
	for i, cell := range cells {
		paths[i] = c.shardPath(cell)
	}
	pool, err := collector.MergeShardFiles(paths...)
	if err != nil {
		return nil, err
	}
	if len(pool.Trajs) == 0 {
		pool.GR = c.grCfg
	}
	pool.Failed = append(pool.Failed, c.tracker.Failures()...)
	pool.SortByCell()
	return pool, nil
}

// CleanupResumeState removes the WAL and shard files after the final pool
// is safely saved. Call it after Shutdown, which closes the WAL.
func (c *Coordinator) CleanupResumeState() {
	if c.cfg.WALPath != "" {
		os.Remove(c.cfg.WALPath)
	}
	if c.cfg.ShardDir != "" {
		os.RemoveAll(c.cfg.ShardDir)
	}
}
