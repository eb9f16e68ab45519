package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sage/internal/collector"
	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/rl"
	"sage/internal/telemetry"
)

// ErrRevoked is returned by RunAgent when the coordinator has evicted
// this agent's session (its leases expired un-renewed — the agent
// stalled or was partitioned past the TTL). The work was reassigned; the
// right response is to exit with a distinct status so a supervisor can
// relaunch a fresh session.
var ErrRevoked = errors.New("dist: session evicted by coordinator (leases expired)")

// sessionConfig bundles the transport-reliability knobs shared by
// collection agents and training workers.
type sessionConfig struct {
	attempts int           // dial/retry budget (default 10)
	backoff  time.Duration // base backoff between retries (default 500ms)
	timeout  time.Duration // per-RPC deadline; 0 disables
	metrics  *telemetry.Registry
	logf     func(string, ...any)
}

// session is one logical agent↔coordinator connection that survives
// transport failures: every call carries a (session nonce, request ID)
// pair, and a call that hits a broken connection redials, replays its
// Hello, and retries the request under capped exponential backoff with
// jitter — with the same request ID, so the coordinator's reply cache
// makes the retry idempotent. Safe for concurrent use (work loop +
// heartbeat goroutine).
type session struct {
	spec   string
	hello  *Message
	cfg    sessionConfig
	nonce  uint64
	reqSeq atomic.Uint64

	mu      sync.Mutex
	cli     *client
	welcome *Message
	gen     int
}

// connect dials the coordinator and performs the Hello handshake.
func connect(ctx context.Context, spec string, hello *Message, cfg sessionConfig) (*session, error) {
	if cfg.attempts <= 0 {
		cfg.attempts = 10
	}
	if cfg.backoff <= 0 {
		cfg.backoff = 500 * time.Millisecond
	}
	if cfg.logf == nil {
		cfg.logf = func(string, ...any) {}
	}
	s := &session{spec: spec, hello: hello, cfg: cfg, nonce: uint64(time.Now().UnixNano())}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.reconnectLocked(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// retryDelay is capped exponential backoff with full jitter: the
// attempt'th delay is uniform in (0, min(base<<attempt, cap)]. Jitter
// decorrelates a fleet of agents retrying into the same recovering
// coordinator.
func retryDelay(base time.Duration, attempt int) time.Duration {
	const ceiling = 10 * time.Second
	d := base << uint(min(attempt, 20))
	if d <= 0 || d > ceiling {
		d = ceiling
	}
	return time.Duration(rand.Int63n(int64(d))) + time.Millisecond
}

// reconnectLocked (re)establishes the connection and replays Hello.
// Callers hold s.mu or own s exclusively.
func (s *session) reconnectLocked(ctx context.Context) error {
	var lastErr error
	for i := 0; i < s.cfg.attempts; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if i > 0 {
			select {
			case <-time.After(retryDelay(s.cfg.backoff, i-1)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		cli, err := dial(ctx, s.spec, s.cfg.timeout)
		if err != nil {
			lastErr = err
			s.logf("dist: dial %s: %v (attempt %d/%d)", s.spec, err, i+1, s.cfg.attempts)
			continue
		}
		cli.onStale = func() { s.cfg.metrics.Counter("dist.stale_replies").Inc() }
		// Hello is never served from the reply cache (it resets the
		// session), but it still carries a fresh request ID so a
		// duplicated welcome frame cannot be mistaken for the reply to a
		// later request on the new connection.
		s.hello.Session = s.nonce
		s.hello.Req = s.reqSeq.Add(1)
		welcome, err := cli.roundTrip(s.hello)
		if err != nil {
			cli.close()
			// A coordinator-level rejection of Hello is permanent
			// (wrong role, bad index); retrying cannot help.
			if welcome != nil {
				return err
			}
			lastErr = err
			s.logf("dist: hello %s: %v (attempt %d/%d)", s.spec, err, i+1, s.cfg.attempts)
			continue
		}
		if welcome.Type != MsgWelcome {
			cli.close()
			return fmt.Errorf("dist: expected welcome, got message type %d", welcome.Type)
		}
		s.cli = cli
		s.welcome = welcome
		s.gen++
		if i > 0 || s.gen > 1 {
			s.cfg.metrics.Counter("dist.reconnects").Inc()
		}
		return nil
	}
	return fmt.Errorf("dist: coordinator %s unreachable after %d attempts: %w", s.spec, s.cfg.attempts, lastErr)
}

func (s *session) logf(format string, args ...any) { s.cfg.logf(format, args...) }

// lastWelcome returns the most recent Hello response and the connection
// generation it came from.
func (s *session) lastWelcome() (*Message, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.welcome, s.gen
}

// call round-trips one request, stamping it with this session's nonce
// and the next request ID. On transport errors it reconnects (replaying
// Hello) and retries the request with the SAME ID under capped
// exponential backoff with jitter: if the original executed and only
// the reply was lost, the coordinator's reply cache returns the
// original verdict instead of executing twice. Coordinator MsgError
// replies are returned as errors with resp non-nil and are never
// retried.
func (s *session) call(ctx context.Context, req *Message) (*Message, error) {
	req.Session = s.nonce
	req.Req = s.reqSeq.Add(1)
	var lastErr error
	for attempt := 0; attempt < s.cfg.attempts; attempt++ {
		if attempt > 0 {
			s.cfg.metrics.Counter("dist.retries").Inc()
			select {
			case <-time.After(retryDelay(s.cfg.backoff, attempt-1)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		s.mu.Lock()
		cli, gen := s.cli, s.gen
		s.mu.Unlock()
		resp, err := cli.roundTrip(req)
		if err == nil || resp != nil {
			return resp, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
		s.logf("dist: connection to %s lost (%v); reconnecting", s.spec, err)
		s.mu.Lock()
		if s.gen == gen {
			s.cli.close()
			if rerr := s.reconnectLocked(ctx); rerr != nil {
				s.mu.Unlock()
				return nil, rerr
			}
		}
		s.mu.Unlock()
	}
	return nil, fmt.Errorf("dist: request type %d to %s failed after %d attempts: %w", req.Type, s.spec, s.cfg.attempts, lastErr)
}

// notify sends req once on the current connection and ignores the
// outcome: for a message whose loss costs the coordinator only time.
func (s *session) notify(req *Message) {
	req.Session = s.nonce
	req.Req = s.reqSeq.Add(1)
	s.mu.Lock()
	cli := s.cli
	s.mu.Unlock()
	cli.roundTrip(req)
}

func (s *session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cli != nil {
		s.cli.close()
	}
}

// AgentConfig configures a collection agent (RunAgent).
type AgentConfig struct {
	Coordinator string // address spec: host:port or unix:/path
	ID          string // stable identity; leases and eviction key on it
	// Parallel is how many cells run concurrently (default 1). All
	// parallel runners share one connection and one lease session.
	Parallel int
	// RedialAttempts/RedialBackoff govern connect, reconnect and RPC
	// retries (defaults 10 attempts, 500ms base for the capped
	// exponential backoff).
	RedialAttempts int
	RedialBackoff  time.Duration
	// RPCTimeout is the per-RPC deadline (default 10s, which is well
	// under the default lease TTL so a single stalled exchange turns
	// into a retry before the coordinator gives the work away; negative
	// disables deadlines).
	RPCTimeout time.Duration
	// Metrics, when non-nil, is snapshotted into every heartbeat — the
	// coordinator's Fleet view aggregates them across agents — and
	// counts this agent's dist.retries/reconnects/stale_replies.
	Metrics *telemetry.Registry
	Logf    func(format string, args ...any)
}

// RunAgent runs the collection agent loop against the coordinator:
// register, lease cells, collect each with collector.CollectCell, ship
// checksummed shards back, heartbeat throughout. Returns nil when the
// campaign completes, ErrRevoked when the session is evicted, and
// ctx.Err() when cancelled (signal drain).
func RunAgent(ctx context.Context, cfg AgentConfig) error {
	if cfg.ID == "" {
		return errors.New("dist: agent needs an ID")
	}
	if _, _, err := ParseAddr(cfg.Coordinator); err != nil {
		return err
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	timeout := cfg.RPCTimeout
	switch {
	case timeout == 0:
		timeout = 10 * time.Second
	case timeout < 0:
		timeout = 0
	}
	hello := &Message{Type: MsgHello, AgentID: cfg.ID, Role: "collect"}
	sess, err := connect(ctx, cfg.Coordinator, hello, sessionConfig{
		attempts: cfg.RedialAttempts, backoff: cfg.RedialBackoff,
		timeout: timeout, metrics: cfg.Metrics, logf: cfg.Logf,
	})
	if err != nil {
		return err
	}
	defer sess.close()
	welcome, _ := sess.lastWelcome()
	if welcome.Campaign == nil {
		return errors.New("dist: welcome carried no campaign")
	}
	campaign := *welcome.Campaign
	scens, err := campaign.Scenarios()
	if err != nil {
		return fmt.Errorf("dist: campaign from coordinator does not expand: %w", err)
	}
	byName := make(map[string]netem.Scenario, len(scens))
	for _, sc := range scens {
		byName[sc.Name] = sc
	}
	grCfg := campaign.GR().Fill()
	ttl := welcome.LeaseTTL
	if ttl <= 0 {
		ttl = 30 * time.Second
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		evictOnce sync.Once
		evicted   = make(chan struct{})
	)
	markEvicted := func() {
		evictOnce.Do(func() { close(evicted); cancel() })
	}

	// Heartbeats renew every lease this agent holds and ship the local
	// telemetry snapshot. TTL/3 gives two chances to miss before expiry.
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		tick := time.NewTicker(ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-tick.C:
			}
			resp, err := sess.call(runCtx, &Message{Type: MsgHeartbeat, AgentID: cfg.ID, Metrics: cfg.Metrics.Snapshot()})
			if err != nil {
				continue // work loop surfaces persistent failures
			}
			if resp.Verdict == VerdictEvicted {
				markEvicted()
				return
			}
		}
	}()

	errs := make(chan error, cfg.Parallel)
	for i := 0; i < cfg.Parallel; i++ {
		go func() { errs <- agentWorkLoop(runCtx, sess, cfg, byName, grCfg) }()
	}
	var firstErr error
	for i := 0; i < cfg.Parallel; i++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
			cancel() // one runner failing drains the rest
		}
	}
	cancel()
	hbWG.Wait()
	select {
	case <-evicted:
		return ErrRevoked
	default:
	}
	if firstErr != nil {
		return firstErr
	}
	if ctx.Err() == nil {
		// Every runner heard MsgCampaignDone. Say so once, without
		// redialing: the coordinator waits for it before it shuts down,
		// and may be gone by the time a retry would land.
		sess.notify(&Message{Type: MsgBye, AgentID: cfg.ID})
	}
	return ctx.Err() // nil on campaign completion, Canceled on drain
}

// agentWorkLoop is one runner: request a cell, run it, report, repeat.
func agentWorkLoop(ctx context.Context, sess *session, cfg AgentConfig, scens map[string]netem.Scenario, grCfg gr.Config) error {
	for {
		if err := ctx.Err(); err != nil {
			return nil // drain: RunAgent reports ctx state
		}
		resp, err := sess.call(ctx, &Message{Type: MsgRequestCell, AgentID: cfg.ID})
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		if resp.Verdict == VerdictEvicted {
			return ErrRevoked
		}
		switch resp.Type {
		case MsgCampaignDone:
			return nil
		case MsgWait:
			backoff := resp.Backoff
			if backoff <= 0 {
				backoff = 200 * time.Millisecond
			}
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
			}
		case MsgAssign:
			if err := runAssignedCell(ctx, sess, cfg, scens, grCfg, resp.Scheme, resp.Env); err != nil {
				return err
			}
		default:
			return fmt.Errorf("dist: unexpected reply type %d to cell request", resp.Type)
		}
	}
}

// runAssignedCell collects one leased cell and reports the outcome.
func runAssignedCell(ctx context.Context, sess *session, cfg AgentConfig, scens map[string]netem.Scenario, grCfg gr.Config, scheme, env string) error {
	cell := collector.CellKey{Scheme: scheme, Env: env}
	sc, ok := scens[env]
	if !ok {
		// The coordinator assigned a cell outside our expansion of its own
		// campaign — a version skew serious enough to fail loudly.
		return fmt.Errorf("dist: assigned unknown env %q (agent and coordinator expand the campaign differently)", env)
	}
	cfg.Metrics.Counter("agent.cells_started").Inc()
	tr, err := collector.CollectCell(ctx, scheme, sc, collector.Options{GR: grCfg})
	if err != nil {
		if ctx.Err() != nil {
			return nil // cancelled mid-cell: just drop the lease
		}
		cfg.Metrics.Counter("agent.cells_failed").Inc()
		cfg.Logf("dist: cell %s/%s failed: %v", scheme, env, err)
		resp, rerr := sess.call(ctx, &Message{Type: MsgCellFailed, AgentID: cfg.ID, Scheme: scheme, Env: env, Err: err.Error()})
		if rerr != nil {
			return rerr
		}
		if resp.Verdict == VerdictEvicted {
			return ErrRevoked
		}
		return nil
	}
	payload, sum, err := EncodeShard(&collector.Pool{GR: grCfg, Trajs: []collector.Trajectory{tr}})
	if err != nil {
		return err
	}
	cfg.Metrics.Counter("agent.shard_bytes").Add(int64(len(payload)))
	for attempt := 0; ; attempt++ {
		resp, err := sess.call(ctx, &Message{
			Type: MsgCellDone, AgentID: cfg.ID,
			Scheme: scheme, Env: env, Shard: payload, Checksum: sum,
		})
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		switch resp.Verdict {
		case VerdictOK:
			cfg.Metrics.Counter("agent.cells_done").Inc()
			return nil
		case VerdictDuplicate:
			// Someone else finished the cell while our lease lapsed; the
			// results are identical, so losing the race costs nothing.
			cfg.Metrics.Counter("agent.cells_duplicate").Inc()
			cfg.Logf("dist: cell %s/%s completed elsewhere; discarding local copy", cell.Scheme, cell.Env)
			return nil
		case VerdictRetry:
			if attempt >= 2 {
				return fmt.Errorf("dist: shard %s/%s rejected %d times (persistent corruption in transit)", scheme, env, attempt+1)
			}
			cfg.Metrics.Counter("agent.shard_retries").Inc()
		case VerdictEvicted:
			return ErrRevoked
		default:
			return fmt.Errorf("dist: unexpected verdict %q for completed cell", resp.Verdict)
		}
	}
}

// TrainWorkerConfig configures one data-parallel training worker
// (RunTrainWorker).
type TrainWorkerConfig struct {
	Coordinator string
	ID          string
	Index       int // worker slot [0, Workers)
	// Workers, when non-zero, is asserted against the coordinator's
	// worker count at Hello.
	Workers int
	// Pool is the training pool; the worker builds its dataset from it
	// with the mask the coordinator announces.
	Pool           *collector.Pool
	RedialAttempts int
	RedialBackoff  time.Duration
	// RPCTimeout bounds each exchange with the coordinator (0 disables —
	// the default, because a gradient submission legitimately blocks at
	// the barrier until the slowest worker arrives; set it only when an
	// outer supervisor restarts stuck workers).
	RPCTimeout time.Duration
	// Metrics, when non-nil, counts dist.retries/reconnects/stale_replies.
	Metrics *telemetry.Registry
	Logf    func(format string, args ...any)
	// OnStep, when non-nil, observes every applied step index.
	OnStep func(step int)
}

// RunTrainWorker runs one trainer worker: join, then loop compute
// shard → submit → install broadcast until the run reaches StepsTotal.
// The coordinator resolves every restart disagreement by resyncing, so
// the loop needs no special cases beyond "Targets present means Join".
func RunTrainWorker(ctx context.Context, cfg TrainWorkerConfig) error {
	if cfg.ID == "" {
		return errors.New("dist: worker needs an ID")
	}
	if _, _, err := ParseAddr(cfg.Coordinator); err != nil {
		return err
	}
	if cfg.Pool == nil {
		return errors.New("dist: worker needs a pool")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	hello := &Message{Type: MsgHello, AgentID: cfg.ID, Role: "train", WorkerIdx: cfg.Index, Workers: cfg.Workers}
	sess, err := connect(ctx, cfg.Coordinator, hello, sessionConfig{
		attempts: cfg.RedialAttempts, backoff: cfg.RedialBackoff,
		timeout: cfg.RPCTimeout, metrics: cfg.Metrics, logf: cfg.Logf,
	})
	if err != nil {
		return err
	}
	defer sess.close()
	welcome, _ := sess.lastWelcome()
	if welcome.CRR == nil {
		return errors.New("dist: welcome carried no training config")
	}
	ds := rl.BuildDataset(cfg.Pool, welcome.Mask)
	worker, err := rl.NewShardWorker(ds, *welcome.CRR, cfg.Index, welcome.Workers)
	if err != nil {
		return err
	}
	join := func(m *Message) error {
		return worker.Join(m.Step, m.Params, m.Targets, m.RNG)
	}
	if err := join(welcome); err != nil {
		return err
	}
	if welcome.Done {
		return nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		sh := worker.ComputeShard(ds)
		resp, err := sess.call(ctx, &Message{Type: MsgGrads, AgentID: cfg.ID, GradShard: &sh})
		if err != nil {
			if resp != nil && resp.Verdict == VerdictEvicted {
				// Another process took over this worker slot; our gradients
				// are fenced off for good. Exit distinctly so a supervisor
				// knows not to relaunch under the same identity.
				return ErrRevoked
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		if resp.Type != MsgTrainStep {
			return fmt.Errorf("dist: unexpected reply type %d to gradient shard", resp.Type)
		}
		// If the session re-helloed underneath this call (connection loss),
		// the retried shard still carried a valid step: the coordinator
		// either applied it or answered with a resync below.
		if resp.Targets != nil {
			// Full resync: the coordinator and this worker disagreed about
			// history (one of us restarted). Rewind to its state.
			cfg.Logf("dist: worker %d resynced to step %d", cfg.Index, resp.Step)
			if err := join(resp); err != nil {
				return err
			}
		} else {
			if err := worker.Sync(resp.Step, resp.Params); err != nil {
				return err
			}
		}
		if cfg.OnStep != nil {
			cfg.OnStep(resp.Step)
		}
		if resp.Done {
			return nil
		}
	}
}
