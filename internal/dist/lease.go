package dist

import (
	"sort"
	"sync"
	"time"

	"sage/internal/collector"
)

// CellStatus is a tracked cell's lifecycle state.
type CellStatus int

// Cell lifecycle.
const (
	CellPending CellStatus = iota
	CellLeased
	CellDone
	CellFailed
)

// AcquireResult reports what Acquire found.
type AcquireResult int

// Acquire outcomes.
const (
	AcquireGranted  AcquireResult = iota // a cell was leased to the caller
	AcquireWait                          // all remaining cells are leased out; retry later
	AcquireComplete                      // every cell is done or failed
	AcquireHedged                        // a straggling cell was speculatively re-leased to the caller
)

// Tracker is the coordinator's lease table: every campaign cell with its
// status, holder, and lease deadline. Leases are renewed by heartbeat;
// a lease that reaches its deadline un-renewed returns the cell to the
// pending set and marks the holder evicted, so a stalled or dead agent's
// work is reassigned instead of wedging the campaign. All methods are
// safe for concurrent use from connection handlers.
type Tracker struct {
	mu      sync.Mutex
	order   []collector.CellKey
	cells   map[collector.CellKey]*cellInfo
	evicted map[string]bool
	bye     map[string]bool // every agent that said Hello: said Bye since?
	ttl     time.Duration
	now     func() time.Time

	// Straggler hedging: a trailing window of completion durations and
	// the multiple of their p75 past which a leased cell counts as
	// straggling. hedgeFactor <= 0 disables hedging.
	hedgeFactor float64
	durations   []time.Duration
}

// durationWindow bounds the trailing completion-duration sample; a
// window (rather than all history) lets the straggler threshold adapt
// when the campaign moves from short cells to long ones.
const durationWindow = 64

type cellInfo struct {
	status   CellStatus
	agent    string
	expires  time.Time
	leasedAt time.Time
	err      string

	// A hedge is a second, speculative lease on a straggling cell.
	// Cells are deterministic, so whichever holder finishes first wins
	// and the loser's copy is a harmless duplicate.
	hedgeAgent   string
	hedgeExpires time.Time
	hedgeAt      time.Time
}

// NewTracker builds the table over the campaign's cells with the given
// lease TTL.
func NewTracker(cells []collector.CellKey, ttl time.Duration) *Tracker {
	t := &Tracker{
		order:   append([]collector.CellKey(nil), cells...),
		cells:   make(map[collector.CellKey]*cellInfo, len(cells)),
		evicted: map[string]bool{},
		bye:     map[string]bool{},
		ttl:     ttl,
		now:     time.Now,
	}
	for _, c := range t.order {
		t.cells[c] = &cellInfo{}
	}
	return t
}

// SetClock overrides the time source (tests drive lease expiry without
// sleeping).
func (t *Tracker) SetClock(now func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
}

// SetHedge enables straggler hedging: once at least three completion
// durations are on record, a cell leased for longer than factor × the
// p75 completion duration may be speculatively re-leased to an idle
// agent. factor <= 0 disables hedging (the default).
func (t *Tracker) SetHedge(factor float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hedgeFactor = factor
}

// expireLocked sweeps leases past their deadline: the cell goes back to
// pending and the delinquent holder is marked evicted. A hedged cell
// whose primary expires is promoted to its hedge holder instead of
// returning to pending. Called lazily at the top of every mutating
// operation, so expiry needs no timer goroutine — any agent activity
// (and there is always activity while an agent lives, because idle
// agents poll) advances the sweep.
func (t *Tracker) expireLocked() {
	now := t.now()
	for _, ci := range t.cells {
		if ci.status != CellLeased {
			continue
		}
		if ci.hedgeAgent != "" && now.After(ci.hedgeExpires) {
			t.evicted[ci.hedgeAgent] = true
			ci.hedgeAgent = ""
		}
		if now.After(ci.expires) {
			t.evicted[ci.agent] = true
			if ci.hedgeAgent != "" {
				ci.agent, ci.expires, ci.leasedAt = ci.hedgeAgent, ci.hedgeExpires, ci.hedgeAt
				ci.hedgeAgent = ""
			} else {
				ci.status = CellPending
				ci.agent = ""
			}
		}
	}
}

// stragglerThresholdLocked computes the lease age past which a cell is
// hedgeable: hedgeFactor × the p75 of the trailing completion-duration
// window, requiring at least three samples so one fast fluke cannot
// trigger a hedge storm at campaign start.
func (t *Tracker) stragglerThresholdLocked() (time.Duration, bool) {
	if t.hedgeFactor <= 0 || len(t.durations) < 3 {
		return 0, false
	}
	ds := append([]time.Duration(nil), t.durations...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	q := ds[len(ds)*3/4]
	return time.Duration(float64(q) * t.hedgeFactor), true
}

func (t *Tracker) recordDurationLocked(d time.Duration) {
	t.durations = append(t.durations, d)
	if len(t.durations) > durationWindow {
		t.durations = t.durations[1:]
	}
}

// Register opens (or re-opens) a session for agent: a fresh Hello clears
// any eviction, so a relaunched agent under the same id starts clean, and
// any earlier Bye.
func (t *Tracker) Register(agent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.evicted, agent)
	t.bye[agent] = false
}

// Bye records that agent heard the campaign verdict and is hanging up.
func (t *Tracker) Bye(agent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.bye[agent]; ok {
		t.bye[agent] = true
	}
}

// Lingering counts the registered agents, evicted ones aside, that have
// not said Bye since their latest Hello.
func (t *Tracker) Lingering() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	n := 0
	for agent, bye := range t.bye {
		if !bye && !t.evicted[agent] {
			n++
		}
	}
	return n
}

// Evicted reports whether the agent's session has been declared dead.
func (t *Tracker) Evicted(agent string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	return t.evicted[agent]
}

// Acquire leases the first pending cell to agent. With hedging enabled
// and no pending cells left, it may instead re-lease a straggling cell
// (leased longer than the fleet's trailing-quantile completion rate
// predicts, to someone else, not yet hedged) and report AcquireHedged —
// idle capacity races the straggler, first checksummed shard wins.
func (t *Tracker) Acquire(agent string) (collector.CellKey, AcquireResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	now := t.now()
	open := false
	for _, key := range t.order {
		ci := t.cells[key]
		switch ci.status {
		case CellPending:
			ci.status = CellLeased
			ci.agent = agent
			ci.expires = now.Add(t.ttl)
			ci.leasedAt = now
			return key, AcquireGranted
		case CellLeased:
			open = true
		}
	}
	if !open {
		return collector.CellKey{}, AcquireComplete
	}
	if threshold, ok := t.stragglerThresholdLocked(); ok {
		for _, key := range t.order {
			ci := t.cells[key]
			if ci.status == CellLeased && ci.hedgeAgent == "" && ci.agent != agent &&
				!ci.leasedAt.IsZero() && now.Sub(ci.leasedAt) > threshold {
				ci.hedgeAgent = agent
				ci.hedgeExpires = now.Add(t.ttl)
				ci.hedgeAt = now
				return key, AcquireHedged
			}
		}
	}
	return collector.CellKey{}, AcquireWait
}

// Renew extends every lease agent holds, hedges included.
func (t *Tracker) Renew(agent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	deadline := t.now().Add(t.ttl)
	for _, ci := range t.cells {
		if ci.status != CellLeased {
			continue
		}
		if ci.agent == agent {
			ci.expires = deadline
		}
		if ci.hedgeAgent == agent {
			ci.hedgeExpires = deadline
		}
	}
}

// Release returns every cell agent holds to the pending set without
// evicting it — the clean-disconnect path (connection closed), where the
// agent is expected to redial and re-register. A hedged cell whose
// primary disconnects stays leased to the hedge holder.
func (t *Tracker) Release(agent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ci := range t.cells {
		if ci.status != CellLeased {
			continue
		}
		if ci.hedgeAgent == agent {
			ci.hedgeAgent = ""
		}
		if ci.agent == agent {
			if ci.hedgeAgent != "" {
				ci.agent, ci.expires, ci.leasedAt = ci.hedgeAgent, ci.hedgeExpires, ci.hedgeAt
				ci.hedgeAgent = ""
			} else {
				ci.status = CellPending
				ci.agent = ""
			}
		}
	}
}

// Complete marks a cell done. The first completion wins regardless of
// who currently holds the lease (cells are deterministic, so a result
// from a lapsed lease is still the correct result); later completions
// report VerdictDuplicate so a revived agent knows to discard its copy.
// hedgeWin reports whether the winner was the cell's hedge holder —
// the speculative re-lease beat the straggler.
func (t *Tracker) Complete(agent string, cell collector.CellKey) (verdict string, hedgeWin bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	ci, ok := t.cells[cell]
	if !ok {
		return VerdictDuplicate, false // not a campaign cell; nothing to record
	}
	if ci.status == CellDone {
		return VerdictDuplicate, false
	}
	if ci.status == CellLeased {
		start := ci.leasedAt
		if agent == ci.hedgeAgent && ci.hedgeAgent != "" {
			hedgeWin = true
			start = ci.hedgeAt
		}
		if !start.IsZero() {
			t.recordDurationLocked(t.now().Sub(start))
		}
	}
	ci.status = CellDone
	ci.agent = agent
	ci.hedgeAgent = ""
	ci.err = ""
	return VerdictOK, hedgeWin
}

// Fail marks a cell permanently failed (unless it already completed
// elsewhere).
func (t *Tracker) Fail(agent string, cell collector.CellKey, errMsg string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	ci, ok := t.cells[cell]
	if !ok || ci.status == CellDone {
		return VerdictDuplicate
	}
	ci.status = CellFailed
	ci.agent = agent
	ci.hedgeAgent = ""
	ci.err = errMsg
	return VerdictOK
}

// Readopt restores a lease from the write-ahead log after a coordinator
// restart: the cell is leased to agent with a fresh TTL, as if the
// grant had just happened. If the agent is truly gone the lease expires
// normally; if it is alive its next heartbeat renews it and its
// in-flight completion lands without re-collection.
func (t *Tracker) Readopt(cell collector.CellKey, agent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ci, ok := t.cells[cell]
	if !ok || ci.status != CellPending {
		return
	}
	now := t.now()
	ci.status = CellLeased
	ci.agent = agent
	ci.expires = now.Add(t.ttl)
	ci.leasedAt = now
}

// MarkDone pre-completes a cell (coordinator resume: a done record in the
// WAL and a verified shard file).
func (t *Tracker) MarkDone(cell collector.CellKey) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ci, ok := t.cells[cell]; ok {
		ci.status = CellDone
	}
}

// Done reports whether every cell has reached a terminal state.
func (t *Tracker) Done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	for _, ci := range t.cells {
		if ci.status == CellPending || ci.status == CellLeased {
			return false
		}
	}
	return true
}

// Counts returns how many cells are in each state.
func (t *Tracker) Counts() (pending, leased, done, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	for _, ci := range t.cells {
		switch ci.status {
		case CellPending:
			pending++
		case CellLeased:
			leased++
		case CellDone:
			done++
		case CellFailed:
			failed++
		}
	}
	return
}

// DoneCells returns the completed cells, in campaign order.
func (t *Tracker) DoneCells() []collector.CellKey {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []collector.CellKey
	for _, key := range t.order {
		if t.cells[key].status == CellDone {
			out = append(out, key)
		}
	}
	return out
}

// Failures returns the permanently failed cells in canonical (scheme,
// env) order — the Pool.Failed a single-process run would report.
func (t *Tracker) Failures() []collector.FailedCell {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []collector.FailedCell
	for _, key := range t.order {
		if ci := t.cells[key]; ci.status == CellFailed {
			out = append(out, collector.FailedCell{Scheme: key.Scheme, Env: key.Env, Err: ci.err})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Scheme != out[j].Scheme {
			return out[i].Scheme < out[j].Scheme
		}
		return out[i].Env < out[j].Env
	})
	return out
}
