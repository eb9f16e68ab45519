package serve

import (
	"math/rand"
	"runtime"
	"sync/atomic"

	"sage/internal/gr"
	"sage/internal/nn"
)

// tilePass is one batched forward pass and its serial tail's own state. The
// synchronous path has one: Enqueue gathers each row into it during the
// control sweep; each time a 16-row tile (nn.TileRows) fills, the tile is
// published and a helper goroutine — at most one per extra core — claims
// published tiles and forwards them while the sweep goes on. Flush seals the
// pass, which publishes the partial last tile, claims whatever is left on
// the sim goroutine and waits for every claimed tile (DESIGN.md §10). Each
// async worker has a solo one: the worker gathers its batch, starts no
// helper and forwards every tile itself at the join. Rows are independent
// and every kernel tier computes a row alike
// (TestPolicyBatchForwardMatchesSequential), so forwarding tile by tile, on
// any goroutine, changes no output bit.
//
// Only the pass's owner gathers, grows, opens, seals and runs the tail. A
// helper reads the pass's fields only for a tile it claimed; the tile was
// published after they were written, and none of them is written again
// until every claimed tile is done (quiesce).
type tilePass struct {
	pol  *nn.Policy
	mask []int
	base int64 // index of the pass's first tile

	// Row r of states and hidden is gathered row r: the masked state and the
	// session's hidden state. heads and hNew receive row r's GMM head and new
	// hidden state from whoever forwards its tile. The four hold the same
	// number of rows, grown by doubling up to limit.
	states, hidden, heads, hNew nn.Mat
	fallback                    []bool // row r's state is not finite
	rows, limit                 int    // rows gathered; the most a pass holds (Config.MaxBatch)

	// The serial tail's own: the GMM mean buffer and the RNG stochastic mode
	// draws from.
	meanBuf []float64
	rng     *rand.Rand

	// Tile indices count up across passes and are never reused, so a claim
	// a stale helper makes against a finished pass cannot succeed.
	ready    atomic.Int64        // one past the last published tile
	next     atomic.Int64        // the next tile to claim
	done     atomic.Int64        // tiles forwarded, or cancelled unclaimed
	sealed   atomic.Int64        // rows of the sealed pass; -1 while the sweep may still add
	panicked atomic.Pointer[any] // the first panic of a tile's forward, for the join to re-raise

	own        *nn.PolicyBatchScratch // the owner's, made at its first tile
	solo       bool                   // never starts a helper
	helpers    []*tileHelper
	maxHelpers int // GOMAXPROCS − 1 when the pass opened; 0 when solo
}

// newTilePass builds a pass of at most limit rows whose serial tail draws
// from seed. A solo pass never starts a helper.
func newTilePass(limit int, seed int64, solo bool) *tilePass {
	return &tilePass{limit: limit, rng: rand.New(rand.NewSource(seed)), solo: solo}
}

// tileHelper is one helper slot: its own one-tile scratch, and busy from
// the go statement that starts it until its goroutine returns. Every tile
// scratch, the owner's too, is made at its first tile sized for a whole
// one (nn.Policy.NewTileScratch): which tile a scratch takes first is a
// race, and a lazily grown one would allocate by its outcome.
type tileHelper struct {
	busy    atomic.Bool
	scratch *nn.PolicyBatchScratch
	run     func() // entry point, built once so starting it allocates nothing
}

// open starts a pass of pol over mask for sessions whose hidden state has
// hDim values.
func (t *tilePass) open(pol *nn.Policy, mask []int, hDim int) {
	t.quiesce()
	t.pol, t.mask = pol, mask
	if t.states.Cols != len(mask) || t.hidden.Cols != hDim || t.heads.Cols != pol.GMM.HeadDim() {
		t.resize(t.states.Rows, 0, hDim)
	}
	if len(t.meanBuf) != pol.GMM.K {
		t.meanBuf = make([]float64, pol.GMM.K)
	}
	t.rows = 0
	t.base = t.ready.Load()
	t.sealed.Store(-1)
	if !t.solo {
		t.maxHelpers = runtime.GOMAXPROCS(0) - 1
	}
}

// add gathers s as the pass's next row and publishes the tile it fills.
func (t *tilePass) add(s *session) {
	if t.rows == t.states.Rows {
		t.grow()
	}
	r := t.rows
	t.fallback[r] = gather(t.states.Row(r), t.hidden.Row(r), s, t.mask)
	t.rows++
	if t.rows%nn.TileRows == 0 {
		t.ready.Store(t.base + int64(t.rows/nn.TileRows))
		t.spawn()
	}
}

// gather writes session s's row: its hidden state, and its masked state, or
// zeros when the state is not finite, in which case the row falls back.
func gather(state, hidden []float64, s *session, mask []int) (fallback bool) {
	copy(hidden, s.hidden)
	if !finiteVec(s.stateBuf) {
		zero(state)
		return true
	}
	gr.ApplyMaskInto(state, s.stateBuf, mask)
	return false
}

// grow doubles the pass's rows, keeping what is gathered and forwarded. The
// owner forwards the published tiles nobody claimed and waits out
// the claimed ones first, so no helper reads or writes the rows being moved.
func (t *tilePass) grow() {
	t.drain()
	tiles := (t.limit + nn.TileRows - 1) / nn.TileRows
	t.resize(min(max(nn.TileRows, 2*t.states.Rows), tiles*nn.TileRows), t.rows, t.hidden.Cols)
}

// resize gives the pass rows rows of the current policy's widths, keeping
// the first keep rows of every matrix.
func (t *tilePass) resize(rows, keep, hDim int) {
	resizeMat(&t.states, rows, len(t.mask), keep)
	resizeMat(&t.hidden, rows, hDim, keep)
	resizeMat(&t.heads, rows, t.pol.GMM.HeadDim(), keep)
	resizeMat(&t.hNew, rows, hDim, keep)
	fb := make([]bool, rows)
	copy(fb, t.fallback[:keep])
	t.fallback = fb
}

func resizeMat(m *nn.Mat, rows, cols, keep int) {
	d := make([]float64, rows*cols)
	if m.Cols == cols {
		copy(d, m.Data[:keep*cols])
	}
	*m = nn.Mat{Rows: rows, Cols: cols, Data: d}
}

// seal ends the sweep's part of the pass: the partial last tile is
// published too, and a helper is started if one could share what is left.
func (t *tilePass) seal() {
	t.sealed.Store(int64(t.rows))
	t.ready.Store(t.base + int64((t.rows+nn.TileRows-1)/nn.TileRows))
	if t.ready.Load()-t.next.Load() > 1 {
		t.spawn()
	}
}

// join forwards on the owner every tile no helper has claimed, waits for
// the claimed ones, and re-raises the first panic any tile's forward raised,
// here, where a recover up the owner's goroutine can see it.
func (t *tilePass) join() {
	t.drain()
	if p := t.panicked.Swap(nil); p != nil {
		panic(*p)
	}
}

// drain forwards on the owner every published tile it can claim,
// then quiesces.
func (t *tilePass) drain() {
	for g, ok := t.claim(); ok; g, ok = t.claim() {
		t.forward(g, &t.own)
	}
	t.quiesce()
}

// quiesce cancels every published tile nobody claimed and waits until each
// claimed one is done. The wait spins with runtime.Gosched rather than
// parking: a parked sim goroutine tends to resume on the helper's core, and
// the migration costs more than the wait. It never waits for a helper that
// has not started; such a helper finds nothing left to claim and returns.
// Any goroutine may call it while the owner is not gathering.
func (t *tilePass) quiesce() {
	for {
		g, r := t.next.Load(), t.ready.Load()
		if g >= r {
			break
		}
		if t.next.CompareAndSwap(g, r) {
			t.done.Add(r - g)
			break
		}
	}
	for t.done.Load() != t.next.Load() {
		runtime.Gosched()
	}
}

// claim takes the next published tile, unless none is left or a forward
// has panicked.
func (t *tilePass) claim() (int64, bool) {
	for t.panicked.Load() == nil {
		g := t.next.Load()
		if g >= t.ready.Load() {
			break
		}
		if t.next.CompareAndSwap(g, g+1) {
			return g, true
		}
	}
	return 0, false
}

// forward runs tile g's rows through the pass's policy on the scratch at
// sc, made first if there is none, and copies the outputs into the pass. A
// panic is recorded, not propagated: the tile still counts as done, so
// nobody waits for it forever.
func (t *tilePass) forward(g int64, sc **nn.PolicyBatchScratch) {
	defer func() {
		if v := recover(); v != nil {
			t.fail(v)
		}
		t.done.Add(1)
	}()
	if *sc == nil {
		*sc = t.pol.NewTileScratch()
	}
	lo := int(g-t.base) * nn.TileRows
	hi := lo + nn.TileRows
	if n := int(t.sealed.Load()); n >= 0 {
		hi = min(hi, n)
	}
	states := nn.Mat{Rows: hi - lo, Cols: t.states.Cols, Data: t.states.Data[lo*t.states.Cols : hi*t.states.Cols]}
	hidden := nn.Mat{Rows: hi - lo, Cols: t.hidden.Cols, Data: t.hidden.Data[lo*t.hidden.Cols : hi*t.hidden.Cols]}
	heads, hNew := t.pol.BatchForward(&states, &hidden, *sc)
	copy(t.heads.Data[lo*t.heads.Cols:], heads.Data)
	copy(t.hNew.Data[lo*t.hNew.Cols:], hNew.Data)
}

// fail records v as the pass's panic unless an earlier one is recorded.
// (Taking v's address here, not in forward, keeps a forward that does not
// panic from allocating.)
func (t *tilePass) fail(v any) { t.panicked.CompareAndSwap(nil, &v) }

// spawn starts a helper in the first idle slot, if the pass may have one.
func (t *tilePass) spawn() {
	for i := 0; i < t.maxHelpers; i++ {
		if i == len(t.helpers) {
			h := &tileHelper{}
			h.run = func() { t.help(h) }
			t.helpers = append(t.helpers, h)
		}
		if h := t.helpers[i]; h.busy.CompareAndSwap(false, true) {
			go h.run()
			return
		}
	}
}

// help forwards published tiles until it has caught up, then returns: a
// helper never waits for a tile, so an engine dropped mid-sweep leaves no
// goroutine behind.
func (t *tilePass) help(h *tileHelper) {
	for {
		for g, ok := t.claim(); ok; g, ok = t.claim() {
			t.forward(g, &h.scratch)
		}
		h.busy.Store(false)
		// A tile published between the last failed claim and the store above
		// found this slot busy and started no helper: take it back.
		if t.panicked.Load() != nil || t.next.Load() >= t.ready.Load() || !h.busy.CompareAndSwap(false, true) {
			return
		}
	}
}
