package nn

// Batched inference is a one-step pass over a training tape: BatchForward
// walks the Fig. 6 graph of ForwardTapeFrom (tape.go) over B = states.Rows
// sequences of T = 1 step, its GRU starting from the flows' hidden states.

// PolicyBatchScratch owns every buffer one batched forward pass needs.
// Allocate one per concurrent worker with NewBatchScratch and reuse it
// across calls: after warm-up a BatchForward performs zero heap allocations
// regardless of batch size.
type PolicyBatchScratch = PolicyTape

// NewBatchScratch returns an empty scratch set for p (buffers grow lazily
// to the batch sizes actually seen).
func (p *Policy) NewBatchScratch() *PolicyBatchScratch { return &PolicyTape{} }

// NewTileScratch returns a scratch set for p with every buffer sized for a
// whole TileRows-row tile — by one BatchForward over a zero tile — so no
// batch of up to TileRows rows grows it. A scratch that grows lazily sizes
// a buffer by the first batches it sees (the hidden rows of a first batch
// of nine rows are 18 rows, then 36), so what a tile scratch allocates
// would depend on which tile it happened to take first. The zero tile is
// the scratch's own normalized-state buffer, which the pass normalizes in
// place, and the hidden state is nil (zero): sizing allocates nothing a
// lazily grown scratch would not.
func (p *Policy) NewTileScratch() *PolicyBatchScratch {
	s := p.NewBatchScratch()
	zero := s.xn.Reset(TileRows, p.Cfg.InDim)
	clear(zero.Data)
	p.BatchForward(zero, nil, s)
	return s
}

// LastHidden returns the last hidden layer's activations from the latest
// BatchForward on t — row r is the embedding Fig. 16 visualizes for flow r —
// as a view valid until the next call.
func (t *PolicyTape) LastHidden() *Mat { return &t.cur }

// BatchForward runs one timestep for a whole batch of flows: row r of
// states is flow r's (masked, un-normalized) state vector and row r of
// hidden its recurrent state. It returns the GMM head outputs and the new
// hidden states as views into s — valid only until the next call with the
// same scratch; callers must copy out anything they keep.
//
// Per row the computation is operation-for-operation that of the scalar
// oracle in reference_test.go at every batch size, so batched and one-row
// inference produce bitwise-equal decisions (see
// TestPolicyBatchForwardMatchesSequential).
func (p *Policy) BatchForward(states, hidden *Mat, s *PolicyBatchScratch) (heads, hNew *Mat) {
	s.B, s.T = states.Rows, 1
	return p.forward(s, states, hidden, 0)
}
