package nn

// PolicyBatchScratch owns every intermediate buffer one batched forward
// pass needs. Allocate one per concurrent worker with NewBatchScratch and
// reuse it across calls: after warm-up a BatchForward performs zero heap
// allocations regardless of batch size.
type PolicyBatchScratch struct {
	xn, e1, e2  Mat
	hNew, ln    Mat
	e3, fc      Mat
	resLn, resD Mat
	head        Mat
	gru         GRUScratch
	gemm        gemmScratch
}

// NewBatchScratch returns an empty scratch set for p (buffers grow lazily
// to the batch sizes actually seen).
func (p *Policy) NewBatchScratch() *PolicyBatchScratch { return &PolicyBatchScratch{} }

// LastHidden returns the last hidden layer's activations from the latest
// BatchForward on s — row r is the embedding Fig. 16 visualizes for flow r —
// as a view valid until the next call.
func (s *PolicyBatchScratch) LastHidden() *Mat { return &s.fc }

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
	p.Norm.BatchApply(states, &s.xn)
	p.enc1.batchForward(&s.xn, &s.e1, &s.gemm)
	leakyReLUTo(s.e1.Data, s.e1.Data, lreluAlpha)
	p.enc2.batchForward(&s.e1, &s.e2, &s.gemm)
	leakyReLUTo(s.e2.Data, s.e2.Data, lreluAlpha)

	trunk := &s.e2
	hNew = hidden
	if p.gru != nil {
		p.gru.BatchForward(&s.e2, hidden, &s.hNew, &s.gru)
		hNew = &s.hNew
		p.ln.BatchForward(&s.hNew, &s.ln)
		leakyReLUTo(s.ln.Data, s.ln.Data, lreluAlpha)
		trunk = &s.ln
	}
	if p.enc3 != nil {
		p.enc3.batchForward(trunk, &s.e3, &s.gemm)
		tanhTo(s.e3.Data, s.e3.Data)
		trunk = &s.e3
	}
	p.fc.batchForward(trunk, &s.fc, &s.gemm)
	leakyReLUTo(s.fc.Data, s.fc.Data, lreluAlpha)
	cur := &s.fc
	for i := range p.res {
		p.res[i].ln.BatchForward(cur, &s.resLn)
		leakyReLUTo(s.resLn.Data, s.resLn.Data, lreluAlpha)
		p.res[i].fc.batchForward(&s.resLn, &s.resD, &s.gemm)
		for j, d := range s.resD.Data {
			cur.Data[j] += d
		}
	}
	p.head.batchForward(cur, &s.head, &s.gemm)
	return &s.head, hNew
}
