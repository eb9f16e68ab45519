package serve_test

import (
	"math/rand"
	"sync"
	"testing"

	"sage/internal/golden"
	"sage/internal/gr"
	"sage/internal/serve"
	"sage/internal/tcp"
)

// TestGoldenWireReplies pins what the daemon answers, end to end
// (testdata/wire-replies.golden): framing, admission, the micro-batcher and
// the policy forward. Replaying a session through an in-process engine
// (serve_wire's check) runs the same kernels on both sides, so only a pin
// taken before a kernel change can catch one. It drives a real Server over a unix socket the way the
// serve_wire workload does — 2 connections, each round-robining 5 sessions
// of seeded uniform states, every reply fed back as the next cwnd, clamped
// as a connection would clamp it — and digests the first 200 replies of
// every session. Each session's digest covers its own replies in order and
// the sessions fold in id order, so how the two connections interleave (and
// so how the engine batches them) does not enter the digest.
func TestGoldenWireReplies(t *testing.T) {
	const conns, perConn, replies = 2, 5, 200
	eng := serve.NewEngine(serve.Config{Policy: benchPolicy(), Seed: 1})
	sock, stop := startServer(t, eng)
	defer stop()

	type session struct {
		id   uint64
		rng  *rand.Rand
		cwnd float64
		d    *golden.Digest
	}
	sessions := make([]*session, conns*perConn)
	for i := range sessions {
		id := uint64(i + 1)
		sessions[i] = &session{id: id, rng: rand.New(rand.NewSource(1000 + int64(id))), cwnd: 10, d: golden.NewDigest()}
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		cl, err := serve.Dial(sock)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(cl *serve.Client, own []*session) {
			defer wg.Done()
			state := make([]float64, gr.StateDim)
			for i := 0; i < replies*len(own); i++ {
				s := own[i%len(own)]
				for j := range state {
					state[j] = s.rng.Float64()
				}
				w, status, err := cl.Decide(s.id, s.cwnd, state)
				if err != nil || status != serve.StatusOK {
					t.Errorf("session %d reply %d: status %d, err %v", s.id, i/len(own), status, err)
					return
				}
				s.d.F64(w)
				s.cwnd = tcp.ClampCwnd(w, 2, 20000)
			}
		}(cl, sessions[c*perConn:(c+1)*perConn])
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	d := golden.NewDigest()
	for _, s := range sessions {
		d.U64(s.d.Sum64())
	}
	golden.Check(t, "wire-replies", d.Sum())
}
