package serve_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sage/internal/gr"
	"sage/internal/serve"
	"sage/internal/tcp"
)

// goldenWireReplies pins what the daemon answers, end to end: framing,
// admission, the micro-batcher and the policy forward. Replaying a session
// through an in-process engine (serve_wire's check) runs the same kernels on
// both sides, so only a constant taken before a kernel change can catch one.
// It changes only with a CHANGES.md sentence saying why.
const goldenWireReplies = "b2b7cf41dc685bc6"

// TestGoldenWireReplies drives a real Server over a unix socket the way the
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
		h    hash.Hash64
	}
	sessions := make([]*session, conns*perConn)
	for i := range sessions {
		id := uint64(i + 1)
		sessions[i] = &session{id: id, rng: rand.New(rand.NewSource(1000 + int64(id))), cwnd: 10, h: fnv.New64a()}
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
			var b [8]byte
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
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
				s.h.Write(b[:])
				s.cwnd = tcp.ClampCwnd(w, 2, 20000)
			}
		}(cl, sessions[c*perConn:(c+1)*perConn])
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	h := fnv.New64a()
	var b [8]byte
	for _, s := range sessions {
		binary.LittleEndian.PutUint64(b[:], s.h.Sum64())
		h.Write(b[:])
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != goldenWireReplies {
		t.Errorf("wire replies digest %s, want %s", got, goldenWireReplies)
	}
}
