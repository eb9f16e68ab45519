package collector

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sage/internal/gr"
)

// refStream writes p's stream the plain way, one append per value in the
// order the format comment lays out: the oracle the chunked encoder is
// held to.
func refStream(p *Pool) []byte {
	var b []byte
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	str := func(s string) {
		u(uint64(len(s)))
		b = append(b, s...)
	}
	b = append(b, poolMagic...)
	u(poolVersion)
	c := p.GR
	for _, v := range []uint64{uint64(c.Interval), uint64(c.Small), uint64(c.Medium), uint64(c.Large),
		math.Float64bits(c.Xi), math.Float64bits(c.Kappa), uint64(c.RewardWindow)} {
		u(v)
	}
	u(uint64(len(p.Trajs)))
	for _, tr := range p.Trajs {
		str(tr.Scheme)
		str(tr.Env)
		if tr.MultiFlow {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		u(math.Float64bits(tr.Score))
		d := 0
		if len(tr.Steps) > 0 {
			d = len(tr.Steps[0].State)
		}
		u(uint64(len(tr.Steps)))
		u(uint64(d))
		for j := 0; j < d; j++ {
			for _, s := range tr.Steps {
				u(math.Float64bits(s.State[j]))
			}
		}
		for _, s := range tr.Steps {
			u(math.Float64bits(s.Action))
		}
		for _, s := range tr.Steps {
			u(math.Float64bits(s.Reward))
		}
	}
	u(uint64(len(p.Failed)))
	for _, f := range p.Failed {
		str(f.Scheme)
		str(f.Env)
		str(f.Err)
	}
	return b
}

// lanePool is a pool whose stream spans about eight members: trajs
// trajectories of steps states of width 13, the values rounded so that
// deflate has something to find, and names of odd lengths so that values
// straddle the cuts.
func lanePool(trajs, steps int) *Pool {
	rng := rand.New(rand.NewSource(46))
	p := &Pool{GR: gr.Config{}.Fill()}
	for i := 0; i < trajs; i++ {
		tr := Trajectory{Scheme: strings.Repeat("c", 1+2*i), Env: fmt.Sprintf("env-%d", i), MultiFlow: i%2 == 1, Score: rng.Float64()}
		for j := 0; j < steps; j++ {
			st := make([]float64, 13)
			for k := range st {
				st[k] = math.Round(rng.NormFloat64()*100) / 100
			}
			tr.Steps = append(tr.Steps, gr.Step{State: st, Action: rng.Float64(), Reward: float64(j % 7)})
		}
		p.Trajs = append(p.Trajs, tr)
	}
	return p
}

// memberLens gunzips each gzip member of payload on its own and returns
// the stream bytes each carries.
func memberLens(t *testing.T, payload []byte) []int {
	t.Helper()
	br := bytes.NewReader(payload)
	zr, err := gzip.NewReader(br)
	if err != nil {
		t.Fatal(err)
	}
	var lens []int
	for {
		zr.Multistream(false)
		n, err := io.Copy(io.Discard, zr)
		if err != nil {
			t.Fatalf("member %d: %v", len(lens), err)
		}
		lens = append(lens, int(n))
		if err := zr.Reset(br); err == io.EOF {
			return lens
		} else if err != nil {
			t.Fatalf("member %d: %v", len(lens), err)
		}
	}
}

// encodeAt encodes p at GOMAXPROCS(procs), which sets how many lanes
// deflate it.
func encodeAt(t *testing.T, procs int, p *Pool) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return encodeT(t, p)
}

// The payload is a function of the pool alone: the same bytes from one
// lane (deflated on the caller), two and four, whose members gunzip to
// the plainly written stream and are cut at every memberChunk bytes.
func TestEncodePoolSameBytesAtEveryLaneCount(t *testing.T) {
	p := lanePool(8, 2000)
	want := refStream(p)
	if size, err := checkEncodable(p); err != nil || size != len(want) {
		t.Fatalf("checkEncodable = %d, %v; the stream is %d bytes", size, err, len(want))
	}
	first := encodeAt(t, 1, p)
	for _, procs := range []int{2, 4} {
		if got := encodeAt(t, procs, p); !bytes.Equal(got, first) {
			t.Fatalf("GOMAXPROCS %d: %d payload bytes differ from the %d at GOMAXPROCS 1", procs, len(got), len(first))
		}
	}
	if !bytes.Equal(gunzip(t, first), want) {
		t.Fatal("the members do not gunzip to the stream")
	}
	lens := memberLens(t, first)
	if n := (len(want) + memberChunk - 1) / memberChunk; len(lens) != n || n < 6 {
		t.Fatalf("%d members for a %d-byte stream, want %d (and at least 6)", len(lens), len(want), n)
	}
	for i, n := range lens[:len(lens)-1] {
		if n != memberChunk {
			t.Fatalf("member %d carries %d stream bytes, want %d", i, n, memberChunk)
		}
	}
}

// A failed cell's error longer than a member is cut mid-string, twice,
// and comes back whole.
func TestEncodePoolStringStraddlesMembers(t *testing.T) {
	p := lanePool(1, 10)
	var long strings.Builder
	for i := 0; long.Len() < 2*memberChunk+1000; i++ {
		fmt.Fprintf(&long, "frame %d; ", i)
	}
	p.Failed = []FailedCell{{Scheme: "vegas", Env: "nowhere", Err: long.String()}, {Scheme: "bic", Env: "e", Err: "short"}}
	for _, procs := range []int{1, 4} {
		payload := encodeAt(t, procs, p)
		if n := len(memberLens(t, payload)); n != 3 {
			t.Fatalf("GOMAXPROCS %d: %d members, want 3", procs, n)
		}
		if !bytes.Equal(gunzip(t, payload), refStream(p)) {
			t.Fatalf("GOMAXPROCS %d: the members do not gunzip to the stream", procs)
		}
		got, err := DecodePool(payload)
		if err != nil {
			t.Fatal(err)
		}
		requireSamePool(t, got, p)
	}
}

var errDiskFull = errors.New("disk full")

// failingWriter fails its k-th write and every one after it.
type failingWriter struct{ writes, k int }

func (w *failingWriter) Write(b []byte) (int, error) {
	if w.writes++; w.writes >= w.k {
		return 0, errDiskFull
	}
	return len(b), nil
}

// A write that fails, at any member, is what EncodePool returns; every
// lane has stopped by then, and the encoder the failed encode gave back
// writes the next pool's bytes as a fresh one does.
func TestEncodePoolWriteErrorStopsLanes(t *testing.T) {
	p := lanePool(8, 2000)
	for _, procs := range []int{1, 4} {
		want := encodeAt(t, procs, p)
		members := len(memberLens(t, want))
		for _, k := range []int{1, 2, members / 2, members} {
			before := runtime.NumGoroutine()
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				if err := EncodePool(&failingWriter{k: k}, p); !errors.Is(err, errDiskFull) {
					t.Fatalf("GOMAXPROCS %d, write %d of %d fails: EncodePool = %v", procs, k, members, err)
				}
			}()
			// A lane that has signalled its WaitGroup may not have exited.
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("GOMAXPROCS %d, write %d fails: %d goroutines after the encode, %d before", procs, k, runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
			if got := encodeAt(t, procs, p); !bytes.Equal(got, want) {
				t.Fatalf("GOMAXPROCS %d: the encode after a failure at write %d wrote other bytes", procs, k)
			}
		}
		path := filepath.Join(t.TempDir(), "pool")
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			if err := EncodePool(&failingWriter{k: 1}, p); !errors.Is(err, errDiskFull) {
				t.Fatal(err)
			}
			if err := p.Save(path); err != nil {
				t.Fatalf("Save after a failed encode: %v", err)
			}
		}()
		got, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		requireSamePool(t, got, p)
	}
}

// A payload of one gzip member, as every pool was written before the
// stream was cut into members, decodes to the same pool.
func TestDecodePoolSingleMember(t *testing.T) {
	p := lanePool(8, 2000)
	one := gzipBytes(refStream(p))
	if n := len(memberLens(t, one)); n != 1 {
		t.Fatalf("%d members", n)
	}
	got, err := DecodePool(one)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePool(t, got, p)
}

// Encodes on several goroutines at once share the free list and each
// write the pool's own bytes.
func TestEncodePoolConcurrent(t *testing.T) {
	p := lanePool(8, 2000)
	want := encodeT(t, p)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				var b bytes.Buffer
				if err := EncodePool(&b, p); err != nil || !bytes.Equal(b.Bytes(), want) {
					t.Errorf("a concurrent encode wrote %d other bytes (%v)", b.Len(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
