package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"sage/internal/alloctest"
	"sage/internal/wire"
)

// frame builds one length-prefixed frame around payload.
func frame(payload []byte) []byte {
	var b bytes.Buffer
	wire.WriteFrame(&b, append(wire.StartFrame(nil), payload...), maxChaosFrame)
	return b.Bytes()
}

// pipePair returns a wrapped client side and the raw server side of an
// in-memory connection.
func pipePair(t *testing.T, tr *Transport) (wrapped, raw net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return tr.WrapConn(a), b
}

// readFrames reads frames off raw until an error, reporting payloads.
func readFrames(raw net.Conn, out chan<- []byte) {
	for {
		f, err := wire.ReadFrame(raw, nil, maxChaosFrame)
		if err != nil {
			close(out)
			return
		}
		out <- f
	}
}

func TestTransportPassThrough(t *testing.T) {
	tr := NewTransport(FaultSpec{Seed: 1}) // no faults
	wrapped, raw := pipePair(t, tr)
	got := make(chan []byte, 4)
	go readFrames(raw, got)

	want := []byte("hello")
	// Header and payload written separately, like writeMsg does.
	f := frame(want)
	if _, err := wrapped.Write(f[:4]); err != nil {
		t.Fatal(err)
	}
	if _, err := wrapped.Write(f[4:]); err != nil {
		t.Fatal(err)
	}
	if string(<-got) != string(want) {
		t.Fatal("frame mangled in pass-through")
	}
}

func TestTransportDuplicatesFrames(t *testing.T) {
	tr := NewTransport(FaultSpec{Seed: 1, Dup: 1})
	wrapped, raw := pipePair(t, tr)
	got := make(chan []byte, 4)
	go readFrames(raw, got)

	if _, err := wrapped.Write(frame([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	a, b := <-got, <-got
	if string(a) != "x" || string(b) != "x" {
		t.Fatalf("dup delivered %q, %q", a, b)
	}
}

func TestTransportDropsConnection(t *testing.T) {
	tr := NewTransport(FaultSpec{Seed: 1, Drop: 1})
	var events []FaultEvent
	var mu sync.Mutex
	tr.OnEvent = func(ev FaultEvent) { mu.Lock(); events = append(events, ev); mu.Unlock() }
	wrapped, raw := pipePair(t, tr)
	go io.Copy(io.Discard, raw)

	_, err := wrapped.Write(frame([]byte("x")))
	var inj *ErrInjected
	if !errors.As(err, &inj) {
		t.Fatalf("drop surfaced as %v", err)
	}
	// The error is sticky: the connection is dead for good.
	if _, err := wrapped.Write(frame([]byte("y"))); err == nil {
		t.Fatal("write after drop succeeded")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 || events[0].Kind != "drop" || events[0].Dir != "write" {
		t.Fatalf("events = %+v", events)
	}
}

func TestTransportTruncatesReadFrames(t *testing.T) {
	tr := NewTransport(FaultSpec{Seed: 1, Trunc: 1})
	wrapped, raw := pipePair(t, tr)
	go raw.Write(frame([]byte("0123456789")))

	// The truncated prefix is served, then the sticky injected error.
	buf := make([]byte, 64)
	n, err := wrapped.Read(buf)
	if err != nil || n == 0 || n >= 14 {
		t.Fatalf("first read = %d, %v (want partial frame)", n, err)
	}
	if _, err := wrapped.Read(buf); err == nil {
		t.Fatal("read past truncation succeeded")
	}
}

func TestTransportPartitionSilentlyDiscards(t *testing.T) {
	// The partition window covers the whole test: every frame vanishes,
	// writes still report success.
	tr := NewTransport(FaultSpec{Seed: 1, PartEvery: time.Hour, PartFor: time.Hour / 2, PartDir: "out"})
	wrapped, raw := pipePair(t, tr)
	got := make(chan []byte, 1)
	go readFrames(raw, got)

	if _, err := wrapped.Write(frame([]byte("gone"))); err != nil {
		t.Fatalf("partitioned write errored: %v", err)
	}
	select {
	case f := <-got:
		t.Fatalf("frame crossed a partition: %q", f)
	case <-time.After(50 * time.Millisecond):
	}
	// One-way: the "in" direction still flows under part-dir=out.
	go raw.Write(frame([]byte("back")))
	buf := make([]byte, 16)
	n, err := wrapped.Read(buf)
	if err != nil || string(buf[4:n]) != "back" {
		t.Fatalf("reverse direction blocked: %d %v", n, err)
	}
}

// TestTransportDeterministicSchedule: the same seed produces the same
// fault sequence; a different seed produces a different one.
func TestTransportDeterministicSchedule(t *testing.T) {
	// Dup is the one fault that leaves the connection alive, so the full
	// 40-frame schedule plays out; distinct frame sizes make the event
	// sequence a fingerprint of which frames were hit.
	run := func(seed int64) []int {
		tr := NewTransport(FaultSpec{Seed: seed, Dup: 0.3})
		var hits []int
		var mu sync.Mutex
		tr.OnEvent = func(ev FaultEvent) { mu.Lock(); hits = append(hits, ev.Bytes); mu.Unlock() }
		wrapped, raw := pipePair(t, tr)
		go io.Copy(io.Discard, raw)
		for i := 0; i < 40; i++ {
			if _, err := wrapped.Write(frame(make([]byte, i+1))); err != nil {
				t.Fatal(err)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), hits...)
	}
	a, b, c := run(7), run(7), run(8)
	if len(a) == 0 {
		t.Fatal("no faults fired at these rates")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedules: %v vs %v", a, b)
		}
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("different seeds produced the identical schedule %v", a)
	}
}

func TestParseFaultSpec(t *testing.T) {
	spec, err := ParseFaultSpec("seed=7,drop=0.02,dup=0.05,trunc=0.01,delay=2ms,jitter=3ms,stall=0.01,stall-for=2s,part-every=10s,part-for=1s,part-dir=out")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 7 || spec.Drop != 0.02 || spec.Dup != 0.05 || spec.Trunc != 0.01 ||
		spec.Delay != 2*time.Millisecond || spec.Jitter != 3*time.Millisecond ||
		spec.Stall != 0.01 || spec.StallFor != 2*time.Second ||
		spec.PartEvery != 10*time.Second || spec.PartFor != time.Second || spec.PartDir != "out" {
		t.Fatalf("parsed spec = %+v", spec)
	}
	if !spec.Active() {
		t.Fatal("spec with faults reported inactive")
	}
	for _, bad := range []string{
		"", "drop", "drop=2", "drop=-1", "nope=1", "part-dir=up",
		"part-every=1s,part-for=2s", "delay=fast",
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Fatalf("spec %q parsed", bad)
		}
	}
}

// A hostile length prefix costs the wrapped connection at most
// wire.ReadFrame's first 64 KiB chunk in either direction, not the
// 256 MiB the prefix declares.
func TestTransportHostilePrefixAllocatesLittle(t *testing.T) {
	hostile := []byte{0x0f, 0xff, 0xff, 0xff}
	const bound = 64<<10 + 16<<10

	tr := NewTransport(FaultSpec{Seed: 1})
	wrapped, raw := pipePair(t, tr)
	go func() { raw.Write(hostile); raw.Close() }()
	var err error
	if got := alloctest.Measure(func() { _, err = wrapped.Read(make([]byte, 16)) }).Bytes; got > bound {
		t.Errorf("inbound hostile prefix allocated %d bytes, want ≤ %d", got, bound)
	}
	if err == nil {
		t.Error("read of a frame with no body succeeded")
	}

	wrapped, raw = pipePair(t, tr)
	go io.Copy(io.Discard, raw)
	if got := alloctest.Measure(func() { _, err = wrapped.Write(hostile) }).Bytes; got > bound {
		t.Errorf("outbound hostile prefix allocated %d bytes, want ≤ %d", got, bound)
	}
	if err != nil {
		t.Errorf("buffering a partial outbound frame: %v", err)
	}
}
