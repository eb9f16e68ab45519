package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sage/internal/alloctest"
	"sage/internal/sim"
)

func TestParseMahimahi(t *testing.T) {
	in := "0\n1\n# comment\n\n5\n3\n"
	ops, err := ParseMahimahi(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 1, 3, 5} // sorted
	if len(ops) != 4 {
		t.Fatalf("ops = %v", ops)
	}
	for i, v := range want {
		if ops[i] != v {
			t.Fatalf("ops = %v", ops)
		}
	}
	if _, err := ParseMahimahi(strings.NewReader("abc\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ParseMahimahi(strings.NewReader("-1\n")); err == nil {
		t.Fatal("negative accepted")
	}
	if _, err := ParseMahimahi(strings.NewReader("")); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestMahimahiToSchedule(t *testing.T) {
	// 10 opportunities in the first 100 ms bin -> 10 * 12000 bits / 0.1 s
	// = 1.2 Mb/s; nothing in the second; 5 in the third.
	var ops []int64
	for i := 0; i < 10; i++ {
		ops = append(ops, int64(i*10))
	}
	for i := 0; i < 5; i++ {
		ops = append(ops, int64(200+i*20))
	}
	s, err := MahimahiToSchedule(ops, 100*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(50 * sim.Millisecond); math.Abs(got-1.2e6) > 1 {
		t.Fatalf("bin 0 rate = %v", got)
	}
	if got := s.At(150 * sim.Millisecond); got != 0 {
		t.Fatalf("bin 1 rate = %v", got)
	}
	if got := s.At(250 * sim.Millisecond); math.Abs(got-0.6e6) > 1 {
		t.Fatalf("bin 2 rate = %v", got)
	}
}

func TestMahimahiRoundTrip(t *testing.T) {
	// Export a synthetic cellular trace and load it back: the reloaded
	// schedule's mean rate should track the original's.
	orig := Cellular(5, 20*sim.Second)
	var buf bytes.Buffer
	if err := WriteMahimahi(&buf, orig, 20*sim.Second); err != nil {
		t.Fatal(err)
	}
	ops, err := ParseMahimahi(&buf)
	if err != nil {
		t.Fatal(err)
	}
	re, err := MahimahiToSchedule(ops, 100*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	m1 := orig.MeanRateUntil(20 * sim.Second)
	m2 := re.MeanRateUntil(20 * sim.Second)
	if math.Abs(m1-m2)/m1 > 0.15 {
		t.Fatalf("round trip mean: %.2f vs %.2f Mb/s", m1/1e6, m2/1e6)
	}
}

func TestLoadMahimahiFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := os.WriteFile(path, []byte("0\n1\n2\n3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadMahimahi(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(0) <= 0 {
		t.Fatal("zero rate")
	}
	if _, err := LoadMahimahi(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// A trace one line long can name any time at all. Sizing a schedule from
// it used to ask for ≈ 800 GB on the first line below (an unrecoverable
// out-of-memory crash) and to overflow into a one-bin schedule on the
// second; both are refused now, with the line named.
func TestMahimahiRefusesOverlongTraces(t *testing.T) {
	for _, in := range []string{"0\n10000000000000\n", "0\n9223372036854775807\n", "0\n3600001\n"} {
		_, err := ParseMahimahi(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("ParseMahimahi(%q) = %v, want an error naming line 2", in, err)
		}
	}
	if _, err := ParseMahimahi(strings.NewReader("0\n3600000\n")); err != nil {
		t.Errorf("a trace of exactly maxMahimahiSpan refused: %v", err)
	}
	for _, c := range []struct {
		ops []int64
		bin sim.Time
	}{
		{[]int64{0, math.MaxInt64}, 0},
		{[]int64{0, 10000000000000}, 0},
		{[]int64{-1, 5}, 0},
		{[]int64{0, 3600000}, sim.Millisecond}, // 3.6 M bins
		{nil, 0},
	} {
		if s, err := MahimahiToSchedule(c.ops, c.bin); err == nil {
			t.Errorf("MahimahiToSchedule(%v, %v) = %v, want an error", c.ops, c.bin, s)
		}
	}
}

// FuzzParseMahimahi feeds arbitrary bytes through the trace reader. Whatever
// it accepts becomes a schedule with bounded allocation, and the schedule
// written back out in Mahimahi format parses again, ends in the bin the
// trace ended in, and carries at most one opportunity per bin more than the
// trace did.
func FuzzParseMahimahi(f *testing.F) {
	for _, s := range []string{
		"10000000000000\n",
		"9223372036854775807\n",
		"0\n1\n# comment\n\n5\n3\n",
		"0\n0\n0\n250\n251\n3599999\n",
		"3600000\n",
		"-4\n",
		"12 \n 7\n",
	} {
		f.Add([]byte(s))
	}
	const bin = 100 * sim.Millisecond
	f.Fuzz(func(t *testing.T, in []byte) {
		var (
			ops, back                 []int64
			lastBin                   sim.Time
			perr, serr, werr, backErr error
		)
		grew := alloctest.Measure(func() {
			if ops, perr = ParseMahimahi(bytes.NewReader(in)); perr != nil {
				return
			}
			s, err := MahimahiToSchedule(ops, bin)
			if serr = err; err != nil {
				return
			}
			lastBin = sim.Time(ops[len(ops)-1]) * sim.Millisecond / bin
			var out bytes.Buffer
			if werr = WriteMahimahi(&out, s, (lastBin+1)*bin); werr != nil {
				return
			}
			back, backErr = ParseMahimahi(&out)
		}).Bytes
		switch {
		case perr != nil:
			return
		case serr != nil:
			t.Fatalf("a parsed trace was refused: %v", serr)
		case werr != nil:
			t.Fatal(werr)
		case backErr != nil:
			t.Fatalf("the written schedule does not parse: %v", backErr)
		}
		if got := sim.Time(back[len(back)-1]) * sim.Millisecond / bin; got != lastBin {
			t.Fatalf("round trip ends in bin %d, the trace in bin %d", got, lastBin)
		}
		if len(back) > len(ops)+int(lastBin)+1 {
			t.Fatalf("round trip carries %d opportunities over %d bins, the trace %d", len(back), lastBin+1, len(ops))
		}
		if bound := uint64(64*len(in) + 16<<20); grew > bound {
			t.Fatalf("%d input bytes allocated %d bytes, bound %d", len(in), grew, bound)
		}
	})
}
