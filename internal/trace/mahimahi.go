package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"sage/internal/netem"
	"sage/internal/sim"
)

// Mahimahi trace format: one integer per line, each a millisecond timestamp
// at which the link can deliver one MTU-sized packet. The paper's emulation
// replays 23 cellular traces in this format; this reader converts a trace
// into a piecewise rate schedule so recorded traces can drive the emulator
// directly.

// maxMahimahiSpan is the longest trace ParseMahimahi and MahimahiToSchedule
// accept: an hour, where recorded traces run for minutes and loop. A
// schedule is binned over the whole span, so this bounds what one file can
// make them allocate.
const maxMahimahiSpan = sim.Time(3600) * sim.Second

// maxMahimahiBins bounds the bins of a schedule, whatever bin width the
// caller asks for: an hour at the 100 ms LoadMahimahi uses fits.
const maxMahimahiBins = 1 << 16

// ParseMahimahi reads a Mahimahi-format trace and returns the delivery
// opportunities in milliseconds. A timestamp past an hour
// (maxMahimahiSpan) is refused with its line number.
func ParseMahimahi(r io.Reader) ([]int64, error) {
	var out []int64
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("trace: line %d: negative timestamp", line)
		}
		if v > int64(maxMahimahiSpan/sim.Millisecond) {
			return nil, fmt.Errorf("trace: line %d: timestamp %d ms is past the %v a trace may span", line, v, maxMahimahiSpan)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", line+1, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// MahimahiToSchedule converts delivery opportunities into a rate schedule by
// binning them into bin-sized windows: rate(bin) = opportunities × MTU×8 /
// bin. The trace loops implicitly: the final window's rate extends forever,
// so callers should load a trace at least as long as the experiment. Every
// opportunity must lie within the first hour (maxMahimahiSpan), and a span
// of more than 65 536 bins is refused.
func MahimahiToSchedule(opportunitiesMs []int64, bin sim.Time) (*netem.RateSchedule, error) {
	if bin <= 0 {
		bin = 100 * sim.Millisecond
	}
	if len(opportunitiesMs) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	var last int64
	for i, ms := range opportunitiesMs {
		if ms < 0 || ms > int64(maxMahimahiSpan/sim.Millisecond) {
			return nil, fmt.Errorf("trace: opportunity %d at %d ms is outside [0, %v]", i, ms, maxMahimahiSpan)
		}
		last = max(last, ms)
	}
	span := sim.Time(last) * sim.Millisecond
	if span/bin >= maxMahimahiBins {
		return nil, fmt.Errorf("trace: %v in bins of %v is %d bins, more than %d", span, bin, span/bin+1, maxMahimahiBins)
	}
	n := int(span/bin) + 1
	counts := make([]int, n)
	for _, ms := range opportunitiesMs {
		counts[sim.Time(ms)*sim.Millisecond/bin]++
	}
	times := make([]sim.Time, n)
	bps := make([]float64, n)
	for i := range counts {
		times[i] = sim.Time(i) * bin
		bps[i] = float64(counts[i]) * netem.MTU * 8 / bin.Seconds()
	}
	// Keep the trailing segment alive so the link never stalls forever.
	if bps[n-1] == 0 {
		bps[n-1] = netem.MTU * 8 / bin.Seconds()
	}
	return netem.NewRateSchedule(times, bps)
}

// LoadMahimahi reads a Mahimahi trace file into a rate schedule with 100 ms
// bins.
func LoadMahimahi(path string) (*netem.RateSchedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	ops, err := ParseMahimahi(f)
	if err != nil {
		return nil, err
	}
	return MahimahiToSchedule(ops, 100*sim.Millisecond)
}

// WriteMahimahi renders a rate schedule back into Mahimahi format over
// [0, dur] — useful for exporting the synthetic cellular traces to tools
// that consume the standard format.
func WriteMahimahi(w io.Writer, s *netem.RateSchedule, dur sim.Time) error {
	bw := bufio.NewWriter(w)
	// Walk the schedule emitting one timestamp per packet-time.
	t := sim.Time(0)
	for t < dur {
		rate := s.At(t)
		if rate <= 0 {
			t += 10 * sim.Millisecond
			continue
		}
		if _, err := fmt.Fprintf(bw, "%d\n", int64(t/sim.Millisecond)); err != nil {
			return err
		}
		t += sim.FromSeconds(netem.MTU * 8 / rate)
	}
	return bw.Flush()
}
