package gr

import "sage/internal/sim"

// numSignals is how many raw signals the monitor keeps windows over: srtt,
// throughput, rtt rate, rttvar, inflight and newly lost packets, in the
// order of Table 1's windowed rows.
const numSignals = 6

// blockLen is how many consecutive samples one min/max summary covers; a
// block is summarized once, when its last sample arrives.
const blockLen = 25

// windows is a ring of the most recent Large samples of the six raw signals,
// one row per tick, answering avg/min/max over the trailing Small, Medium
// and Large samples — the observation windows of Section 7.4 — in one pass.
//
// Every statistic is bit for bit the one a per-signal newest-to-oldest scan
// of the window gives, NaN payloads aside (window_test.go keeps that scan as
// the oracle):
//   - each sum is one addition chain from 0.0 over the window, newest first,
//     and the windows' sums are snapshots of one chain per signal, so a
//     shorter window's chain is a prefix of a longer one's;
//   - min starts at the newest sample and is replaced only by a strictly
//     smaller one, so a NaN newest sample yields NaN, older NaNs are never
//     taken, and among equal values (±0) the newest wins; max likewise.
//     Block summaries keep exactly that over their non-NaN samples, so a
//     query can read whole blocks in place of their samples.
type windows struct {
	ring  [][numSignals]float64 // sample t (counted from 0) at ring[t%len(ring)]
	total int                   // samples pushed
	// blocks[b%len(blocks)] summarizes samples [b*blockLen, (b+1)*blockLen)
	// once they are all in; nil when the ring is shorter than a block.
	blocks []block
}

// block is the min/max of one block's non-NaN samples per signal, taken
// newest first with strict comparisons; has is false for a signal whose
// samples in the block are all NaN.
type block struct {
	min, max [numSignals]float64
	has      [numSignals]bool
}

// releasedWindows holds the windows of released monitors. A query reads only
// samples pushed since total was last zero, and blocks it has summarized
// since, so windows of the same length serve a new monitor once their count
// is reset.
var releasedWindows sim.Pool[*windows]

func newWindows(large int) *windows {
	if large < 1 {
		large = 1
	}
	if w := releasedWindows.Get(); w != nil && len(w.ring) == large {
		w.total = 0
		return w
	}
	w := &windows{ring: make([][numSignals]float64, large)}
	if large >= blockLen {
		// A block that lies whole within the last len(ring) samples is
		// fewer than len(ring)/blockLen blocks behind the newest one.
		w.blocks = make([]block, large/blockLen)
	}
	return w
}

func (w *windows) push(row [numSignals]float64) {
	w.ring[w.total%len(w.ring)] = row
	w.total++
	if w.blocks == nil || w.total%blockLen != 0 {
		return
	}
	b := &w.blocks[(w.total/blockLen-1)%len(w.blocks)]
	*b = block{}
	for t := w.total - 1; t >= w.total-blockLen; t-- {
		row := &w.ring[t%len(w.ring)]
		for s, v := range row {
			switch {
			case v != v: // NaN
			case !b.has[s]:
				b.min[s], b.max[s], b.has[s] = v, v, true
			case v < b.min[s]:
				b.min[s] = v
			case v > b.max[s]:
				b.max[s] = v
			}
		}
	}
}

// appendStats appends, for each signal, avg, min and max over the trailing
// k[0], k[1] and k[2] samples (or every sample held, if fewer), and zeros
// for a window that holds none.
func (w *windows) appendStats(dst []float64, k [3]int) []float64 {
	count := min(w.total, len(w.ring))
	var n [3]int
	for i := range k {
		n[i] = min(k[i], count)
	}
	sums := w.sums(n)
	var mins, maxs [3][numSignals]float64
	for i := range n {
		if n[i] > 0 {
			mins[i], maxs[i] = w.minMax(n[i])
		}
	}
	for s := 0; s < numSignals; s++ {
		for i := range n {
			if n[i] <= 0 {
				dst = append(dst, 0, 0, 0)
				continue
			}
			dst = append(dst, sums[i][s]/float64(n[i]), mins[i][s], maxs[i][s])
		}
	}
	return dst
}

// sums returns each signal's sum over the trailing n[i] samples: one
// newest-to-oldest pass with an addition chain per signal, read off as it
// passes each window's length.
func (w *windows) sums(n [3]int) (out [3][numSignals]float64) {
	order := [3]int{0, 1, 2}
	for i := 1; i < 3; i++ {
		for j := i; j > 0 && n[order[j]] < n[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var a0, a1, a2, a3, a4, a5 float64
	slot := (w.total - 1) % len(w.ring)
	done := 0
	for _, i := range order {
		for ; done < n[i]; done++ {
			row := &w.ring[slot]
			a0 += row[0]
			a1 += row[1]
			a2 += row[2]
			a3 += row[3]
			a4 += row[4]
			a5 += row[5]
			if slot--; slot < 0 {
				slot = len(w.ring) - 1
			}
		}
		out[i] = [numSignals]float64{a0, a1, a2, a3, a4, a5}
	}
	return out
}

// minMax returns each signal's min and max over the trailing n ≥ 1 samples:
// the newest sample, then the samples and whole blocks behind it, newest
// first.
func (w *windows) minMax(n int) (mn, mx [numSignals]float64) {
	lo := w.total - n
	t := w.total - 1
	mn = w.ring[t%len(w.ring)]
	mx = mn
	for t--; t >= lo; {
		if w.blocks != nil && (t+1)%blockLen == 0 && t+1-blockLen >= lo {
			b := &w.blocks[(t/blockLen)%len(w.blocks)]
			for s := range mn {
				if !b.has[s] {
					continue
				}
				if b.min[s] < mn[s] {
					mn[s] = b.min[s]
				}
				if b.max[s] > mx[s] {
					mx[s] = b.max[s]
				}
			}
			t -= blockLen
			continue
		}
		row := &w.ring[t%len(w.ring)]
		for s, v := range row {
			if v < mn[s] {
				mn[s] = v
			}
			if v > mx[s] {
				mx[s] = v
			}
		}
		t--
	}
	return mn, mx
}
