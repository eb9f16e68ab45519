package serve

import (
	"testing"

	"sage/internal/gr"
)

// The re-prime ring keeps the last limit decided states, oldest first, in
// one flat buffer whose rows are carved once: a session's ring costs two
// allocations however many decisions it records.
func TestRecordWindowKeepsLastStatesInOneBuffer(t *testing.T) {
	const limit = 8
	state := func(k int) []float64 {
		v := make([]float64, gr.StateDim)
		for j := range v {
			v[j] = float64(k*1000 + j)
		}
		return v
	}
	for _, n := range []int{3, limit, 20} {
		var s session
		for k := 0; k < n; k++ {
			s.recordWindow(state(k), limit)
		}
		got := s.windowOrdered()
		first := max(0, n-limit)
		if len(got) != n-first {
			t.Fatalf("%d records: window holds %d states, want %d", n, len(got), n-first)
		}
		for i, row := range got {
			want := state(first + i)
			if len(row) != len(want) {
				t.Fatalf("%d records: row %d has %d values, want %d", n, i, len(row), len(want))
			}
			for j := range want {
				if row[j] != want[j] {
					t.Fatalf("%d records: row %d[%d] = %v, want %v", n, i, j, row[j], want[j])
				}
			}
		}
	}

	st := state(1)
	allocs := testing.AllocsPerRun(20, func() {
		var s session
		for k := 0; k < 3*limit; k++ {
			s.recordWindow(st, limit)
		}
	})
	if allocs != 2 {
		t.Fatalf("a session's ring allocates %v times over %d records, want 2", allocs, 3*limit)
	}
}

// A state of another length than the ring was carved for gets a row of its
// own and is replayed whole.
func TestRecordWindowOtherLength(t *testing.T) {
	var s session
	s.recordWindow([]float64{1, 2, 3}, 2)
	s.recordWindow([]float64{4, 5, 6, 7}, 2)
	s.recordWindow([]float64{8}, 2)
	got := s.windowOrdered()
	if len(got) != 2 || len(got[0]) != 4 || got[0][3] != 7 || len(got[1]) != 1 || got[1][0] != 8 {
		t.Fatalf("window = %v, want [[4 5 6 7] [8]]", got)
	}
}
