//go:build !race

package collector

import (
	"path/filepath"
	"runtime"
	"testing"

	"sage/internal/alloctest"
)

// saveAllocBound is what a Save may allocate once its encoder is built:
// the temporary file, the checksumming writer, the lanes' channel and
// goroutines. One deflater alone is about 1.2 MB, and one chunk buffer
// memberChunk bytes.
const saveAllocBound = 64 << 10

// Two garbage collections between two Saves take none of the encoder the
// first one gave back: the second builds no deflater and no chunk buffer,
// with one lane and with four.
func TestSaveAfterCollectionsAllocatesLittle(t *testing.T) {
	p := lanePool(8, 2000)
	path := filepath.Join(t.TempDir(), "pool")
	save := func() {
		if err := p.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	for _, procs := range []int{1, 4} {
		alloctest.MeasureAt(procs, save) // builds the encoder for this many lanes
		runtime.GC()
		runtime.GC()
		if got := alloctest.MeasureAt(procs, save); got.Bytes > saveAllocBound {
			t.Fatalf("GOMAXPROCS %d: a Save after two collections allocates %d bytes in %d objects, want ≤ %d", procs, got.Bytes, got.Mallocs, saveAllocBound)
		} else {
			t.Logf("GOMAXPROCS %d: %d bytes in %d objects", procs, got.Bytes, got.Mallocs)
		}
	}
}
