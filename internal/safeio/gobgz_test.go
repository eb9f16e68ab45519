package safeio_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"sage/internal/collector"
	"sage/internal/netem"
	"sage/internal/safeio"
	"sage/internal/sim"
)

// BenchmarkWriteGobGz saves a collected pool of about 15 000 transitions,
// the size of the repo benchmark's collect_grid pool, through the artifact
// path: encode, compress, checksum, fsync, rename.
func BenchmarkWriteGobGz(b *testing.B) {
	scens := netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: 12500 * sim.Millisecond, Seed: 1})
	pool, err := collector.Collect(context.Background(), []string{"cubic", "vegas"}, scens, collector.Options{Parallel: 2})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "pool.gob.gz")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := safeio.WriteGobGz(path, pool); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(st.Size()), "file-B")
	b.ReportMetric(float64(pool.Transitions()), "transitions")
}
