package collector

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sage/internal/safeio"

	"sage/internal/gr"
	"sage/internal/netem"
	"sage/internal/sim"
	"sage/internal/telemetry"
)

// mustCollect is a test helper: Collect with a background context,
// failing the test on error.
func mustCollect(t *testing.T, schemes []string, scens []netem.Scenario, opt Options) *Pool {
	t.Helper()
	p, err := Collect(context.Background(), schemes, scens, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func tinyScenarios() []netem.Scenario {
	setI := netem.SetI(netem.SetIOptions{Level: netem.GridTiny, Duration: 3 * sim.Second})[:2]
	setII := netem.SetII(netem.SetIIOptions{Level: netem.GridTiny, Duration: 5 * sim.Second})[:2]
	return append(setI, setII...)
}

func TestCollectBuildsPool(t *testing.T) {
	pool := mustCollect(t, []string{"cubic", "vegas"}, tinyScenarios(), Options{Parallel: 4})
	if len(pool.Trajs) != 8 {
		t.Fatalf("trajectories = %d", len(pool.Trajs))
	}
	if pool.Transitions() == 0 {
		t.Fatal("no transitions")
	}
	multi, single := 0, 0
	for _, tr := range pool.Trajs {
		if len(tr.Steps) == 0 {
			t.Fatalf("empty trajectory %s/%s", tr.Scheme, tr.Env)
		}
		if tr.MultiFlow {
			multi++
		} else {
			single++
		}
		for _, s := range tr.Steps {
			if len(s.State) != gr.StateDim {
				t.Fatalf("state dim %d", len(s.State))
			}
		}
	}
	if multi != 4 || single != 4 {
		t.Fatalf("multi=%d single=%d", multi, single)
	}
	if got := pool.Schemes(); len(got) != 2 {
		t.Fatalf("schemes = %v", got)
	}
}

func TestPoolFilters(t *testing.T) {
	pool := mustCollect(t, []string{"cubic", "vegas", "newreno"}, tinyScenarios()[:2], Options{Parallel: 4})
	f := pool.FilterSchemes("vegas")
	if len(f.Trajs) != 2 {
		t.Fatalf("filtered = %d", len(f.Trajs))
	}
	for _, tr := range f.Trajs {
		if tr.Scheme != "vegas" {
			t.Fatalf("leaked %s", tr.Scheme)
		}
	}
	w := pool.WinnersPerEnv()
	if len(w.Trajs) != 2 { // one winner per env
		t.Fatalf("winners = %d", len(w.Trajs))
	}
	for _, tr := range w.Trajs {
		for _, other := range pool.Trajs {
			if other.Env == tr.Env && other.Score > tr.Score {
				t.Fatalf("winner %s beaten by %s in %s", tr.Scheme, other.Scheme, tr.Env)
			}
		}
	}
	top := pool.TopSchemes(2)
	if len(top) == 0 || len(top) > 4 {
		t.Fatalf("top schemes = %v", top)
	}
}

func TestPoolSaveLoadRoundTrip(t *testing.T) {
	pool := mustCollect(t, []string{"cubic"}, tinyScenarios()[:1], Options{Parallel: 2})
	path := filepath.Join(t.TempDir(), "pool.gob.gz")
	if err := pool.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Transitions() != pool.Transitions() || len(got.Trajs) != len(pool.Trajs) {
		t.Fatalf("round trip mismatch: %d vs %d", got.Transitions(), pool.Transitions())
	}
	if got.Trajs[0].Scheme != "cubic" || got.Trajs[0].Score != pool.Trajs[0].Score {
		t.Fatal("trajectory metadata lost")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestMerge(t *testing.T) {
	a := mustCollect(t, []string{"cubic"}, tinyScenarios()[:1], Options{Parallel: 2})
	b := mustCollect(t, []string{"vegas"}, tinyScenarios()[1:2], Options{Parallel: 2})
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Trajs) != 2 {
		t.Fatalf("merged = %d", len(m.Trajs))
	}
	empty, err := Merge()
	if err != nil {
		t.Fatal(err)
	}
	if empty.Transitions() != 0 {
		t.Fatal("empty merge")
	}
}

func TestMergeGRMismatch(t *testing.T) {
	sc := tinyScenarios()[:1]
	a := mustCollect(t, []string{"cubic"}, sc, Options{Parallel: 2})
	b := mustCollect(t, []string{"cubic"}, sc, Options{Parallel: 2, GR: gr.Config{}.WithUniformWindow(5)})
	if _, err := Merge(a, b); err == nil {
		t.Fatal("GR config mismatch silently merged")
	}
	// An unset config and its explicit defaults are the same config.
	c := &Pool{GR: gr.Config{}}
	d := &Pool{GR: gr.Config{}.Fill()}
	if _, err := Merge(c, d); err != nil {
		t.Fatalf("default-equivalent configs rejected: %v", err)
	}
}

func TestDegeneratePools(t *testing.T) {
	var empty Pool
	if empty.Transitions() != 0 {
		t.Fatal("empty pool has transitions")
	}
	if s := empty.Schemes(); len(s) != 0 {
		t.Fatalf("empty pool schemes = %v", s)
	}
	// Trajectories with 0 or 1 steps contribute no transitions but do
	// contribute scheme names.
	p := Pool{Trajs: []Trajectory{
		{Scheme: "cubic"},
		{Scheme: "vegas", Steps: make([]gr.Step, 1)},
		{Scheme: "cubic", Steps: make([]gr.Step, 3)},
	}}
	if got := p.Transitions(); got != 2 {
		t.Fatalf("transitions = %d, want 2", got)
	}
	if got := p.Schemes(); len(got) != 2 || got[0] != "cubic" || got[1] != "vegas" {
		t.Fatalf("schemes = %v", got)
	}
	if w := p.WinnersPerEnv(); len(w.Trajs) != 1 {
		t.Fatalf("winners of degenerate pool = %d", len(w.Trajs))
	}
}

func TestCollectProgress(t *testing.T) {
	var buf bytes.Buffer
	total := int64(2 * len(tinyScenarios()))
	p := telemetry.NewProgress(&buf, "rollouts", total, time.Nanosecond)
	pool := mustCollect(t, []string{"cubic", "vegas"}, tinyScenarios(), Options{Parallel: 4, Progress: p})
	p.Finish()
	if p.Done() != total {
		t.Fatalf("progress done = %d, want %d", p.Done(), total)
	}
	if got := p.Extra(); got != int64(pool.Transitions()) {
		t.Fatalf("progress transitions = %d, want %d", got, pool.Transitions())
	}
	if !strings.Contains(buf.String(), "rollouts: 8/8") {
		t.Fatalf("progress output = %q", buf.String())
	}
}

func TestCollectDeterministic(t *testing.T) {
	sc := tinyScenarios()[:1]
	p1 := mustCollect(t, []string{"cubic"}, sc, Options{Parallel: 1})
	p2 := mustCollect(t, []string{"cubic"}, sc, Options{Parallel: 3})
	if p1.Transitions() != p2.Transitions() {
		t.Fatalf("nondeterministic: %d vs %d", p1.Transitions(), p2.Transitions())
	}
	s1 := p1.Trajs[0].Steps
	s2 := p2.Trajs[0].Steps
	for i := range s1 {
		if s1[i].Action != s2[i].Action || s1[i].Reward != s2[i].Reward {
			t.Fatalf("step %d differs across parallelism", i)
		}
	}
}

// TestResumeProducesIdenticalPool models sage-collect -resume: a campaign
// interrupted partway (first half of the cells done) and resumed (second
// half, skipping the first) must merge into a pool deeply equal to an
// uninterrupted run.
func TestResumeProducesIdenticalPool(t *testing.T) {
	schemes := []string{"cubic", "vegas"}
	scens := tinyScenarios()

	full := mustCollect(t, schemes, scens, Options{Parallel: 4})
	full.SortByCell()

	// "Interrupted": only cells of the first scheme completed.
	firstHalf := func(scheme, env string) bool { return scheme != "cubic" }
	prior := mustCollect(t, schemes, scens, Options{Parallel: 4, Skip: firstHalf})
	// "Resumed": skip exactly what the partial pool holds.
	skip := prior.Cells()
	rest := mustCollect(t, schemes, scens, Options{Parallel: 4, Skip: func(scheme, env string) bool {
		return skip[CellKey{scheme, env}]
	}})

	merged, err := Merge(prior, rest)
	if err != nil {
		t.Fatal(err)
	}
	merged.SortByCell()

	if !reflect.DeepEqual(merged, full) {
		t.Fatalf("resumed pool differs from uninterrupted run: %d vs %d trajs",
			len(merged.Trajs), len(full.Trajs))
	}
}

// TestCollectCancelledContext: a cancelled context returns immediately
// with its error and whatever completed (here: nothing).
func TestCollectCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := Collect(ctx, []string{"cubic"}, tinyScenarios(), Options{Parallel: 2})
	if err == nil {
		t.Fatal("cancelled collect reported success")
	}
	if len(p.Trajs) != 0 {
		t.Fatalf("cancelled collect produced %d trajs", len(p.Trajs))
	}
}

// TestCollectUnknownScheme fails fast with the known-scheme list.
func TestCollectUnknownScheme(t *testing.T) {
	_, err := Collect(context.Background(), []string{"cubic", "reno3000"}, tinyScenarios(), Options{})
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if !strings.Contains(err.Error(), "reno3000") || !strings.Contains(err.Error(), "cubic") {
		t.Fatalf("error not actionable: %v", err)
	}
}

// TestOnCellReportsEveryOutcome: the manifest hook sees one call per
// completed cell.
func TestOnCellReportsEveryOutcome(t *testing.T) {
	var mu sync.Mutex
	calls := map[CellKey]bool{}
	scens := tinyScenarios()[:2]
	mustCollect(t, []string{"cubic", "vegas"}, scens, Options{
		Parallel: 2,
		OnCell: func(scheme, env string, err error) {
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				t.Errorf("cell %s/%s failed: %v", scheme, env, err)
			}
			calls[CellKey{scheme, env}] = true
		},
	})
	if len(calls) != 4 {
		t.Fatalf("OnCell saw %d cells, want 4", len(calls))
	}
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.manifest")
	m, seen, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 0 {
		t.Fatalf("fresh manifest has %d entries", len(seen))
	}
	m.Record("cubic", "env-a", nil)
	m.Record("vegas", "env-a", errors.New("worker panic: boom"))
	m.Record("vegas", "env-a", nil) // later entries win
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, seen, err := OpenManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if seen[CellKey{"cubic", "env-a"}] != "ok" || seen[CellKey{"vegas", "env-a"}] != "ok" {
		t.Fatalf("manifest state = %v", seen)
	}
}

// TestPoolLoadDetectsCorruption: collector.Load reports corruption of the
// saved pool via safeio instead of a bare gzip/gob error.
func TestPoolLoadDetectsCorruption(t *testing.T) {
	pool := mustCollect(t, []string{"cubic"}, tinyScenarios()[:1], Options{Parallel: 2})
	path := filepath.Join(t.TempDir(), "pool.gob.gz")
	if err := pool.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	raw[len(raw)/3] ^= 0x10
	os.WriteFile(path, raw, 0o644)
	if _, err := Load(path); !errors.Is(err, safeio.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}
