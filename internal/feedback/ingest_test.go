package feedback

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"sage/internal/chaos"
	"sage/internal/safeio"
	"sage/internal/telemetry"
)

// stVec builds a full-width GR state vector with the fields classification
// and labeling read.
func stVec(srttMs, floorMs, lossMbps, drMbps, drMaxMbps float64) []float64 {
	s := make([]float64, 69)
	s[idxSRTTMs] = srttMs
	s[idxSRTTLgMin] = floorMs
	s[idxLossMbps] = lossMbps
	s[idxDRMbps] = drMbps
	s[idxDRMaxMbps] = drMaxMbps
	return s
}

// regimeWindow builds an n-step window that classifies into the given
// regime and passes the quality gate.
func regimeWindow(sid uint64, regime string, n int) WindowRecord {
	rec := WindowRecord{SID: sid, Reason: "close"}
	for i := 0; i < n; i++ {
		jit := float64(i) * 0.01
		var s []float64
		switch regime {
		case RegimeLossy:
			s = stVec(20+jit, 20, 2, 50, 60)
		case RegimeBufferbloat:
			s = stVec(80+jit, 20, 0, 50, 60)
		case RegimeFlappy:
			dr := 10.0
			if i%2 == 1 {
				dr = 90
			}
			s = stVec(20+jit, 20, 0, dr, 95)
		default: // steady
			s = stVec(20+jit, 20, 0, 50, 60)
		}
		rec.States = append(rec.States, s)
		rec.Actions = append(rec.Actions, 1.0+jit)
	}
	return rec
}

func spoolWindows(t *testing.T, dir string, recs ...WindowRecord) {
	t.Helper()
	sp, err := OpenSpool(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Append(b); err != nil {
			t.Fatal(err)
		}
	}
}

func newTestIngester(t *testing.T, spoolDir, stateDir string, quota int) (*Ingester, *telemetry.Registry) {
	t.Helper()
	m := telemetry.NewRegistry()
	in, err := OpenIngester(IngestConfig{
		SpoolDir: spoolDir, StateDir: stateDir,
		QuotaPerRegime: quota, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in, m
}

// Every spool record gets exactly one disposition and the accounting
// identity holds: ingested == admitted + quarantined + skipped.
// Quarantined windows increment feedback.quarantined and never reach the
// pool; fallback-dominated windows are skipped, not trained on.
func TestIngestAccountingBalances(t *testing.T) {
	spoolDir, stateDir := t.TempDir(), t.TempDir()
	regimes := Regimes()
	var recs []WindowRecord
	for i, r := range regimes {
		recs = append(recs, regimeWindow(uint64(i+1), r, 4))
	}
	// One quarantine candidate (single step = truncated episode) and one
	// skip candidate (3 of 4 steps on the fallback path).
	recs = append(recs, regimeWindow(90, RegimeSteady, 1))
	skip := regimeWindow(91, RegimeSteady, 4)
	skip.Fallback = []int{0, 1, 2}
	recs = append(recs, skip)
	spoolWindows(t, spoolDir, recs...)

	in, m := newTestIngester(t, spoolDir, stateDir, 0)
	defer in.Close()
	n, err := in.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("polled %d records, want %d", n, len(recs))
	}

	c := in.Counts()
	if c.Ingested != 6 || c.Admitted != 4 || c.Quarantined != 1 || c.Skipped != 1 {
		t.Fatalf("counts = %+v", c)
	}
	if c.Ingested != c.Admitted+c.Quarantined+c.Skipped {
		t.Fatalf("accounting identity broken: %+v", c)
	}
	if got := m.Counter(MetricQuarantined).Value(); got != 1 {
		t.Fatalf("feedback.quarantined = %d, want 1", got)
	}
	if got := m.Counter(MetricSkipped).Value(); got != 1 {
		t.Fatalf("feedback.skipped = %d, want 1", got)
	}

	byRegime := in.PoolByRegime()
	total := 0
	for _, r := range regimes {
		if byRegime[r] != 1 {
			t.Fatalf("pool[%s] = %d, want 1 (by-regime: %v)", r, byRegime[r], byRegime)
		}
		total += byRegime[r]
	}
	if total != 4 {
		t.Fatalf("pool holds %d windows, want 4 — quarantined/skipped leaked in", total)
	}
	if pool := in.LivePool(); len(pool.Trajs) != 4 {
		t.Fatalf("live pool has %d trajectories, want 4", len(pool.Trajs))
	}
}

// Satellite: one hot regime cannot crowd out the others. Flooding the
// pool with steady windows keeps steady at its quota (freshest retained)
// and leaves other regimes' entries untouched.
func TestIngestRegimeQuotaUnderFlood(t *testing.T) {
	spoolDir, stateDir := t.TempDir(), t.TempDir()
	recs := []WindowRecord{regimeWindow(1, RegimeBufferbloat, 4)}
	for i := 0; i < 10; i++ {
		recs = append(recs, regimeWindow(uint64(10+i), RegimeSteady, 4))
	}
	spoolWindows(t, spoolDir, recs...)

	in, m := newTestIngester(t, spoolDir, stateDir, 3)
	if _, err := in.Poll(); err != nil {
		t.Fatal(err)
	}

	byRegime := in.PoolByRegime()
	if byRegime[RegimeSteady] != 3 || byRegime[RegimeBufferbloat] != 1 {
		t.Fatalf("by-regime after flood = %v, want steady 3 / bufferbloat 1", byRegime)
	}
	c := in.Counts()
	if c.Admitted != 11 || c.Evicted != 7 {
		t.Fatalf("admitted %d evicted %d, want 11/7", c.Admitted, c.Evicted)
	}
	if got := m.Counter(MetricPoolEvicted).Value(); got != 7 {
		t.Fatalf("feedback.pool_evicted = %d, want 7", got)
	}
	// Freshness-weighted: the retained steady windows are the newest three.
	wantSIDs := map[uint64]bool{17: true, 18: true, 19: true}
	for _, e := range in.pool[RegimeSteady] {
		if !wantSIDs[e.SID] {
			t.Fatalf("retained stale steady window sid %d, want the newest 3", e.SID)
		}
	}
	in.Close()

	// Replay rebuilds the identical pool: deterministic quota re-eviction.
	in2, _ := newTestIngester(t, spoolDir, stateDir, 3)
	defer in2.Close()
	byRegime2 := in2.PoolByRegime()
	if byRegime2[RegimeSteady] != 3 || byRegime2[RegimeBufferbloat] != 1 {
		t.Fatalf("replayed by-regime = %v", byRegime2)
	}
	for _, e := range in2.pool[RegimeSteady] {
		if !wantSIDs[e.SID] {
			t.Fatalf("replay retained stale steady window sid %d", e.SID)
		}
	}
	if c2 := in2.Counts(); c2.Evicted != 7 {
		t.Fatalf("replayed evicted = %d, want 7", c2.Evicted)
	}
}

// A reopened ingester resumes from the journaled cursor: nothing is
// reprocessed, new records are picked up exactly once.
func TestIngestResumeExactlyOnce(t *testing.T) {
	spoolDir, stateDir := t.TempDir(), t.TempDir()
	spoolWindows(t, spoolDir,
		regimeWindow(1, RegimeSteady, 4),
		regimeWindow(2, RegimeLossy, 4),
		regimeWindow(3, RegimeFlappy, 4),
	)

	in, _ := newTestIngester(t, spoolDir, stateDir, 0)
	if n, err := in.Poll(); err != nil || n != 3 {
		t.Fatalf("first poll = %d, %v", n, err)
	}
	before := in.Counts()
	in.Close()

	in2, _ := newTestIngester(t, spoolDir, stateDir, 0)
	defer in2.Close()
	if got := in2.Counts(); got.Admitted != before.Admitted || got.Ingested != before.Ingested {
		t.Fatalf("replayed counts %+v, want %+v", got, before)
	}
	if n, err := in2.Poll(); err != nil || n != 0 {
		t.Fatalf("re-poll processed %d records, want 0 (no reprocessing)", n)
	}

	spoolWindows(t, spoolDir, regimeWindow(4, RegimeBufferbloat, 4))
	if n, err := in2.Poll(); err != nil || n != 1 {
		t.Fatalf("poll after new window = %d, %v", n, err)
	}
	if c := in2.Counts(); c.Ingested != 4 || c.Admitted != 4 {
		t.Fatalf("final counts %+v", c)
	}
}

// The pool-log-then-journal crash window: a SIGKILL after the live pool
// log append but before the journal append leaves an orphan entry. The
// reopened ingester must adopt it — the record is reprocessed and
// journaled, but NOT appended to the pool log a second time.
func TestIngestOrphanPoolEntryAdopted(t *testing.T) {
	spoolDir, stateDir := t.TempDir(), t.TempDir()
	spoolWindows(t, spoolDir,
		regimeWindow(1, RegimeSteady, 4),
		regimeWindow(2, RegimeLossy, 4),
	)
	in, _ := newTestIngester(t, spoolDir, stateDir, 0)
	if n, err := in.Poll(); err != nil || n != 2 {
		t.Fatalf("poll = %d, %v", n, err)
	}

	// Window 3 arrives; simulate the crash: append its pool-log entry by
	// hand (what ingestOne does first) and die before journaling.
	w3 := regimeWindow(3, RegimeBufferbloat, 4)
	spoolWindows(t, spoolDir, w3)
	var orphanKey Cursor
	var orphanPayload []byte
	if _, err := TailSpool(spoolDir, in.Cursor(), func(pos Cursor, payload []byte) bool {
		orphanKey, orphanPayload = pos, append([]byte(nil), payload...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	var rec WindowRecord
	if err := json.Unmarshal(orphanPayload, &rec); err != nil {
		t.Fatal(err)
	}
	e := liveEntry{
		Key: orphanKey, Regime: ClassifyRegime(rec.States), SID: rec.SID,
		Reason: rec.Reason, Steps: LabelWindow(rec, in.cfg.GR),
	}
	if err := in.liveLog.Append(e); err != nil {
		t.Fatal(err)
	}
	in.Close() // "crash" before journaling

	in2, _ := newTestIngester(t, spoolDir, stateDir, 0)
	if c := in2.Counts(); c.Admitted != 2 {
		t.Fatalf("orphan counted before journaling: %+v", c)
	}
	if !in2.pending[orphanKey] {
		t.Fatal("orphan entry not adopted as pending")
	}
	if n, err := in2.Poll(); err != nil || n != 1 {
		t.Fatalf("resume poll = %d, %v", n, err)
	}
	if c := in2.Counts(); c.Admitted != 3 || c.Ingested != 3 {
		t.Fatalf("counts after adoption = %+v, want 3 admitted", c)
	}
	if by := in2.PoolByRegime(); by[RegimeBufferbloat] != 1 {
		t.Fatalf("adopted window missing from pool: %v", by)
	}
	in2.Close()

	// The pool log must hold exactly one record per admitted window — the
	// orphan was adopted, not appended again.
	logN := 0
	ll, err := safeio.OpenJournal(filepath.Join(stateDir, livePoolLogName), func(liveEntry) { logN++ })
	if err != nil {
		t.Fatal(err)
	}
	ll.Close()
	if logN != 3 {
		t.Fatalf("pool log holds %d records, want 3 (no duplicate for the orphan)", logN)
	}
}

// Compaction is all-or-nothing. With the rename failing (a kill just before
// it), the live pool log, its handle and its record count must stand, later
// windows must still be admitted, and the accounting must balance; once the
// fault clears the next poll compacts, and a reopen finds the same pool.
func TestIngestCompactionFaultKeepsIngesting(t *testing.T) {
	spoolDir, stateDir := t.TempDir(), t.TempDir()
	var recs []WindowRecord
	for i := 0; i < 70; i++ {
		recs = append(recs, regimeWindow(uint64(i+1), RegimeSteady, 4))
	}
	spoolWindows(t, spoolDir, recs...)
	in, _ := newTestIngester(t, spoolDir, stateDir, 2)
	countLog := func() int {
		t.Helper()
		n := 0
		r, err := safeio.OpenAppendLogReader(filepath.Join(stateDir, livePoolLogName))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if _, err := r.ReplayFrom(0, func([]byte) { n++ }); err != nil {
			t.Fatal(err)
		}
		return n
	}

	chaos.WithFaults(safeio.Hooks{BeforeRename: chaos.KillBeforeRename()}, func() {
		if n, err := in.Poll(); err != nil || n != 70 {
			t.Fatalf("poll under a failing rename = %d, %v", n, err)
		}
	})
	if in.logRecords != 70 || countLog() != 70 {
		t.Fatalf("failed compaction changed the log: count %d, file holds %d, want 70 and 70", in.logRecords, countLog())
	}
	if _, err := os.Stat(filepath.Join(stateDir, livePoolLogName+".compact")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("failed compaction left its temp file behind: %v", err)
	}

	skip := regimeWindow(102, RegimeSteady, 4)
	skip.Fallback = []int{0, 1, 2}
	spoolWindows(t, spoolDir, regimeWindow(100, RegimeLossy, 4), regimeWindow(101, RegimeSteady, 1), skip)
	if n, err := in.Poll(); err != nil || n != 3 {
		t.Fatalf("poll after the failed compaction = %d, %v", n, err)
	}
	c := in.Counts()
	if c.Admitted != 71 || c.Quarantined != 1 || c.Skipped != 1 || c.Ingested != c.Admitted+c.Quarantined+c.Skipped {
		t.Fatalf("counts after the failed compaction = %+v", c)
	}
	if in.logRecords != 3 || countLog() != 3 {
		t.Fatalf("compaction did not run once the fault cleared: count %d, file holds %d, want 3 and 3", in.logRecords, countLog())
	}

	// The compacted log is the one the handle now appends to.
	spoolWindows(t, spoolDir, regimeWindow(103, RegimeFlappy, 4))
	if n, err := in.Poll(); err != nil || n != 1 {
		t.Fatalf("poll after compaction = %d, %v", n, err)
	}
	want := in.PoolByRegime()
	in.Close()
	in2, _ := newTestIngester(t, spoolDir, stateDir, 2)
	defer in2.Close()
	if got := in2.PoolByRegime(); got[RegimeSteady] != 2 || got[RegimeLossy] != 1 || got[RegimeFlappy] != 1 || len(got) != len(want) {
		t.Fatalf("reopened pool = %v, want %v", got, want)
	}
	if c := in2.Counts(); c.Admitted != 72 || c.Evicted != 68 || c.Ingested != c.Admitted+c.Quarantined+c.Skipped {
		t.Fatalf("reopened counts = %+v", c)
	}
}
