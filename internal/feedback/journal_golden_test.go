package feedback

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"sage/internal/promote"
)

// The golden digests pin the feedback plane's three ledgers byte for byte
// across commits: a state dir written by one binary must reopen in the
// next. A constant changes only with a CHANGES.md sentence saying why.
// goldenLoopJournal embeds the candidate's id, which is the fingerprint of
// a four-step retrain: a change to the learner's outputs (pinned in
// internal/rl/golden_test.go) moves it too.
const (
	goldenIngestJournal = "7b11c4c7021f9353"
	goldenLivePoolLog   = "a0420ab6f5fcedd1"
	goldenLoopJournal   = "10d0a01185a924ec"
)

func fileDigest(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenIngestJournals feeds an ingester a fixed six-window spool —
// one admitted window per regime, one quarantined, one skipped — and
// digests both of its logs, then checks what a reopen folds out of them.
func TestGoldenIngestJournals(t *testing.T) {
	spoolDir, stateDir := t.TempDir(), t.TempDir()
	var recs []WindowRecord
	for i, r := range Regimes() {
		recs = append(recs, regimeWindow(uint64(i+1), r, 4))
	}
	recs = append(recs, regimeWindow(90, RegimeSteady, 1)) // truncated episode: quarantined
	skip := regimeWindow(91, RegimeSteady, 4)
	skip.Fallback = []int{0, 1, 2}
	recs = append(recs, skip)
	spoolWindows(t, spoolDir, recs...)

	in, _ := newTestIngester(t, spoolDir, stateDir, 0)
	if n, err := in.Poll(); err != nil || n != 6 {
		t.Fatalf("poll = %d, %v", n, err)
	}
	cursor := in.Cursor()
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileDigest(t, filepath.Join(stateDir, ingestJournalName)); got != goldenIngestJournal {
		t.Errorf("%s digest = %s, want %s", ingestJournalName, got, goldenIngestJournal)
	}
	if got := fileDigest(t, filepath.Join(stateDir, livePoolLogName)); got != goldenLivePoolLog {
		t.Errorf("%s digest = %s, want %s", livePoolLogName, got, goldenLivePoolLog)
	}

	in2, _ := newTestIngester(t, spoolDir, stateDir, 0)
	defer in2.Close()
	c := in2.Counts()
	if c.Ingested != 6 || c.Admitted != 4 || c.Quarantined != 1 || c.Skipped != 1 || c.Evicted != 0 {
		t.Errorf("reopened counts = %+v", c)
	}
	if in2.Cursor() != cursor || cursor.Seg != 1 || cursor.Off == 0 {
		t.Errorf("reopened cursor = %s, want %s", in2.Cursor(), cursor)
	}
	for _, r := range Regimes() {
		if in2.PoolByRegime()[r] != 1 || c.ByRegime[r] != 1 {
			t.Errorf("reopened pool[%s] = %d, admitted %d, want 1 and 1", r, in2.PoolByRegime()[r], c.ByRegime[r])
		}
	}
	if n, err := in2.Poll(); err != nil || n != 0 {
		t.Errorf("re-poll after reopen = %d, %v; want nothing left", n, err)
	}
}

// TestGoldenLoopJournal runs one round on an empty registry (round →
// published → verdict) and digests the loop journal, then checks where a
// reopened loop resumes.
func TestGoldenLoopJournal(t *testing.T) {
	d := newLoopDirs(t)
	spoolTriggerWindows(t, d.spool, 0)
	cfg := testLoopConfig(d)
	lp, err := OpenLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := lp.Step(context.Background()); err != nil || !done {
		t.Fatalf("round: done=%v err=%v", done, err)
	}
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileDigest(t, filepath.Join(d.state, loopJournalName)); got != goldenLoopJournal {
		raw, _ := os.ReadFile(filepath.Join(d.state, loopJournalName))
		t.Errorf("%s digest = %s, want %s\n%s", loopJournalName, got, goldenLoopJournal, raw)
	}

	lp2, err := OpenLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lp2.Close()
	if n, open := lp2.Round(); n != 1 || open {
		t.Errorf("reopened round = (%d, open=%v), want round 1 closed", n, open)
	}
	if done, err := lp2.Step(context.Background()); err != nil || done {
		t.Errorf("reopened loop started a round without fresh admissions: done=%v err=%v", done, err)
	}
	reg, err := promote.OpenRegistry(d.registry)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if inc, ok := reg.Incumbent(); !ok || inc.ID != "sage-loop-b04206e108" {
		t.Errorf("incumbent = %+v, want sage-loop-b04206e108", inc)
	}
}
