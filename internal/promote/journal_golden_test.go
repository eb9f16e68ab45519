package promote_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"sage/internal/promote"
)

// goldenRegistryJournal pins registry.journal's on-disk bytes across
// commits: a registry dir written by one binary must reopen in the next.
// It changes only with a CHANGES.md sentence saying why.
const goldenRegistryJournal = "0d96b3ef12891277"

// TestGoldenRegistryJournal walks every transition — two promotions, a
// rejection, then a demotion back to the first incumbent — digests the
// journal and checks the state machine a reopen replays out of it.
func TestGoldenRegistryJournal(t *testing.T) {
	dir := t.TempDir()
	r, err := promote.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	publish := func(u float64, meta promote.Meta) string {
		t.Helper()
		id, err := r.Publish(constModel(u), meta)
		must(err)
		return id
	}
	a := publish(-1, promote.Meta{Provenance: "boot", TrainStep: 100})
	must(r.Promote(a, "bootstrap"))
	b := publish(0, promote.Meta{Provenance: "trainer", TrainStep: 7})
	must(r.Promote(b, "gate verdict"))
	c := publish(0.5, promote.Meta{ID: "named", Provenance: "trainer"})
	must(r.Reject(c, "gate: regresses"))
	restored, err := r.Demote("watchdog: fallback ratio")
	must(err)
	if restored != a {
		t.Fatalf("demote restored %s, want %s", restored, a)
	}
	must(r.Close())

	raw, err := os.ReadFile(filepath.Join(dir, promote.JournalName))
	must(err)
	h := fnv.New64a()
	h.Write(raw)
	if got := fmt.Sprintf("%016x", h.Sum64()); got != goldenRegistryJournal {
		t.Errorf("journal digest = %s, want %s\n%s", got, goldenRegistryJournal, raw)
	}

	r2, err := promote.OpenRegistry(dir)
	must(err)
	defer r2.Close()
	got := ""
	for _, m := range r2.List() {
		got += fmt.Sprintf("%s %s step=%d note=%q\n", m.ID, m.State, m.TrainStep, m.Note)
	}
	want := "boot-b6fabfdb63 incumbent step=100 note=\"bootstrap\"\n" +
		"named rejected step=0 note=\"gate: regresses\"\n" +
		"trainer-42430a8985 demoted step=7 note=\"watchdog: fallback ratio\"\n"
	if got != want {
		t.Errorf("reopened registry:\n%swant:\n%s", got, want)
	}
	if inc, ok := r2.Incumbent(); !ok || inc.ID != a {
		t.Errorf("reopened incumbent = %+v, want %s", inc, a)
	}
}
