package collector

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sage/internal/safeio"
)

// A Record that cannot reach the ledger must not vanish: the first failure
// is sticky and comes back from Close, naming the cell a -resume will redo.
func TestManifestCloseReportsFailedRecord(t *testing.T) {
	m, _, err := OpenManifest(filepath.Join(t.TempDir(), "pool.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	m.Record("cubic", "env-a", nil)
	m.journal.Close() // the ledger's fd dies under the campaign
	m.Record("vegas", "env-b", nil)
	m.Record("bbr2", "env-c", nil)
	err = m.Close()
	if err == nil || !strings.Contains(err.Error(), "vegas/env-b") {
		t.Fatalf("Close = %v, want the first failed record (vegas/env-b)", err)
	}
}

// A manifest written before the ledger was checksummed is plain JSONL.
// Opening it as a journal would truncate every line as a torn tail and a
// -resume would redo the whole campaign; it must be refused untouched.
func TestManifestRejectsPlainJSONLIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.manifest")
	old := `{"scheme":"cubic","env":"env-a","status":"ok"}` + "\n" +
		`{"scheme":"vegas","env":"env-a","status":"failed","err":"worker panic: boom"}` + "\n" +
		`{"scheme":"vegas","env":"en`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenManifest(path); !errors.Is(err, safeio.ErrNotJournal) || !strings.Contains(err.Error(), path) {
		t.Fatalf("OpenManifest(old format) = %v, want ErrNotJournal naming the file", err)
	}
	if raw, err := os.ReadFile(path); err != nil || string(raw) != old {
		t.Fatalf("old-format manifest was modified: %q, %v", raw, err)
	}
}
