package collector

import (
	"fmt"
	"sync/atomic"

	"sage/internal/safeio"
)

// A Manifest is the append-only ledger of a collection campaign: one
// record per cell as it completes ("ok") or fails permanently ("failed").
// sage-collect -resume reads it back to skip finished work. It is a
// safeio.Journal — checksummed records, fsync per append, flock — so a
// crash can at worst tear the final record, which the next open truncates.
type Manifest struct {
	journal *safeio.Journal[manifestEntry]
	err     atomic.Pointer[error] // first append failure; sticky, returned by Close
}

// manifestEntry is one record of the ledger.
type manifestEntry struct {
	Scheme string `json:"scheme"`
	Env    string `json:"env"`
	Status string `json:"status"` // "ok" | "failed"
	Err    string `json:"err,omitempty"`
}

// OpenManifest opens (creating if needed) the campaign ledger at path and
// returns it together with the status of every cell already recorded —
// later entries win, so a cell that failed in one run and succeeded on
// resume reads back as "ok". A plain-JSONL manifest from before the ledger
// was checksummed is refused, never repaired (safeio.ErrNotJournal).
func OpenManifest(path string) (*Manifest, map[CellKey]string, error) {
	done := map[CellKey]string{}
	j, err := safeio.OpenJournal(path, func(e manifestEntry) { done[CellKey{e.Scheme, e.Env}] = e.Status })
	if err != nil {
		return nil, nil, fmt.Errorf("collector: manifest: %w", err)
	}
	return &Manifest{journal: j}, done, nil
}

// Record appends one cell outcome and fsyncs it. It matches the
// Options.OnCell signature, so it can be passed directly to Collect.
// Write errors are reported on Close rather than per call — a worker
// finishing a rollout should not die because the ledger disk hiccuped.
func (m *Manifest) Record(scheme, env string, cellErr error) {
	e := manifestEntry{Scheme: scheme, Env: env, Status: "ok"}
	if cellErr != nil {
		e.Status = "failed"
		e.Err = cellErr.Error()
	}
	if err := m.journal.Append(e); err != nil {
		err = fmt.Errorf("collector: manifest: cell %s/%s not recorded (a -resume will redo it): %w", scheme, env, err)
		m.err.CompareAndSwap(nil, &err)
	}
}

// Close closes the ledger and reports the first Record that failed to
// reach it, if any. The file itself is kept; the caller removes it once
// the campaign's final pool is safely on disk.
func (m *Manifest) Close() error {
	cerr := m.journal.Close()
	if first := m.err.Load(); first != nil {
		return *first
	}
	return cerr
}
