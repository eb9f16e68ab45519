package feedback

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"sage/internal/collector"
	"sage/internal/gr"
	"sage/internal/safeio"
	"sage/internal/telemetry"
)

// Ingest metric names. Per-regime admitted counts are exported as
// "feedback.admitted.<regime>".
const (
	MetricIngested    = "feedback.ingested"
	MetricAdmitted    = "feedback.admitted"
	MetricQuarantined = "feedback.quarantined"
	MetricSkipped     = "feedback.skipped"
	MetricPoolEvicted = "feedback.pool_evicted"
	MetricPoolSize    = "feedback.pool_size"
)

// Dispositions. Every spool record gets exactly one, journaled with the
// cursor just past the record, so spool accounting always balances:
// ingested == admitted + quarantined + skipped.
const (
	DispAdmitted    = "admitted"    // passed the gate, entered the live pool
	DispQuarantined = "quarantined" // failed the collector quality gate
	DispSkipped     = "skipped"     // not policy experience (fallback-dominated)
)

// File names inside the ingester's state directory.
const (
	ingestJournalName = "ingest.journal"
	livePoolLogName   = "live.pool.log"
)

// IngestConfig tunes an Ingester.
type IngestConfig struct {
	SpoolDir string // the serving plane's spool (read-only tail)
	StateDir string // ingest journal + live pool log live here
	// GR provides the reward constants (ξ, κ) for proxy labeling.
	GR gr.Config
	// QuotaPerRegime caps admitted windows retained per regime (default
	// 64): admission is freshness-weighted — a full regime admits the new
	// window and evicts its oldest — so one hot regime can neither crowd
	// out the others nor pin the pool to stale experience.
	QuotaPerRegime int
	// MaxFallbackFrac skips windows whose fallback share exceeds it
	// (default 0.5): a window served mostly by the safety path is
	// evidence about outages, not about the policy's actions.
	MaxFallbackFrac float64
	Metrics         *telemetry.Registry
}

func (c IngestConfig) fill() IngestConfig {
	if c.QuotaPerRegime <= 0 {
		c.QuotaPerRegime = 64
	}
	if c.MaxFallbackFrac <= 0 {
		c.MaxFallbackFrac = 0.5
	}
	return c
}

// liveEntry is one admitted window in the live pool (and one record of
// the live pool log). Key is the spool cursor just past the source
// record: globally monotonic, so it doubles as admission order and as the
// exactly-once join key between the pool log and the ingest journal.
type liveEntry struct {
	Key    Cursor    `json:"key"`
	Regime string    `json:"regime"`
	SID    uint64    `json:"sid"`
	Reason string    `json:"reason"`
	Steps  []gr.Step `json:"steps"`
	// Fallback lists step indices served by the safety no-op path; shadow
	// replay needs them because divergence is only meaningful on steps the
	// policy actually decided.
	Fallback []int `json:"fb,omitempty"`
}

// sortEntries orders entries by spool cursor (admission order).
func sortEntries(entries []liveEntry) {
	sort.Slice(entries, func(i, j int) bool { return cursorLess(entries[i].Key, entries[j].Key) })
}

// journalRecord is one disposition in the ingest journal.
type journalRecord struct {
	Key    Cursor `json:"key"`
	Disp   string `json:"disp"`
	Regime string `json:"regime"`
	SID    uint64 `json:"sid"`
	Why    string `json:"why,omitempty"`
}

// Counts is the ingester's journal-derived accounting.
type Counts struct {
	Ingested    int
	Admitted    int
	Quarantined int
	Skipped     int
	Evicted     int            // admitted entries later displaced by quota
	ByRegime    map[string]int // admitted per regime (pre-eviction)
}

// Ingester tails the spool, labels and gates each window, and maintains
// the regime-balanced live experience pool. All state needed to resume
// after SIGKILL lives in two append-only logs:
//
//	ingest.journal — one disposition per spool record, with the spool
//	                 cursor after it; the last record is the resume point.
//	live.pool.log  — full steps of every admitted window.
//
// The write order is pool-log-then-journal: a crash between the two
// leaves an orphan pool entry whose key is ahead of the journal cursor,
// which the reopened ingester detects and adopts instead of re-appending —
// so no window is ever admitted twice, and none is lost.
type Ingester struct {
	cfg     IngestConfig
	journal *safeio.Journal[journalRecord]
	liveLog *safeio.Journal[liveEntry]
	cursor  Cursor
	counts  Counts

	pool       map[string][]liveEntry // regime → admitted, oldest first
	pending    map[Cursor]bool        // pool-log entries not yet journaled
	logRecords int                    // live pool log length, for compaction
}

// OpenIngester replays the state directory's logs and returns an ingester
// positioned at the journaled spool cursor.
func OpenIngester(cfg IngestConfig) (*Ingester, error) {
	cfg = cfg.fill()
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, err
	}
	in := &Ingester{
		cfg:     cfg,
		pool:    make(map[string][]liveEntry),
		pending: make(map[Cursor]bool),
		counts:  Counts{ByRegime: make(map[string]int)},
	}

	admitted := make(map[Cursor]bool)
	jr, err := safeio.OpenJournal(filepath.Join(cfg.StateDir, ingestJournalName), func(r journalRecord) {
		in.applyDisp(r)
		if r.Disp == DispAdmitted {
			admitted[r.Key] = true
		}
	})
	if err != nil {
		return nil, err
	}
	in.journal = jr

	var entries []liveEntry
	ll, err := safeio.OpenJournal(filepath.Join(cfg.StateDir, livePoolLogName), func(e liveEntry) { entries = append(entries, e) })
	if err != nil {
		jr.Close()
		return nil, err
	}
	in.liveLog = ll
	in.logRecords = len(entries)

	// Rebuild the pool by re-admitting journaled entries in key order; the
	// quota rule re-evicts deterministically, so the pool matches what was
	// in memory at the crash. Entries ahead of the journal cursor are the
	// pool-log-then-journal crash window: adopt them as pending so the
	// record's reprocessing journals it without a duplicate append.
	sortEntries(entries)
	for _, e := range entries {
		if admitted[e.Key] {
			in.admitToPool(e, false)
		} else if !cursorLess(e.Key, in.cursor) { // e.Key > cursor: orphan
			in.pending[e.Key] = true
		}
		// An entry neither journaled nor ahead of the cursor would mean a
		// journal that skipped a key — impossible with ordered appends —
		// so it is simply stale (pre-compaction duplicate) and ignored.
	}
	in.counts.Evicted = in.counts.Admitted - in.poolSize()
	in.cfg.Metrics.Gauge(MetricPoolSize).Set(float64(in.poolSize()))
	return in, nil
}

func cursorLess(a, b Cursor) bool {
	if a.Seg != b.Seg {
		return a.Seg < b.Seg
	}
	return a.Off < b.Off
}

// admitToPool inserts e and applies the regime quota, evicting the oldest
// entry of the same regime when over. count=true updates eviction
// telemetry (false during replay, which recounts from the journal).
func (in *Ingester) admitToPool(e liveEntry, count bool) {
	q := in.pool[e.Regime]
	q = append(q, e)
	if len(q) > in.cfg.QuotaPerRegime {
		q = q[1:]
		if count {
			in.counts.Evicted++
			in.cfg.Metrics.Counter(MetricPoolEvicted).Inc()
		}
	}
	in.pool[e.Regime] = q
}

func (in *Ingester) poolSize() int {
	n := 0
	for _, q := range in.pool {
		n += len(q)
	}
	return n
}

// Cursor returns the journaled resume position in the spool.
func (in *Ingester) Cursor() Cursor { return in.cursor }

// Counts returns a copy of the journal-derived accounting.
func (in *Ingester) Counts() Counts {
	c := in.counts
	c.ByRegime = make(map[string]int, len(in.counts.ByRegime))
	for k, v := range in.counts.ByRegime {
		c.ByRegime[k] = v
	}
	return c
}

// Poll tails the spool from the journaled cursor and processes every new
// complete record: label, classify, gate, admit or quarantine or skip,
// journal. Returns how many records were processed. Safe to call while
// the serving plane is appending.
func (in *Ingester) Poll() (int, error) {
	n := 0
	var perr error
	cur, err := TailSpool(in.cfg.SpoolDir, in.cursor, func(pos Cursor, payload []byte) bool {
		if perr = in.ingestOne(pos, payload); perr != nil {
			return false
		}
		n++
		return true
	})
	if perr != nil {
		return n, perr
	}
	if err != nil {
		return n, err
	}
	// cur only ever moves past records we journaled (fn accepts exactly
	// the records ingestOne committed); an empty poll may still
	// fast-forward it across fully-drained segments, which is fine — the
	// journaled cursor stays authoritative for resume.
	_ = cur
	if n > 0 {
		in.maybeCompact()
	}
	return n, nil
}

// ingestOne gives the spool record ending at pos its single disposition.
func (in *Ingester) ingestOne(pos Cursor, payload []byte) error {
	var rec WindowRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		// An unparseable payload with a valid checksum is a version skew
		// problem, not corruption; quarantine it so the pipeline keeps
		// accounting for every record.
		return in.journalDisp(journalRecord{Key: pos, Disp: DispQuarantined, Why: "unparseable: " + err.Error()})
	}
	if len(rec.Actions) != len(rec.States) {
		return in.journalDisp(journalRecord{Key: pos, Disp: DispQuarantined, SID: rec.SID, Why: "state/action length mismatch"})
	}
	regime := ClassifyRegime(rec.States)
	if frac := fallbackFrac(rec); frac > in.cfg.MaxFallbackFrac {
		return in.journalDisp(journalRecord{
			Key: pos, Disp: DispSkipped, Regime: regime, SID: rec.SID,
			Why: fmt.Sprintf("fallback fraction %.2f", frac),
		})
	}
	steps := LabelWindow(rec, in.cfg.GR)
	tr := collector.Trajectory{
		Scheme: "live", Env: "live-" + regime, Steps: steps, Score: gr.MeanReward(steps),
	}
	if issues := collector.CheckTrajectory(tr); len(issues) > 0 {
		return in.journalDisp(journalRecord{
			Key: pos, Disp: DispQuarantined, Regime: regime, SID: rec.SID, Why: issues[0].Reason,
		})
	}
	e := liveEntry{Key: pos, Regime: regime, SID: rec.SID, Reason: rec.Reason, Steps: steps, Fallback: rec.Fallback}
	if !in.pending[pos] {
		if err := in.liveLog.Append(e); err != nil {
			return err
		}
		in.logRecords++
	}
	delete(in.pending, pos)
	if err := in.journalDisp(journalRecord{Key: pos, Disp: DispAdmitted, Regime: regime, SID: rec.SID}); err != nil {
		return err
	}
	in.admitToPool(e, true)
	in.cfg.Metrics.Counter(MetricAdmitted + "." + regime).Inc()
	in.cfg.Metrics.Gauge(MetricPoolSize).Set(float64(in.poolSize()))
	return nil
}

// journalDisp durably records one disposition and advances the cursor.
func (in *Ingester) journalDisp(r journalRecord) error {
	if err := in.journal.Append(r); err != nil {
		return err
	}
	in.applyDisp(r)
	in.cfg.Metrics.Counter(MetricIngested).Inc()
	switch r.Disp {
	case DispAdmitted:
		in.cfg.Metrics.Counter(MetricAdmitted).Inc()
	case DispQuarantined:
		in.cfg.Metrics.Counter(MetricQuarantined).Inc()
	case DispSkipped:
		in.cfg.Metrics.Counter(MetricSkipped).Inc()
	}
	return nil
}

// applyDisp folds one journaled disposition into the cursor and the
// accounting: the ingest journal's fold, at open and after every append.
func (in *Ingester) applyDisp(r journalRecord) {
	in.cursor = r.Key
	in.counts.Ingested++
	switch r.Disp {
	case DispAdmitted:
		in.counts.Admitted++
		in.counts.ByRegime[r.Regime]++
	case DispQuarantined:
		in.counts.Quarantined++
	case DispSkipped:
		in.counts.Skipped++
	}
}

// maybeCompact rewrites the live pool log down to the retained entries
// when evictions have bloated it past 4x the pool. Compaction is an
// optimization and all-or-nothing (safeio.Journal.Rewrite): when it fails
// the old log, its handle and its record count stand, and ingestion goes on.
func (in *Ingester) maybeCompact() {
	if in.logRecords <= 4*in.poolSize() || in.logRecords < 64 {
		return
	}
	entries := in.retained()
	if in.liveLog.Rewrite(entries) == nil {
		in.logRecords = len(entries)
	}
}

// retained lists the pool's entries in admission order.
func (in *Ingester) retained() []liveEntry {
	var entries []liveEntry
	for _, q := range in.pool {
		entries = append(entries, q...)
	}
	sortEntries(entries)
	return entries
}

// LivePool materializes the retained live experience as a collector pool
// (freshest entries, regime-balanced by construction).
func (in *Ingester) LivePool() *collector.Pool {
	p := &collector.Pool{GR: in.cfg.GR.Fill()}
	for _, e := range in.retained() {
		p.Trajs = append(p.Trajs, collector.Trajectory{
			Scheme: "live",
			Env:    "live-" + e.Regime,
			Steps:  e.Steps,
			Score:  gr.MeanReward(e.Steps),
		})
	}
	return p
}

// PoolByRegime reports the retained admitted window count per regime.
func (in *Ingester) PoolByRegime() map[string]int {
	out := make(map[string]int, len(in.pool))
	for r, q := range in.pool {
		out[r] = len(q)
	}
	return out
}

// Close closes both logs.
func (in *Ingester) Close() error {
	return errors.Join(in.journal.Close(), in.liveLog.Close())
}

func fallbackFrac(rec WindowRecord) float64 {
	if len(rec.States) == 0 {
		return 0
	}
	return float64(len(rec.Fallback)) / float64(len(rec.States))
}
