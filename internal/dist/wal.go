package dist

import (
	"sage/internal/collector"
	"sage/internal/safeio"
	"sage/internal/telemetry"
)

// The coordinator's write-ahead log extends the "any agent may die"
// guarantee to the coordinator itself. It is the coordinator's one
// ledger: every lease grant, terminal cell outcome, and applied training
// step is appended (checksummed, fsynced — see safeio.Journal) before or
// immediately after the action it records. A restarted coordinator
// replays the log, re-admits done cells whose shard files verify,
// re-adopts leases whose agents may still be alive (their next heartbeat
// renews; their in-flight shard lands without re-collection), and knows
// the last committed barrier epoch.
//
// WAL record, one JSON object per log line:
//
//	{"t":"grant","agent":"a1","scheme":"cubic","env":"wired-12"}
//	{"t":"done","agent":"a1","scheme":"cubic","env":"wired-12"}
//	{"t":"fail","agent":"a1","scheme":"cubic","env":"wired-12","err":"..."}
//	{"t":"epoch","step":41}
type walRecord struct {
	T      string `json:"t"`
	Agent  string `json:"agent,omitempty"`
	Scheme string `json:"scheme,omitempty"`
	Env    string `json:"env,omitempty"`
	Step   int    `json:"step,omitempty"`
	Err    string `json:"err,omitempty"`
}

func (r walRecord) cell() collector.CellKey {
	return collector.CellKey{Scheme: r.Scheme, Env: r.Env}
}

// wal is the coordinator's handle on the log. All methods are
// nil-receiver safe (WAL disabled) and treat write errors as soft: losing
// the log costs only recovery speed after a future crash, never
// correctness, so a full disk degrades durability instead of killing the
// campaign. Errors are logged and counted.
type wal struct {
	log     *safeio.Journal[walRecord]
	metrics *telemetry.Registry
	logf    func(string, ...any)
}

// openWAL opens the log at path, replaying intact records. The returned
// records drive cell re-admission, lease re-adoption and epoch recovery in
// NewCoordinator.
func openWAL(path string, metrics *telemetry.Registry, logf func(string, ...any)) (*wal, []walRecord, error) {
	var recs []walRecord
	log, err := safeio.OpenJournal(path, func(rec walRecord) { recs = append(recs, rec) })
	if err != nil {
		return nil, nil, err
	}
	return &wal{log: log, metrics: metrics, logf: logf}, recs, nil
}

func (w *wal) append(rec walRecord) {
	if w == nil {
		return
	}
	if err := w.log.Append(rec); err != nil {
		w.metrics.Counter("dist.wal_errors").Inc()
		w.logf("coord: wal append %q: %v", rec.T, err)
		return
	}
	w.metrics.Counter("dist.wal_records").Inc()
}

// appendCell logs a lease transition t ("grant", "done" or "fail") of cell.
func (w *wal) appendCell(t, agent string, cell collector.CellKey, errMsg string) {
	w.append(walRecord{T: t, Agent: agent, Scheme: cell.Scheme, Env: cell.Env, Err: errMsg})
}

func (w *wal) close() {
	if w != nil {
		w.log.Close()
	}
}
