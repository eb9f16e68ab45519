package promote

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"sage/internal/core"
	"sage/internal/safeio"
)

// State is a model's position in the lifecycle state machine.
type State string

const (
	// StateCandidate: published, awaiting a gate verdict.
	StateCandidate State = "candidate"
	// StateIncumbent: the promoted model the fleet serves.
	StateIncumbent State = "incumbent"
	// StateRetired: a former incumbent superseded by a later promotion
	// (kept on the lineage stack — a demotion falls back to it).
	StateRetired State = "retired"
	// StateRejected: failed the promotion gate.
	StateRejected State = "rejected"
	// StateDemoted: promoted, then reverted by the watchdog or operator.
	StateDemoted State = "demoted"
)

// ModelInfo is a registry entry's metadata.
type ModelInfo struct {
	ID          string `json:"id"`
	State       State  `json:"state"`
	Provenance  string `json:"provenance,omitempty"` // who/what trained it
	TrainStep   int    `json:"train_step,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"` // parameter hash (eval identity)
	Note        string `json:"note,omitempty"`        // last transition's note
}

// Meta is the caller-supplied metadata attached at publish time.
type Meta struct {
	ID         string // empty = derived from provenance + fingerprint
	Provenance string
	TrainStep  int
}

// record is one journal line. T is the transition: publish moves a new
// model into StateCandidate; promote makes a candidate the incumbent
// (retiring the previous one); reject and demote are terminal for the
// named model; demote additionally reverts the incumbency to the previous
// lineage entry — one record, one atomic transaction.
type record struct {
	T           string `json:"t"`
	ID          string `json:"id"`
	Provenance  string `json:"provenance,omitempty"`
	TrainStep   int    `json:"train_step,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Note        string `json:"note,omitempty"`
}

// Registry is the versioned model store. Checkpoints live under
// <dir>/models/<id>.model (safeio's atomic checksummed container, written
// *before* the journal records the publish, so a crash between the two
// leaves only a harmless orphan file); the state machine lives in
// <dir>/registry.journal (safeio.Journal: CRC per record, fsync per
// append, torn tail truncated on open). All methods are safe for
// concurrent use.
type Registry struct {
	mu      sync.Mutex
	dir     string
	journal *safeio.Journal[record]
	models  map[string]*ModelInfo
	lineage []string // promotion order; top (last) is the incumbent

	// hookPreDemoteAppend, when non-nil, runs between Demote's refresh and
	// its journal append — test seam for the cross-process race where a
	// foreign promotion lands in that window.
	hookPreDemoteAppend func()
}

// JournalName is the registry journal file name under the registry dir.
const JournalName = "registry.journal"

// ErrNoIncumbent reports a registry in which nothing has been promoted
// yet: there is no model a daemon may legitimately serve.
var ErrNoIncumbent = fmt.Errorf("promote: registry has no incumbent")

// OpenRegistry opens (creating if absent) the registry rooted at dir,
// replaying the journal to rebuild the state machine.
func OpenRegistry(dir string) (*Registry, error) {
	if err := os.MkdirAll(filepath.Join(dir, "models"), 0o755); err != nil {
		return nil, fmt.Errorf("promote: registry dir: %w", err)
	}
	r := &Registry{dir: dir, models: make(map[string]*ModelInfo)}
	j, err := safeio.OpenJournal(filepath.Join(dir, JournalName), r.applyLocked)
	if err != nil {
		return nil, fmt.Errorf("promote: open journal: %w", err)
	}
	r.journal = j
	return r, nil
}

// refreshLocked folds journal records other processes (a trainer's
// publish, an operator's promote) appended since the last read. The
// journal is the cross-process coordination point: a long-running daemon
// sees a promotion the moment it next consults the registry.
func (r *Registry) refreshLocked() error {
	if err := r.journal.Follow(r.applyLocked); err != nil {
		return fmt.Errorf("promote: refresh journal: %w", err)
	}
	return nil
}

// applyLocked folds one journal record into the in-memory state machine.
// It must accept every record sequence append() ever produced; unknown
// transitions are ignored for forward compatibility.
func (r *Registry) applyLocked(rec record) {
	switch rec.T {
	case "publish":
		r.models[rec.ID] = &ModelInfo{
			ID:          rec.ID,
			State:       StateCandidate,
			Provenance:  rec.Provenance,
			TrainStep:   rec.TrainStep,
			Fingerprint: rec.Fingerprint,
			Note:        rec.Note,
		}
	case "promote":
		m, ok := r.models[rec.ID]
		if !ok {
			return
		}
		if n := len(r.lineage); n > 0 {
			if prev, ok := r.models[r.lineage[n-1]]; ok {
				prev.State = StateRetired
			}
		}
		m.State = StateIncumbent
		m.Note = rec.Note
		r.lineage = append(r.lineage, rec.ID)
	case "reject":
		if m, ok := r.models[rec.ID]; ok {
			m.State = StateRejected
			m.Note = rec.Note
		}
	case "demote":
		n := len(r.lineage)
		if n == 0 || r.lineage[n-1] != rec.ID {
			return
		}
		if m, ok := r.models[rec.ID]; ok {
			m.State = StateDemoted
			m.Note = rec.Note
		}
		r.lineage = r.lineage[:n-1]
		if n >= 2 {
			if m, ok := r.models[r.lineage[n-2]]; ok {
				m.State = StateIncumbent
			}
		}
	}
}

// appendLocked commits one transition: the record is fsynced to the
// journal, then the state machine catches up by replaying the tail — which
// applies our record and any a concurrent process slipped in before it, in
// commit order, exactly once.
func (r *Registry) appendLocked(rec record) error {
	if err := r.journal.Append(rec); err != nil {
		return fmt.Errorf("promote: journal append: %w", err)
	}
	return r.refreshLocked()
}

// Fingerprint hashes a model's parameters (FNV-1a over the float bits):
// two models with the same fingerprint make bitwise-identical decisions,
// so the fingerprint is the eval identity of a checkpoint.
func Fingerprint(m *core.Model) string {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range m.Policy.Params() {
		for _, v := range p.Data {
			bits := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Publish writes the model checkpoint and journals it as a candidate.
// Returns the assigned id.
func (r *Registry) Publish(m *core.Model, meta Meta) (string, error) {
	fp := Fingerprint(m)
	id := meta.ID
	if id == "" {
		prov := meta.Provenance
		if prov == "" {
			prov = "model"
		}
		id = fmt.Sprintf("%s-%s", prov, fp[:10])
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.refreshLocked(); err != nil {
		return "", err
	}
	if _, exists := r.models[id]; exists {
		return "", fmt.Errorf("promote: model %q already published", id)
	}
	if err := m.Save(r.ModelPath(id)); err != nil {
		return "", err
	}
	return id, r.appendLocked(record{
		T: "publish", ID: id,
		Provenance:  meta.Provenance,
		TrainStep:   meta.TrainStep,
		Fingerprint: fp,
	})
}

// Promote makes candidate id the incumbent (retiring the previous one).
func (r *Registry) Promote(id, note string) error { return r.decide("promote", id, note) }

// Reject marks candidate id as having failed the gate.
func (r *Registry) Reject(id, note string) error { return r.decide("reject", id, note) }

// decide journals a gate verdict (transition t) on candidate id.
func (r *Registry) decide(t, id, note string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.refreshLocked(); err != nil {
		return err
	}
	m, ok := r.models[id]
	if !ok {
		return fmt.Errorf("promote: unknown model %q", id)
	}
	if m.State != StateCandidate {
		return fmt.Errorf("promote: model %q is %s, not a candidate", id, m.State)
	}
	return r.appendLocked(record{T: t, ID: id, Note: note})
}

// Demote reverts the current incumbent to the previous one in a single
// journal transaction (one fsynced record flips both states), returning
// the restored incumbent's id. If a concurrent process promotes another
// model between the refresh and the append, the demote record names a
// model that is no longer the lineage top and the state machine drops it;
// Demote verifies the transition actually applied and reports a conflict
// error instead of claiming success, so the caller can retry against the
// fresh state.
func (r *Registry) Demote(note string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.refreshLocked(); err != nil {
		return "", err
	}
	n := len(r.lineage)
	if n == 0 {
		return "", fmt.Errorf("promote: no incumbent to demote")
	}
	if n < 2 {
		return "", fmt.Errorf("promote: no previous incumbent to fall back to")
	}
	victim := r.lineage[n-1]
	if r.hookPreDemoteAppend != nil {
		r.hookPreDemoteAppend()
	}
	if err := r.appendLocked(record{T: "demote", ID: victim, Note: note}); err != nil {
		return "", err
	}
	if m, ok := r.models[victim]; !ok || m.State != StateDemoted {
		top := "(none)"
		if len(r.lineage) > 0 {
			top = r.lineage[len(r.lineage)-1]
		}
		return "", fmt.Errorf("promote: demotion of %q lost to a concurrent promotion (incumbent is now %q); retry against the fresh state", victim, top)
	}
	return r.lineage[len(r.lineage)-1], nil
}

// Refresh folds journal records other processes appended since the last
// read, surfacing journal corruption as an error. The read-only accessors
// (Incumbent, Get, List) refresh best-effort and never fail; callers that
// must not act on a stale view (a daemon reacting to SIGHUP) call Refresh
// first.
func (r *Registry) Refresh() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.refreshLocked()
}

// Incumbent returns the current incumbent's metadata (zero, false when
// nothing has been promoted yet).
func (r *Registry) Incumbent() (ModelInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refreshLocked() // best effort: serve the freshest view we can read
	if len(r.lineage) == 0 {
		return ModelInfo{}, false
	}
	m, ok := r.models[r.lineage[len(r.lineage)-1]]
	if !ok {
		return ModelInfo{}, false
	}
	return *m, true
}

// Get returns one model's metadata.
func (r *Registry) Get(id string) (ModelInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refreshLocked()
	m, ok := r.models[id]
	if !ok {
		return ModelInfo{}, false
	}
	return *m, true
}

// List returns every entry, sorted by id.
func (r *Registry) List() []ModelInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refreshLocked()
	out := make([]ModelInfo, 0, len(r.models))
	for _, m := range r.models {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ModelPath returns where id's checkpoint lives.
func (r *Registry) ModelPath(id string) string {
	return filepath.Join(r.dir, "models", id+".model")
}

// Load reads model id's checkpoint, surfacing safeio corruption errors.
func (r *Registry) Load(id string) (*core.Model, error) {
	if _, ok := r.Get(id); !ok {
		return nil, fmt.Errorf("promote: unknown model %q", id)
	}
	return core.LoadModel(r.ModelPath(id))
}

// LoadIncumbent loads the promoted model a (re)starting daemon must
// serve. It never returns a candidate: promotion is only acknowledged
// once its journal record is on disk.
func (r *Registry) LoadIncumbent() (*core.Model, ModelInfo, error) {
	info, ok := r.Incumbent()
	if !ok {
		return nil, ModelInfo{}, ErrNoIncumbent
	}
	m, err := core.LoadModel(r.ModelPath(info.ID))
	if err != nil {
		return nil, info, err
	}
	return m, info, nil
}

// Close closes the journal. The registry must not be used afterwards.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.journal.Close()
}
