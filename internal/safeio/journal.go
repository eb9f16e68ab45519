package safeio

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
)

// Journal is the typed ledger every resumable stage of the pipeline keeps:
// records of one type R, JSON-encoded one per AppendLog record, so it
// inherits the log's framing, fsync per append, repair on open under the
// exclusive flock and follow-without-repair. A handle folds records — its
// owner's fold function turns them into state — and never stores them. A
// record whose checksum holds but whose JSON does not decode into R (one
// written by a newer version) is skipped; the records after it still fold.
// All methods are safe for concurrent use; fold functions run with the
// journal locked and must not call back into it.
type Journal[R any] struct {
	mu   sync.Mutex
	path string
	log  *AppendLog
	off  int64 // bytes folded so far: where Follow continues
}

// ErrNotJournal marks a ledger file that begins with a bare JSON object: it
// was written as plain JSON lines by a version that predates the file being
// a journal, and repair would truncate every line of it as a torn tail.
var ErrNotJournal = errors.New("file holds plain JSON lines, not checksummed journal records")

// OpenJournal opens (creating if absent) the journal at path, truncates a
// crash-torn tail and folds every decodable record in commit order. A nil
// fold replays nothing.
func OpenJournal[R any](path string, fold func(R)) (*Journal[R], error) {
	if f, err := os.Open(path); err == nil {
		var head [1]byte
		n, _ := f.Read(head[:])
		f.Close()
		if n == 1 && head[0] == '{' {
			return nil, fmt.Errorf("safeio: %s: %w (written by an older version; finish with that version, or move the file aside to start a fresh ledger — it is left untouched)", path, ErrNotJournal)
		}
	}
	log, _, err := OpenAppendLog(path, decoding(fold))
	if err != nil {
		return nil, err
	}
	return &Journal[R]{path: path, log: log, off: log.Offset()}, nil
}

func decoding[R any](fold func(R)) func(payload []byte) {
	if fold == nil {
		return nil
	}
	return func(payload []byte) {
		var rec R
		if json.Unmarshal(payload, &rec) == nil {
			fold(rec)
		}
	}
}

// Append encodes rec and commits it: once Append returns nil the record
// survives a crash. It does not fold rec into anything — an owner that
// shares the file with other processes calls Follow next, which delivers
// rec and whatever they committed around it, in commit order.
func (j *Journal[R]) Append(rec R) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Append(payload)
}

// Follow folds the records committed since the last fold (OpenJournal's or
// an earlier Follow's) by this handle or any other process. A half-written
// final record is an append in flight and is left for the next call; a
// complete record that fails its checksum is reported as ErrLogCorrupt, with
// the records before it already folded. Follow never repairs the file.
func (j *Journal[R]) Follow(fold func(R)) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	off, err := j.log.ReplayFrom(j.off, decoding(fold))
	j.off = off
	return err
}

// Rewrite atomically replaces the journal's contents with exactly recs (a
// compaction): it builds the replacement beside the file, renames it into
// place and only then moves this handle onto it — the replacement's handle
// stays valid across the rename, so nothing can fail after it. On any error
// the old file and this handle are untouched and still appendable. For a
// journal with one owner, which must not Append while Rewrite runs; other
// handles on the file keep the old inode.
func (j *Journal[R]) Rewrite(recs []R) error {
	tmp := j.path + ".compact"
	os.Remove(tmp)
	next, err := OpenJournal[R](tmp, nil)
	if err != nil {
		return err
	}
	size, err := func() (int64, error) {
		for _, rec := range recs {
			if err := next.Append(rec); err != nil {
				return 0, err
			}
		}
		st, err := next.log.Stat()
		if err != nil {
			return 0, err
		}
		if TestHooks != nil && TestHooks.BeforeRename != nil {
			if err := TestHooks.BeforeRename(tmp, j.path); err != nil {
				return 0, err
			}
		}
		return st.Size(), os.Rename(tmp, j.path)
	}()
	if err != nil {
		next.Close()
		os.Remove(tmp)
		return fmt.Errorf("safeio: rewrite %s: %w", j.path, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.log.Close()
	j.log, j.off = next.log, size
	return nil
}

// Close closes the underlying file.
func (j *Journal[R]) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
