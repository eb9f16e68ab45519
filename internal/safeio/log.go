package safeio

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
)

// AppendLog is the write-ahead-log primitive behind the control plane's
// crash recovery: an append-only text file of checksummed records, one
// per line as "<crc32-hex> <payload>\n", fsynced per append. It
// complements this package's atomic whole-file writers for state that
// grows record by record and must survive a crash mid-append: opening a
// log replays every intact record and truncates the torn tail a crash
// may have left, so the file is always a clean prefix of what was
// acknowledged.
//
// Payloads must not contain newlines (JSON objects qualify).
//
// The file is opened O_APPEND, so several processes may append to one log
// concurrently (each record is a single write syscall); a reader following
// the log with ReplayFrom sees every writer's records in commit order.
// Cross-process safety rests on flock: every Append and ReplayFrom runs
// under a shared lock, while OpenAppendLog's read-verify-truncate runs
// under the exclusive lock — so an opener only ever truncates a tail the
// file provably acquired from a crash, never bytes a live writer just
// committed, and a follower never observes a half-written record.
type AppendLog struct {
	f        *os.File
	openOff  int64 // end of the last intact record at open time
	writeErr error // sticky: a failed write may have torn the log mid-file
	readOnly bool  // opened by OpenAppendLogReader: Append refused
}

// ErrLogCorrupt marks a complete log record that failed its checksum: the
// log is damaged (bit rot, foreign truncation, a torn middle), as opposed
// to the benign half-written tail a live writer leaves mid-append.
var ErrLogCorrupt = errors.New("log record failed its checksum")

// OpenAppendLog opens (creating if absent) the log at path, streams
// every intact record's payload to replay (which may be nil), truncates
// anything after the last intact record, and returns the log positioned
// for appending along with the number of records replayed.
//
// The verify-and-truncate runs under an exclusive flock, so it blocks
// until no other process is mid-append and no other opener is mid-repair:
// a torn tail seen under the lock is genuinely crash-left, and truncating
// it can never delete a record another process's Append acknowledged.
func OpenAppendLog(path string, replay func(payload []byte)) (*AppendLog, int, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	if err := flockExclusive(f); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("safeio: lock %s for open: %w", path, err)
	}
	defer flockUnlock(f)
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	// A torn tail and a corrupt record are repaired alike: everything
	// after the last intact record is suspect.
	valid, replayed, _ := scanRecords(raw, replay)
	if valid < len(raw) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("safeio: truncate torn log tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, 0, err
	}
	return &AppendLog{f: f, openOff: int64(valid)}, replayed, nil
}

// Offset returns the byte offset just past the last intact record replayed
// at open time — the position ReplayFrom continues from.
func (l *AppendLog) Offset() int64 { return l.openOff }

// OpenAppendLogReader opens an existing log read-only, for a follower
// tailing a file another process is actively appending to. Unlike
// OpenAppendLog it performs no verify-and-truncate repair — a reader must
// never rewrite the writer's live tail — so it takes no exclusive lock and
// cannot block behind the writer. Use ReplayFrom to consume records: its
// shared flock plus the benign-torn-tail rule make following safe against
// concurrent appends (a half-written final record reads as "no new data
// yet"). Append on the returned handle always fails.
func OpenAppendLogReader(path string) (*AppendLog, error) {
	f, err := os.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	return &AppendLog{f: f, readOnly: true}, nil
}

// ReplayFrom streams every intact record that starts at or after byte
// offset off to replay and returns the offset just past the last one. A
// half-written record at end of file is an in-flight append: ReplayFrom
// stops there without error, and calling it again later with the returned
// offset picks up exactly the new records — so a live reader can follow a
// log other processes are appending to. A *complete* record that fails
// its checksum, or an offset beyond end of file, is not in-flight: the
// log (or this reader's offset) is damaged, and ReplayFrom reports a
// wrapped ErrLogCorrupt so the caller can surface it and re-open rather
// than silently stall forever.
func (l *AppendLog) ReplayFrom(off int64, replay func(payload []byte)) (int64, error) {
	if err := flockShared(l.f); err != nil {
		return off, fmt.Errorf("safeio: lock log for replay: %w", err)
	}
	defer flockUnlock(l.f)
	fi, err := l.f.Stat()
	if err != nil {
		return off, err
	}
	if fi.Size() < off {
		return off, fmt.Errorf("safeio: log shrank below replay offset %d (size %d) — foreign truncation: %w", off, fi.Size(), ErrLogCorrupt)
	}
	if fi.Size() == off {
		return off, nil
	}
	buf := make([]byte, fi.Size()-off)
	if _, err := l.f.ReadAt(buf, off); err != nil && err != io.EOF {
		return off, err
	}
	n, _, corrupt := scanRecords(buf, replay)
	off += int64(n)
	if corrupt {
		return off, fmt.Errorf("safeio: log record at offset %d: %w", off, ErrLogCorrupt)
	}
	return off, nil
}

// scanRecords streams the intact records at the head of buf to replay (which
// may be nil) and returns the bytes and records they span. It stops at a
// record without its newline — a torn or in-flight tail — or at a complete
// record that fails its checksum, which it reports as corrupt.
func scanRecords(buf []byte, replay func(payload []byte)) (n, records int, corrupt bool) {
	for n < len(buf) {
		nl := bytes.IndexByte(buf[n:], '\n')
		if nl < 0 {
			break
		}
		payload, ok := checkRecord(buf[n : n+nl])
		if !ok {
			return n, records, true
		}
		if replay != nil {
			replay(payload)
		}
		records++
		n += nl + 1
	}
	return n, records, false
}

// checkRecord splits "<crc32-hex> <payload>" and verifies the checksum.
func checkRecord(line []byte) ([]byte, bool) {
	sp := bytes.IndexByte(line, ' ')
	if sp != 8 {
		return nil, false
	}
	want, err := strconv.ParseUint(string(line[:sp]), 16, 32)
	if err != nil {
		return nil, false
	}
	payload := line[sp+1:]
	if crc32.ChecksumIEEE(payload) != uint32(want) {
		return nil, false
	}
	return payload, true
}

// Append writes one record and syncs it to disk before returning: once
// Append returns nil the record survives a crash. It holds the shared
// flock across the write, so an opener's truncate can never interleave
// with (and delete) a record mid-commit. After a failed write the handle
// is poisoned — the file may hold a torn middle that would corrupt every
// later record, so the caller must re-open to repair before appending.
func (l *AppendLog) Append(payload []byte) error {
	if l.readOnly {
		return fmt.Errorf("safeio: append to a log opened read-only")
	}
	if l.writeErr != nil {
		return fmt.Errorf("safeio: log handle poisoned by earlier write failure (re-open to repair): %w", l.writeErr)
	}
	if bytes.IndexByte(payload, '\n') >= 0 {
		return fmt.Errorf("safeio: log payload contains a newline")
	}
	rec := make([]byte, 0, len(payload)+10)
	rec = append(rec, fmt.Sprintf("%08x ", crc32.ChecksumIEEE(payload))...)
	rec = append(rec, payload...)
	rec = append(rec, '\n')
	if err := flockShared(l.f); err != nil {
		return fmt.Errorf("safeio: lock log for append: %w", err)
	}
	defer flockUnlock(l.f)
	if _, err := l.f.Write(rec); err != nil {
		l.writeErr = err
		return err
	}
	return l.f.Sync()
}

// Stat reports the underlying file's metadata (a follower uses the size
// to distinguish a drained segment from one with an unreadable tail).
func (l *AppendLog) Stat() (os.FileInfo, error) { return l.f.Stat() }

// Close closes the underlying file.
func (l *AppendLog) Close() error { return l.f.Close() }
