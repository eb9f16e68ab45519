// Package safeio provides crash-safe artifact persistence for every file
// the pipeline writes (pools, checkpoints, policies, traces): payloads go
// into a versioned, CRC-checksummed container that is written to a
// temporary file, fsynced, and atomically renamed into place. A reader
// therefore either sees the previous complete artifact or the new complete
// artifact — never a torn write — and loads detect truncation and
// corruption up front with actionable errors instead of surfacing gzip/gob
// internals halfway through a decode.
//
// Container layout:
//
//	[8]  magic+version  "SAGEIO01"
//	[n]  payload        (opaque bytes: for a pool, collector.EncodePool's
//	                     columns as one or more gzip members cut at fixed
//	                     stream offsets, which gunzip to one unchanged
//	                     stream; gzipped gob for the rest)
//	[8]  payload length (little-endian uint64)
//	[8]  CRC-64/ECMA of the payload (little-endian uint64)
//
// The trailer-at-end design lets writers stream the payload without
// knowing its size in advance.
package safeio

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
)

const (
	magic       = "SAGEIO01"
	trailerSize = 16
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrCorrupt marks an artifact whose checksum does not match its payload
// (bit rot, a partially overwritten file, or a non-artifact file).
var ErrCorrupt = errors.New("checksum mismatch (artifact is corrupt)")

// ErrTruncated marks an artifact that is shorter than its header claims —
// the signature of a crash or ENOSPC mid-write on a non-atomic writer.
var ErrTruncated = errors.New("artifact is truncated")

// Hooks let the fault-injection harness (internal/chaos) perturb the write
// path: wrapping the payload writer simulates short writes and ENOSPC,
// failing before the rename simulates a crash in the widest window of the
// protocol. Production code never sets this.
type Hooks struct {
	WrapWriter   func(io.Writer) io.Writer
	BeforeRename func(tmp, final string) error
}

// TestHooks is consulted on every WriteFile when non-nil. Tests must
// restore it to nil.
var TestHooks *Hooks

// WriteFile atomically writes the payload produced by fn to path:
// temp file in the same directory → header+payload+trailer → fsync →
// rename → directory fsync. On any error the destination is untouched and
// the temp file is removed.
func WriteFile(path string, fn func(io.Writer) error) error {
	return writeFile(path, true, fn)
}

// WriteFileRaw is WriteFile without the container: the file holds exactly
// the bytes fn wrote, under the same atomic temp→fsync→rename protocol.
// For interchange exports (CSV, JSONL) that external tools must be able
// to read as-is; ReadFile cannot verify these, so prefer WriteFile for
// anything the pipeline itself loads back.
func WriteFileRaw(path string, fn func(io.Writer) error) error {
	return writeFile(path, false, fn)
}

func writeFile(path string, container bool, fn func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("safeio: %s: %w", path, err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	var w io.Writer = f
	if TestHooks != nil && TestHooks.WrapWriter != nil {
		w = TestHooks.WrapWriter(w)
	}
	want := int64(0)
	if container {
		if _, err = io.WriteString(w, magic); err != nil {
			return fmt.Errorf("safeio: %s: %w", path, err)
		}
		want += int64(len(magic)) + trailerSize
	}
	cw := &crcWriter{w: w}
	if err = fn(cw); err != nil {
		return fmt.Errorf("safeio: %s: %w", path, err)
	}
	want += cw.n
	if container {
		var trailer [trailerSize]byte
		binary.LittleEndian.PutUint64(trailer[:8], uint64(cw.n))
		binary.LittleEndian.PutUint64(trailer[8:], cw.sum)
		if _, err = w.Write(trailer[:]); err != nil {
			return fmt.Errorf("safeio: %s: %w", path, err)
		}
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("safeio: %s: sync: %w", path, err)
	}
	// Verify every byte actually reached the file before publishing it: a
	// layer that silently swallows writes (or a filesystem that lies) must
	// not get a truncated artifact renamed over the good one.
	if fi, serr := f.Stat(); serr == nil && fi.Size() != want {
		err = fmt.Errorf("safeio: %s: wrote %d bytes but only %d reached the file — %w", path, want, fi.Size(), ErrTruncated)
		return err
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("safeio: %s: close: %w", path, err)
	}
	if TestHooks != nil && TestHooks.BeforeRename != nil {
		if err = TestHooks.BeforeRename(tmp, path); err != nil {
			os.Remove(tmp)
			return fmt.Errorf("safeio: %s: %w", path, err)
		}
	}
	if err = os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("safeio: %s: %w", path, err)
	}
	// Persist the rename itself; without the directory fsync a power cut
	// can forget the new directory entry even though the data is on disk.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ReadFile reads path and returns its verified payload. Corruption and
// truncation are reported as wrapped ErrCorrupt / ErrTruncated with the
// path and what to do about it.
func ReadFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("safeio: %w", err)
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("safeio: %s: file is empty — %w (the writing process likely died before its first write; delete the file or restore a backup)", path, ErrTruncated)
	}
	if len(raw) < len(magic)+trailerSize || string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("safeio: %s: not a sage artifact (bad header) — %w (was the file overwritten by another tool?)", path, ErrCorrupt)
	}
	body := raw[len(magic):]
	payload := body[:len(body)-trailerSize]
	trailer := body[len(body)-trailerSize:]
	wantLen := binary.LittleEndian.Uint64(trailer[:8])
	wantSum := binary.LittleEndian.Uint64(trailer[8:])
	if uint64(len(payload)) != wantLen {
		return nil, fmt.Errorf("safeio: %s: payload is %d bytes but the header promises %d — %w (incomplete write; use the previous/rotated copy)", path, len(payload), wantLen, ErrTruncated)
	}
	if crc64.Checksum(payload, crcTable) != wantSum {
		return nil, fmt.Errorf("safeio: %s: %w (use the previous/rotated copy or re-generate the artifact)", path, ErrCorrupt)
	}
	return payload, nil
}

// WriteGobGz writes v as gob inside gzip inside a checksummed container —
// the save path for checkpoints, policies and models. It compresses at
// BestSpeed: about half the time of the default level, at a few per cent
// more bytes. Readers do not depend on the level, so artifacts written at
// any level load alike.
func WriteGobGz(path string, v any) error {
	return WriteFile(path, func(w io.Writer) error {
		zw, err := gzip.NewWriterLevel(w, gzip.BestSpeed)
		if err != nil {
			return err
		}
		if err := gob.NewEncoder(zw).Encode(v); err != nil {
			return fmt.Errorf("encode: %w", err)
		}
		return zw.Close()
	})
}

// ReadGobGz reads and verifies path, then decodes its gzipped-gob payload
// into v. Checksum failures are caught before gzip or gob ever run, so
// decode errors here mean a schema mismatch, not silent corruption.
func ReadGobGz(path string, v any) error {
	payload, err := ReadFile(path)
	if err != nil {
		return err
	}
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("safeio: %s: gzip: %w — %w", path, err, ErrCorrupt)
	}
	if err := gob.NewDecoder(zr).Decode(v); err != nil {
		return fmt.Errorf("safeio: %s: decode: %w (artifact was written by an incompatible version?)", path, err)
	}
	return zr.Close()
}

// crcWriter tees payload bytes into the running CRC and byte count.
type crcWriter struct {
	w   io.Writer
	n   int64
	sum uint64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.sum = crc64.Update(c.sum, crcTable, p[:n])
	c.n += int64(n)
	return n, err
}
