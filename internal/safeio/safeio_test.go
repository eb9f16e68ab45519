package safeio

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func write(t *testing.T, path string, payload []byte) {
	t.Helper()
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.bin")
	payload := []byte("the pool of policies")
	write(t, path, payload)
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
	// No temp files left behind.
	ents, _ := os.ReadDir(filepath.Dir(path))
	if len(ents) != 1 {
		t.Fatalf("leftover files: %v", ents)
	}
}

func TestEmptyPayloadRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.bin")
	write(t, path, nil)
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("payload = %q, want empty", got)
	}
}

func TestFlippedByteIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.bin")
	write(t, path, []byte("some payload worth protecting"))
	raw, _ := os.ReadFile(path)
	raw[len(magic)+3] ^= 0x40
	os.WriteFile(path, raw, 0o644)
	_, err := ReadFile(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error does not name the file: %v", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.bin")
	write(t, path, bytes.Repeat([]byte("x"), 4096))
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, raw[:len(raw)/2], 0o644)
	if _, err := ReadFile(path); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want truncation/corruption", err)
	}
}

func TestEmptyFileIsTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.bin")
	os.WriteFile(path, nil, 0o644)
	if _, err := ReadFile(path); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestForeignFileIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.bin")
	os.WriteFile(path, []byte("#!/bin/sh\necho not an artifact\n"), 0o644)
	if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestGobGzRoundTrip(t *testing.T) {
	type blob struct {
		Name  string
		Vals  []float64
		Steps int
	}
	path := filepath.Join(t.TempDir(), "b.gob.gz")
	in := blob{Name: "ckpt", Vals: []float64{1, 2.5, -3}, Steps: 42}
	if err := WriteGobGz(path, &in); err != nil {
		t.Fatal(err)
	}
	var out blob
	if err := ReadGobGz(path, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Steps != in.Steps || len(out.Vals) != 3 {
		t.Fatalf("round trip = %+v", out)
	}
}

// Artifacts are compressed at BestSpeed now; ones written at gzip's default
// level, as every earlier binary wrote them, must still load, and to the same
// value.
func TestDefaultLevelArtifactLoads(t *testing.T) {
	type blob struct {
		Name string
		Vals []float64
	}
	in := blob{Name: "pool", Vals: make([]float64, 4096)}
	for i := range in.Vals {
		in.Vals[i] = float64(i%37) * 0.25
	}
	dir := t.TempDir()
	old, cur := filepath.Join(dir, "old.gob.gz"), filepath.Join(dir, "new.gob.gz")
	if err := WriteFile(old, func(w io.Writer) error {
		zw := gzip.NewWriter(w)
		if err := gob.NewEncoder(zw).Encode(&in); err != nil {
			return err
		}
		return zw.Close()
	}); err != nil {
		t.Fatal(err)
	}
	if err := WriteGobGz(cur, &in); err != nil {
		t.Fatal(err)
	}
	oldRaw, _ := os.ReadFile(old)
	curRaw, _ := os.ReadFile(cur)
	if bytes.Equal(oldRaw, curRaw) {
		t.Fatal("default-level and BestSpeed files are byte-identical: the test no longer covers an older file")
	}
	for _, path := range []string{old, cur} {
		var out blob
		if err := ReadGobGz(path, &out); err != nil {
			t.Fatal(err)
		}
		if out.Name != in.Name || !slices.Equal(out.Vals, in.Vals) {
			t.Fatalf("%s loads as %q with %d values, want %q with %d", filepath.Base(path), out.Name, len(out.Vals), in.Name, len(in.Vals))
		}
	}
}

func TestWriteErrorLeavesOldFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.bin")
	write(t, path, []byte("generation one"))
	err := WriteFile(path, func(w io.Writer) error {
		w.Write([]byte("half of generation tw"))
		return errors.New("boom")
	})
	if err == nil {
		t.Fatal("write error swallowed")
	}
	got, rerr := ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != "generation one" {
		t.Fatalf("old artifact clobbered: %q", got)
	}
	ents, _ := os.ReadDir(filepath.Dir(path))
	if len(ents) != 1 {
		t.Fatalf("temp file leaked: %v", ents)
	}
}

func TestMissingFile(t *testing.T) {
	_, err := ReadFile(filepath.Join(t.TempDir(), "nope"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestWriteFileRawIsPlain(t *testing.T) {
	// Raw mode: the file holds exactly the payload (interchange exports
	// must stay readable by external tools), still written atomically.
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := WriteFileRaw(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "{\"t\":1}\n{\"t\":2}\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "{\"t\":1}\n{\"t\":2}\n" {
		t.Fatalf("raw export altered: %q", raw)
	}
	// And the atomic guarantee still holds.
	werr := WriteFileRaw(path, func(w io.Writer) error {
		io.WriteString(w, "{\"t\":3}")
		return errors.New("boom")
	})
	if werr == nil {
		t.Fatal("error swallowed")
	}
	got, _ := os.ReadFile(path)
	if string(got) != string(raw) {
		t.Fatalf("old export clobbered: %q", got)
	}
}

// container is the file WriteFile makes of payload.
func container(payload []byte) []byte {
	b := append([]byte(magic), payload...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	return binary.LittleEndian.AppendUint64(b, crc64.Checksum(payload, crcTable))
}

// readBack writes raw as a file and reads it with ReadFile. The result is
// an error wrapping ErrCorrupt or ErrTruncated, or a payload that raw
// holds whole: magic, payload, its length and its checksum.
func readBack(t *testing.T, path string, raw []byte) ([]byte, error) {
	t.Helper()
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("%d-byte file: %v, want ErrCorrupt or ErrTruncated", len(raw), err)
		}
		return nil, err
	}
	if !bytes.Equal(raw, container(got)) {
		t.Fatalf("%d-byte file read as a %d-byte payload it does not hold", len(raw), len(got))
	}
	return got, nil
}

// FuzzReadFile: a container written by WriteFile and then given an
// arbitrary magic, length or checksum (each XORed with an input), or cut
// short by an input's count of bytes, reads back as the payload written
// exactly when nothing was changed, and as an error wrapping ErrCorrupt
// or ErrTruncated otherwise; the payload bytes taken as a whole file
// read back as an error or as a payload they hold whole.
func FuzzReadFile(f *testing.F) {
	f.Add([]byte("the pool of policies"), uint64(0), uint64(0), uint64(0), uint16(0))
	f.Add([]byte{}, uint64(0), uint64(0), uint64(0), uint16(0))
	f.Add([]byte("SAGEIO01"), uint64(1), uint64(0), uint64(0), uint16(0))
	f.Add(bytes.Repeat([]byte("x"), 4096), uint64(0), uint64(1<<63), uint64(0), uint16(0))
	f.Add([]byte("some payload worth protecting"), uint64(0), uint64(0), uint64(0x40), uint16(0))
	f.Add([]byte("payload"), uint64(0), uint64(0), uint64(0), uint16(9))
	f.Add(container([]byte("a container inside a payload")), uint64(0), uint64(0), uint64(0), uint16(16))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, payload []byte, magicXor, lenXor, sumXor uint64, cut uint16) {
		path := filepath.Join(dir, "a.bin")
		write(t, path, payload)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, container(payload)) {
			t.Fatalf("WriteFile of %d bytes made a %d-byte file that is not its container", len(payload), len(raw))
		}
		n := len(raw)
		xor := func(at int, v uint64) {
			binary.LittleEndian.PutUint64(raw[at:], binary.LittleEndian.Uint64(raw[at:])^v)
		}
		xor(0, magicXor)
		xor(n-16, lenXor)
		xor(n-8, sumXor)
		intact := magicXor == 0 && lenXor == 0 && sumXor == 0
		if int(cut) > 0 && int(cut) <= n {
			// A cut file may still hold a container: one that the payload
			// carried at its end. readBack checks it is one.
			readBack(t, path, raw[:n-int(cut)])
		} else {
			got, err := readBack(t, path, raw)
			if intact && (err != nil || !bytes.Equal(got, payload)) {
				t.Fatalf("an intact %d-byte payload read back as %d bytes, %v", len(payload), len(got), err)
			}
			if !intact && err == nil {
				t.Fatalf("magic ^ %#x, length ^ %#x, checksum ^ %#x: read back as a payload", magicXor, lenXor, sumXor)
			}
		}
		readBack(t, path, payload)
	})
}
