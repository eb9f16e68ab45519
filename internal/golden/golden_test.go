package golden

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Each vector is FNV-1a over the bytes the calls name, worked out by hand
// from the offset basis cbf29ce484222325 and the prime 100000001b3; the
// first three are FNV's published test vectors.
func TestDigestVectors(t *testing.T) {
	for _, c := range []struct {
		name  string
		write func(d *Digest)
		want  string
	}{
		{"nothing", func(d *Digest) {}, "cbf29ce484222325"},
		{`Write "a"`, func(d *Digest) { d.Write([]byte("a")) }, "af63dc4c8601ec8c"},
		{`Write "foobar"`, func(d *Digest) { d.Write([]byte("foobar")) }, "85944171f73967e8"},
		{"U64 0x0102030405060708", func(d *Digest) { d.U64(0x0102030405060708) }, "0c6d4496e17859d5"},
		{"F64 -0", func(d *Digest) { d.F64(math.Copysign(0, -1)) }, "a8c7783228196045"},
		{"F64 1.5", func(d *Digest) { d.F64(1.5) }, "aa95e93229a27c80"},
		{`Str "ab"`, func(d *Digest) { d.Str("ab") }, "9c6001d328a94690"},
		{`Str "ab" as raw bytes`, func(d *Digest) { d.Write([]byte{2, 0, 0, 0, 0, 0, 0, 0, 'a', 'b'}) }, "9c6001d328a94690"},
		{"one of each", func(d *Digest) { d.Write([]byte("foobar")); d.U64(7); d.F64(1.5); d.Str("ab") }, "a2929340611c7227"},
	} {
		d := NewDigest()
		c.write(d)
		if got := d.Sum(); got != c.want || fmt.Sprintf("%016x", d.Sum64()) != c.want {
			t.Errorf("%s: Sum %s, Sum64 %016x, want %s", c.name, got, d.Sum64(), c.want)
		}
	}
}

// recorder stands in for the test a pin is checked under, so a failing
// check can be watched instead of failing this test.
type recorder struct {
	testing.TB
	failures []string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func TestCheckMismatchNamesPinAndCommand(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "pool.golden"), []byte("f90decce1b7e92de"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := &recorder{TB: t}
	if !check(r, dir, "pool", "f90decce1b7e92de", false) || len(r.failures) != 0 {
		t.Fatalf("matching pin failed: %q", r.failures)
	}
	if check(r, dir, "pool", "f90decce1b7e92df", false) || len(r.failures) != 1 {
		t.Fatalf("moved pin passed: %q", r.failures)
	}
	wd, _ := os.Getwd()
	for _, want := range []string{
		filepath.Join(dir, "pool.golden"), "f90decce1b7e92df", "f90decce1b7e92de",
		"go test " + wd + " -run '^" + t.Name() + "$' -update", "CHANGES.md",
	} {
		if !strings.Contains(r.failures[0], want) {
			t.Errorf("failure does not say %q:\n%s", want, r.failures[0])
		}
	}
}

func TestCheckMissingPinFailsAndWritesNothing(t *testing.T) {
	dir := t.TempDir()
	r := &recorder{TB: t}
	if check(r, dir, "new", "0000000000000001", false) || len(r.failures) != 1 || !strings.Contains(r.failures[0], "-update") {
		t.Fatalf("missing pin: %q", r.failures)
	}
	if _, err := os.Stat(filepath.Join(dir, "new.golden")); !os.IsNotExist(err) {
		t.Fatalf("a check without -update created the pin: %v", err)
	}
}

func TestCheckUpdateWritesThenHolds(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "testdata")
	r := &recorder{TB: t}
	if !check(r, dir, "surface", "line one\nline two\n", true) {
		t.Fatalf("update: %q", r.failures)
	}
	if !check(r, dir, "surface", "line one\nline two\n", false) || len(r.failures) != 0 {
		t.Fatalf("re-run after update: %q", r.failures)
	}
}
