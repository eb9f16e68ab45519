// Package golden is the one harness for pinned outputs: Digest folds a
// run's values into an FNV-1a hash, and Check holds a test's output to a
// pin file under its package's testdata/, rewritten under -update.
package golden

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
)

// Digest is a 64-bit FNV-1a hash. Its methods add no framing beyond what
// each one documents, so a sequence of calls hashes exactly the bytes it
// names.
type Digest struct{ h uint64 }

// NewDigest returns the digest of nothing.
func NewDigest() *Digest { return &Digest{h: 14695981039346656037} }

// Write hashes p as is. It never fails.
func (d *Digest) Write(p []byte) (int, error) {
	for _, c := range p {
		d.h = (d.h ^ uint64(c)) * 1099511628211
	}
	return len(p), nil
}

// U64 hashes v as 8 little-endian bytes.
func (d *Digest) U64(v uint64) {
	for i := 0; i < 64; i += 8 {
		d.h = (d.h ^ v>>i&0xff) * 1099511628211
	}
}

// F64 hashes v's IEEE 754 bits as U64 does.
func (d *Digest) F64(v float64) { d.U64(math.Float64bits(v)) }

// Str hashes len(s) as U64, then the bytes of s.
func (d *Digest) Str(s string) {
	d.U64(uint64(len(s)))
	d.Write([]byte(s))
}

// Sum64 is the hash of everything written so far.
func (d *Digest) Sum64() uint64 { return d.h }

// Sum is Sum64 as 16 lower-case hex digits, the form a pin file holds.
func (d *Digest) Sum() string { return fmt.Sprintf("%016x", d.h) }

// update is registered only in test binaries: the daemons link this package
// through promote.Fingerprint, and their -h must not offer it.
var update = new(bool)

func init() {
	if testing.Testing() {
		flag.BoolVar(update, "update", false, "rewrite the testdata pins golden.Check compares against")
	}
}

// Check holds got, byte for byte, to the pin testdata/<name>.golden of the
// package under test (go test runs a test in its package's directory). A
// moved or missing pin fails t with the command that would rewrite it;
// under -update Check writes the pin instead. It reports whether got held.
func Check(t testing.TB, name, got string) bool {
	t.Helper()
	return check(t, "testdata", name, got, *update)
}

func check(t testing.TB, dir, name, got string, update bool) bool {
	t.Helper()
	path := filepath.Join(dir, name+".golden")
	if update {
		err := os.MkdirAll(dir, 0o755)
		if err == nil {
			err = os.WriteFile(path, []byte(got), 0o644)
		}
		if err != nil {
			t.Fatalf("golden: %v", err)
		}
		return true
	}
	want, err := os.ReadFile(path)
	if err == nil && got == string(want) {
		return true
	}
	// The command reruns t's top-level test in its package, under the build
	// tags the test binary was built with.
	wd, _ := os.Getwd()
	top, _, _ := strings.Cut(t.Name(), "/")
	tags := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-tags" {
				tags = "-tags " + s.Value + " "
			}
		}
	}
	cmd := fmt.Sprintf("go test %s%s -run '^%s$' -update", tags, wd, top)
	if err != nil {
		t.Errorf("golden: pin %s: %v\nto create it: %s", path, err, cmd)
	} else {
		t.Errorf("golden: pin %s moved\n--- got\n%s\n--- want\n%s\nif that is intended: %s, review the testdata diff and say why in CHANGES.md", path, got, want, cmd)
	}
	return false
}
