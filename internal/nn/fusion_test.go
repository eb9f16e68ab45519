package nn

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestNoFusedMultiplyAdd holds nn, gr and rl to DESIGN.md §11's
// mul-then-add contract on an architecture whose compiler fuses x*y + z by
// itself: it compiles the three for arm64 with -S and fails on any fused
// multiply-add. A fused chain rounds once where the scalar oracle, the AVX2
// kernels and every golden round twice; an explicit float64(x*y) is the
// barrier.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goTool, "build", "-gcflags=-S", ".", "../gr", "../rl")
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "GOOS=linux", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build for arm64: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "STEXT") {
		t.Fatalf("no assembly listing in the arm64 build output:\n%s", out)
	}
	fused := regexp.MustCompile(`\((\S+\.go:\d+)\)\s+(FN?M(?:ADD|SUB)[DS])\s`)
	var sites []string
	for _, m := range fused.FindAllStringSubmatch(string(out), -1) {
		sites = append(sites, m[1]+" "+m[2])
	}
	if len(sites) > 0 {
		t.Errorf("%d fused multiply-adds in the arm64 build; add float64(x*y) barriers at:\n%s", len(sites), strings.Join(sites, "\n"))
	}
}

// TestAssemblyHasNoFusedMultiplyAdd holds nn's amd64 assembly to the same
// contract, which TestNoFusedMultiplyAdd (an arm64 build of the Go code)
// cannot see: it scans every .s file of the package for a fused
// multiply-add or multiply-subtract mnemonic and fails on any. The
// activation kernel, act_amd64.s, copies math.Exp's fused path on purpose
// and stays out of the scan.
func TestAssemblyHasNoFusedMultiplyAdd(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil {
		t.Fatal(err)
	}
	fused := regexp.MustCompile(`\bVFN?M(?:ADD|SUB)\w*`)
	scanned := 0
	for _, name := range files {
		if name == "act_amd64.s" {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		scanned++
		for i, line := range strings.Split(string(src), "\n") {
			if code, _, _ := strings.Cut(line, "//"); fused.MatchString(code) {
				t.Errorf("%s:%d: fused multiply-add %q", name, i+1, fused.FindString(code))
			}
		}
	}
	if scanned == 0 {
		t.Fatal("no assembly file to scan: gemm_amd64.s is missing")
	}
}
