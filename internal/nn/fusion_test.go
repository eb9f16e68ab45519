package nn

import (
	"os"
	"os/exec"
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
