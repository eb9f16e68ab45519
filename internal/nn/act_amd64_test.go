//go:build amd64

package nn

import (
	"os"
	"strings"
	"testing"
)

// TestActKernelVariant: the probe must have switched the kernel on exactly
// where math.Exp runs the fused multiply-add path the kernel copies — with
// AVX2 and FMA3 — and off under GODEBUG=cpu.fma=off, where math.Exp takes
// its mul/add path: there the kernel's bits must differ from the scalar
// functions' somewhere on the probe, so the probe cannot keep it by chance.
func TestActKernelVariant(t *testing.T) {
	if !x86CpuidAVX2() || !x86CpuidFMA() {
		if actKernel {
			t.Fatal("activation kernel on without AVX2 and FMA3")
		}
		t.Skip("no AVX2 or no FMA3: the activations run scalar")
	}
	if !strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		if !actKernel {
			t.Fatal("activation kernel off with AVX2 and FMA3: it no longer matches math.Exp")
		}
		return
	}
	if actKernel {
		t.Fatal("activation kernel on under GODEBUG=cpu.fma=off, where math.Exp does not fuse")
	}
	n := actMismatches()
	if n == 0 {
		t.Fatal("the kernel matches the mul/add math.Exp on every probe input")
	}
	t.Logf("the kernel differs from the mul/add math.Exp on %d of %d probe outputs", n, 2*actProbeN)
}
