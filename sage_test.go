package sage

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// bench/ is its own module, so `go build ./...` here never sees it: an
// exported name it uses can be deleted with tier-1 green. This vets it and
// runs its short tests against the working tree the way bench/run.sh builds
// it.
func TestBenchModuleCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "-short", "./..."}} {
		cmd := exec.Command(goTool, args...)
		cmd.Dir = "bench"
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOWORK=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in bench/: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}

// The façade test walks the public API end to end at toy scale.
func TestPublicPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	scens := append(SetI(GridTiny, 3*Second), SetII(GridTiny, 6*Second)...)
	if len(scens) == 0 {
		t.Fatal("no scenarios")
	}
	pool, err := Collect([]string{"cubic", "vegas"}, scens[:6])
	if err != nil {
		t.Fatal(err)
	}
	if pool.Transitions() == 0 {
		t.Fatal("empty pool")
	}
	cfg := TrainConfig{}
	cfg.CRR.Steps = 30
	cfg.CRR.Policy.Enc = 12
	cfg.CRR.Policy.Hidden = 6
	cfg.CRR.Policy.K = 2
	model := Train(pool, cfg)
	res := Deploy(model, scens[0])
	if res.ThroughputBps <= 0 {
		t.Fatal("deployed model moved no traffic")
	}
	ref := RunScheme("cubic", scens[0])
	if ref.ThroughputBps <= 0 {
		t.Fatal("reference scheme moved no traffic")
	}
	if len(PoolSchemes()) != 13 {
		t.Fatalf("pool schemes = %d", len(PoolSchemes()))
	}
}
