package collector

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sage/internal/gr"
)

func qTraj(scheme string, n int) Trajectory {
	tr := Trajectory{Scheme: scheme, Env: "env"}
	for i := 0; i < n; i++ {
		tr.Steps = append(tr.Steps, gr.Step{
			State:  []float64{float64(i), 1},
			Action: 1.0,
			Reward: 0.5,
		})
	}
	return tr
}

func TestCheckTrajectoryFindsEachPoison(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Trajectory)
		reason string
	}{
		{"empty", func(tr *Trajectory) { tr.Steps = nil }, ReasonTruncated},
		{"single-step", func(tr *Trajectory) { tr.Steps = tr.Steps[:1] }, ReasonTruncated},
		{"nan-state", func(tr *Trajectory) { tr.Steps[3].State[0] = math.NaN() }, ReasonNonFiniteState},
		{"inf-state", func(tr *Trajectory) { tr.Steps[3].State[1] = math.Inf(1) }, ReasonNonFiniteState},
		{"nan-action", func(tr *Trajectory) { tr.Steps[2].Action = math.NaN() }, ReasonNonFiniteAction},
		{"zero-action", func(tr *Trajectory) { tr.Steps[2].Action = 0 }, ReasonActionRange},
		{"huge-action", func(tr *Trajectory) { tr.Steps[2].Action = 1e9 }, ReasonActionRange},
		{"nan-reward", func(tr *Trajectory) { tr.Steps[4].Reward = math.NaN() }, ReasonNonFiniteReward},
		{"huge-reward", func(tr *Trajectory) { tr.Steps[4].Reward = 1e12 }, ReasonRewardRange},
		{"ragged-state", func(tr *Trajectory) { tr.Steps[5].State = tr.Steps[5].State[:1] }, ReasonStateWidth},
		{"frozen", func(tr *Trajectory) {
			for i := range tr.Steps {
				tr.Steps[i].State = []float64{7, 7}
			}
		}, ReasonFrozenState},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := qTraj("s", 80)
			tc.mutate(&tr)
			issues := CheckTrajectory(tr)
			if len(issues) == 0 {
				t.Fatal("poison not detected")
			}
			if issues[0].Reason != tc.reason {
				t.Fatalf("reason %q, want %q", issues[0].Reason, tc.reason)
			}
		})
	}
}

func TestCheckTrajectoryCleanPasses(t *testing.T) {
	tr := qTraj("s", 80)
	if issues := CheckTrajectory(tr); len(issues) != 0 {
		t.Fatalf("clean trajectory flagged: %+v", issues)
	}
}

func TestSanitizeQuarantinesAndReports(t *testing.T) {
	p := &Pool{}
	p.Trajs = []Trajectory{qTraj("a", 40), qTraj("b", 40), qTraj("c", 40)}
	p.Trajs[1].Steps[5].Reward = math.NaN()

	clean, rep := Sanitize(p)
	if rep.Total != 3 || rep.Kept != 2 || rep.Quarantined != 1 {
		t.Fatalf("report %+v", rep)
	}
	if len(clean.Trajs) != 2 {
		t.Fatalf("clean pool has %d trajs", len(clean.Trajs))
	}
	for _, tr := range clean.Trajs {
		if tr.Scheme == "b" {
			t.Fatal("poisoned trajectory survived sanitize")
		}
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Index != 1 || rep.Issues[0].Scheme != "b" {
		t.Fatalf("issues %+v", rep.Issues)
	}

	// Sidecar must round-trip as JSONL: a summary line plus one per issue.
	path := filepath.Join(t.TempDir(), "pool.quarantine.jsonl")
	if err := rep.WriteSidecar(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	scan := bufio.NewScanner(f)
	for scan.Scan() {
		var m map[string]any
		if err := json.Unmarshal(scan.Bytes(), &m); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("%d sidecar lines, want 2", lines)
	}
}

// Quarantine is Sanitize plus what every tool does with the report: a
// sidecar and one line under the tool's prefix when something was dropped,
// neither when the pool is clean.
func TestQuarantineReportsUnderTheCallersPrefix(t *testing.T) {
	dir := t.TempDir()
	p := &Pool{Failed: []FailedCell{{Scheme: "x", Env: "e", Err: "boom"}}}
	p.Trajs = []Trajectory{qTraj("a", 40), qTraj("b", 40)}

	var out bytes.Buffer
	cleanSidecar := filepath.Join(dir, "clean.quarantine.jsonl")
	clean, rep, err := Quarantine(p, cleanSidecar, "quality", &out)
	if err != nil || rep.Quarantined != 0 || len(clean.Trajs) != 2 || out.Len() != 0 {
		t.Fatalf("clean pool: %+v, %d kept, output %q, err %v", rep, len(clean.Trajs), out.String(), err)
	}
	if _, err := os.Stat(cleanSidecar); err == nil {
		t.Fatal("a clean pool wrote a sidecar")
	}

	p.Trajs[1].Steps[5].Reward = math.NaN()
	sidecar := filepath.Join(dir, "pool.quarantine.jsonl")
	clean, rep, err = Quarantine(p, sidecar, "doctor", &out)
	if err != nil || rep.Quarantined != 1 || len(clean.Trajs) != 1 || len(clean.Failed) != 1 {
		t.Fatalf("poisoned pool: %+v, %d kept, err %v", rep, len(clean.Trajs), err)
	}
	if want := "doctor: quarantined 1/2 trajectories (report: " + sidecar + ")\n"; out.String() != want {
		t.Fatalf("output %q, want %q", out.String(), want)
	}
	if raw, err := os.ReadFile(sidecar); err != nil || bytes.Count(raw, []byte("\n")) != 2 {
		t.Fatalf("sidecar %q, err %v", raw, err)
	}
	if _, _, err := Quarantine(p, filepath.Join(dir, "missing", "q.jsonl"), "quality", &out); err == nil {
		t.Fatal("an unwritable sidecar was not reported")
	}

	out.Reset()
	clean.ReportFailed(&out)
	if out.String() != "failed cell: x/e: boom\n" {
		t.Fatalf("failed-cell report %q", out.String())
	}
}
