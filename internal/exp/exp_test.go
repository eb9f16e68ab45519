package exp

import (
	"strings"
	"testing"

	"sage/internal/netem"
	"sage/internal/nn"
	"sage/internal/sim"
)

// micro is an even smaller sizing than Quick, for tests.
func micro() Sizing {
	s := Quick()
	s.Name = "micro"
	s.SetIDur = 3 * sim.Second
	s.SetIIDur = 6 * sim.Second
	s.TrainSteps = 40
	s.BCSteps = 30
	s.OnlineRounds = 2
	s.OnlineSteps = 5
	s.Episodes = 2
	s.DaggerIters = 1
	s.Policy = nn.PolicyConfig{Enc: 12, Hidden: 6, ResBlocks: 1, K: 2}
	s.PathCount = 1
	s.PathDur = 4 * sim.Second
	return s
}

var microArt = NewArtifacts(micro())

func TestSizingPresets(t *testing.T) {
	q, p := Quick(), Paper()
	if q.TrainSteps >= p.TrainSteps {
		t.Fatal("paper must train longer than quick")
	}
	if len(q.SetI()) == 0 || len(q.SetII()) == 0 {
		t.Fatal("empty scenario sets")
	}
	if len(p.SetI()) <= len(q.SetI()) {
		t.Fatal("paper grid must be denser")
	}
	if q.Level != netem.GridTiny {
		t.Fatal("quick level")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow("xx", "y")
	s := tab.String()
	if !strings.Contains(s, "== T ==") || !strings.Contains(s, "xx") {
		t.Fatalf("rendered: %q", s)
	}
}

func TestFig05Shape(t *testing.T) {
	tab := Fig05()
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Peak at x=1 (row index 4).
	if tab.Rows[4][1] != "1.0000" {
		t.Fatalf("peak = %v", tab.Rows[4])
	}
	if tab.Rows[0][1] != tab.Rows[8][1] {
		t.Fatalf("not symmetric: %v vs %v", tab.Rows[0], tab.Rows[8])
	}
}

func TestArtifactsMemoization(t *testing.T) {
	a := microArt
	p1 := a.Pool()
	p2 := a.Pool()
	if p1 != p2 {
		t.Fatal("pool not memoized")
	}
	m1 := a.Sage()
	m2 := a.Sage()
	if m1 != m2 {
		t.Fatal("sage not memoized")
	}
	b1, err := a.Baseline("bc")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := a.Baseline("bc")
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatal("baseline not memoized")
	}
	if _, err := a.Baseline("no-such-baseline"); err == nil {
		t.Fatal("unknown baseline must error")
	}
}

func TestEntrantNames(t *testing.T) {
	a := microArt
	for _, n := range []string{"sage", "bc", "cubic", "vivace"} {
		e := a.Entrant(n)
		if e.Name != n {
			t.Fatalf("entrant %q has name %q", n, e.Name)
		}
	}
	orca := a.Entrant("orca")
	if orca.CC == nil || orca.Controller == nil {
		t.Fatal("orca must be a hybrid entrant")
	}
}

func TestFig01Runs(t *testing.T) {
	tab := Fig01(microArt)
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Rows must be ranked by Set I rate (descending).
	if tab.Header[1] != "winrate_setI" {
		t.Fatal("header")
	}
}

func TestFig11Runs(t *testing.T) {
	tab := Fig11(microArt)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Vegas is in the pool: its distances must be very small.
	if tab.Rows[0][0] != "vegas" {
		t.Fatal("row order")
	}
}

func TestFig17Runs(t *testing.T) {
	tabs := Fig17(microArt)
	if len(tabs) != 3 {
		t.Fatalf("tables = %d", len(tabs))
	}
	for _, tb := range tabs {
		if len(tb.Rows) < 5 {
			t.Fatalf("%s too few rows", tb.Title)
		}
	}
}

func TestFig19Runs(t *testing.T) {
	tab := Fig19(microArt)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestSuiteRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 22 {
		t.Fatalf("experiments = %d", len(ids))
	}
	if _, err := Find("fig09"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("robustness"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	e, _ := Find("fig05")
	var sb strings.Builder
	RunAndPrint(e, microArt, &sb)
	if !strings.Contains(sb.String(), "Fig. 5") {
		t.Fatal("RunAndPrint output")
	}
}
