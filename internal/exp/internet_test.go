package exp

import (
	"strings"
	"testing"
)

// Fig. 8's means must not depend on which rollout finishes first: two runs
// at two workers print the same bytes.
func TestFig08Deterministic(t *testing.T) {
	s := micro()
	s.Parallel, s.Repeats = 2, 2
	a := NewArtifacts(s)
	render := func() string {
		var sb strings.Builder
		for _, tb := range Fig08(a) {
			tb.Fprint(&sb)
		}
		return sb.String()
	}
	first, second := render(), render()
	if first != second {
		t.Fatalf("two Fig. 8 runs differ:\n%s\n%s", first, second)
	}
	if !strings.Contains(first, "natcp(optimal)") {
		t.Fatalf("cellular regime lost its oracle row:\n%s", first)
	}
}
