package promote_test

import (
	"strings"
	"testing"

	"sage/internal/promote"
)

// verdict observes cur once per polling window, Consecutive times, and
// returns the last verdict; the earlier observations must stay silent.
func verdict(t *testing.T, w *promote.Watchdog, cur promote.WatchSample) (bool, string) {
	t.Helper()
	for i := 1; i < promote.Consecutive; i++ {
		if fire, why := w.Observe(cur); fire {
			t.Fatalf("fired after %d of %d bad observations: %s", i, promote.Consecutive, why)
		}
	}
	return w.Observe(cur)
}

func TestWatchdogNoVerdictBelowMinDecisions(t *testing.T) {
	w := promote.NewWatchdog()
	w.Arm(promote.WatchSample{Decisions: 1000, Fallbacks: 0, Trips: 0})
	// MinDecisions-1 post-swap decisions, all fallbacks: terrible, but not
	// yet a verdict, however often it is observed.
	below := promote.WatchSample{Decisions: 1000 + promote.MinDecisions - 1, Fallbacks: promote.MinDecisions - 1}
	for i := 0; i < promote.Consecutive; i++ {
		if fire, _ := w.Observe(below); fire {
			t.Fatal("watchdog fired below MinDecisions")
		}
	}
	at := promote.WatchSample{Decisions: 1000 + promote.MinDecisions, Fallbacks: promote.MinDecisions}
	if fire, _ := verdict(t, w, at); !fire {
		t.Fatal("watchdog silent once MinDecisions accrued")
	}
}

func TestWatchdogConsecutiveStreak(t *testing.T) {
	if promote.Consecutive < 2 {
		t.Fatalf("Consecutive = %d: a streak needs at least two observations", promote.Consecutive)
	}
	w := promote.NewWatchdog()
	w.Arm(promote.WatchSample{})
	bad := promote.WatchSample{Decisions: 300, Fallbacks: 150}
	if fire, _ := w.Observe(bad); fire {
		t.Fatalf("fired on first bad observation with Consecutive=%d", promote.Consecutive)
	}
	// A clean window in between resets the streak (cumulative rate dips
	// back under the floor as healthy decisions accrue).
	decisions, fallbacks := int64(10000), int64(50)
	if fire, _ := w.Observe(promote.WatchSample{Decisions: decisions, Fallbacks: fallbacks}); fire {
		t.Fatal("fired on a clean observation")
	}
	for i := 1; i <= promote.Consecutive; i++ {
		decisions, fallbacks = decisions+100, fallbacks+200
		fire, reason := w.Observe(promote.WatchSample{Decisions: decisions, Fallbacks: fallbacks})
		if i < promote.Consecutive {
			if fire {
				t.Fatalf("fired after %d bad observations: the streak survived the clean window or fired early", i)
			}
			continue
		}
		if !fire {
			t.Fatalf("did not fire after %d consecutive bad observations", i)
		}
		if !strings.Contains(reason, "fallback ratio") {
			t.Fatalf("reason = %q, want a fallback-ratio verdict", reason)
		}
	}
	if w.Armed() {
		t.Fatal("watchdog still armed after firing")
	}
}

// The baseline scales the limit: a fleet that already trips 10% of the
// time only demotes when the new model doubles that, while a clean fleet
// falls back to the absolute rate floor (0.01 per decision).
func TestWatchdogBaselineFactorAndFloor(t *testing.T) {
	// Noisy baseline: 10% trips pre-swap. Post-swap 15% is within 2×.
	w := promote.NewWatchdog()
	w.Arm(promote.WatchSample{Decisions: 1000, Trips: 100})
	if fire, _ := verdict(t, w, promote.WatchSample{Decisions: 2000, Trips: 250}); fire {
		t.Fatal("fired at 15% trips against a 10% baseline (limit 20%)")
	}
	if fire, reason := verdict(t, w, promote.WatchSample{Decisions: 3000, Trips: 700}); !fire {
		t.Fatal("did not fire at 22.5% trips against a 10% baseline")
	} else if !strings.Contains(reason, "trip rate") {
		t.Fatalf("reason = %q, want a trip-rate verdict", reason)
	}

	// Clean baseline: zero trips. One stray trip in 1000 decisions is
	// under the floor; 5% is over it.
	w2 := promote.NewWatchdog()
	w2.Arm(promote.WatchSample{Decisions: 5000})
	if fire, _ := verdict(t, w2, promote.WatchSample{Decisions: 6000, Trips: 1}); fire {
		t.Fatal("fired on a single stray trip under the rate floor")
	}
	if fire, _ := verdict(t, w2, promote.WatchSample{Decisions: 7000, Trips: 100}); !fire {
		t.Fatal("did not fire at 5% trips over a clean baseline")
	}
}

func TestWatchdogDisarmedIsSilent(t *testing.T) {
	w := promote.NewWatchdog()
	if fire, _ := verdict(t, w, promote.WatchSample{Decisions: 1000, Fallbacks: 1000}); fire {
		t.Fatal("an unarmed watchdog fired")
	}
	w.Arm(promote.WatchSample{})
	w.Disarm()
	if fire, _ := verdict(t, w, promote.WatchSample{Decisions: 1000, Fallbacks: 1000}); fire {
		t.Fatal("a disarmed watchdog fired")
	}
}
