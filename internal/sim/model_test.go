package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestLoopMatchesSortedSliceModel drives 10⁵ mixed At/After/AtArg/Cancel/Step
// operations against a sorted-slice reference: events fire in (at, seq)
// order, a cancelled event never fires, a handle whose event fired or was
// cancelled is inert even after its slot has a new tenant, an event cannot
// cancel itself from inside its own callback, and callbacks may schedule.
func TestLoopMatchesSortedSliceModel(t *testing.T) {
	type ref struct {
		at Time
		id int // schedule order
	}
	var (
		l       = NewLoop()
		rng     = rand.New(rand.NewSource(1))
		pending []ref    // the model: sorted by (at, id)
		handles []Handle // by id, kept after the event is gone
		fired   []int
	)
	find := func(id int) int { // index in pending, or -1
		for i, r := range pending {
			if r.id == id {
				return i
			}
		}
		return -1
	}
	var schedule func(d Time)
	onFire := func(id int) {
		fired = append(fired, id)
		if handles[id].Pending() {
			t.Fatalf("event %d still pending inside its own callback", id)
		}
		if id%5 == 0 {
			schedule(Time(rng.Intn(50))) // takes over the slot just vacated
		}
		handles[id].Cancel() // stale: must not cancel the new tenant
	}
	argFire := Handler(func(now Time, arg any) { onFire(*arg.(*int)) })
	schedule = func(d Time) {
		id, at := len(handles), l.Now()+d
		var h Handle
		switch id % 3 {
		case 0:
			h = l.At(at, func(Time) { onFire(id) })
		case 1:
			h = l.After(d, func(Time) { onFire(id) })
		default:
			h = l.AtArg(at, argFire, &id)
		}
		handles = append(handles, h)
		i := sort.Search(len(pending), func(i int) bool { return pending[i].at > at })
		pending = append(pending, ref{})
		copy(pending[i+1:], pending[i:])
		pending[i] = ref{at, id}
	}

	for op := 0; op < 100_000; op++ {
		switch r := rng.Intn(10); {
		case r < 4:
			schedule(Time(rng.Intn(1000)))
		case r < 6 && len(handles) > 0:
			id := rng.Intn(len(handles)) // live, fired or cancelled alike
			i := find(id)
			if handles[id].Pending() != (i >= 0) {
				t.Fatalf("op %d: event %d Pending() = %v, model says %v", op, id, i < 0, i >= 0)
			}
			handles[id].Cancel()
			if i >= 0 {
				pending = append(pending[:i], pending[i+1:]...)
			}
			if handles[id].Pending() {
				t.Fatalf("op %d: event %d pending after Cancel", op, id)
			}
		default:
			if len(pending) == 0 {
				if l.Step() {
					t.Fatalf("op %d: Step ran an event the model does not have", op)
				}
				continue
			}
			want, n := pending[0], len(fired)
			pending = pending[1:]
			if !l.Step() || len(fired) != n+1 || fired[n] != want.id || l.Now() != want.at {
				t.Fatalf("op %d: fired %v at %v, want event %d at %v", op, fired[n:], l.Now(), want.id, want.at)
			}
		}
		if l.PendingEvents() != len(pending) {
			t.Fatalf("op %d: PendingEvents() = %d, model has %d", op, l.PendingEvents(), len(pending))
		}
	}
	if len(fired) < 10_000 {
		t.Fatalf("weak run: only %d events fired", len(fired))
	}
	l.Run()
	if l.PendingEvents() != 0 || int(l.Processed()) != len(fired) {
		t.Fatalf("after Run: %d pending, %d processed, %d fired", l.PendingEvents(), l.Processed(), len(fired))
	}
}

// TestLoopScheduleFireAllocatesNothing: with 1 024 events pending, scheduling
// one more and firing one allocates nothing — for a closure made once as
// for a bound handler with a pointer argument.
func TestLoopScheduleFireAllocatesNothing(t *testing.T) {
	l := NewLoop()
	nop := Event(func(Time) {})
	for i := 0; i < 1024; i++ {
		l.At(Time(i), nop)
	}
	count := 0
	bump := Handler(func(_ Time, arg any) { *arg.(*int)++ })
	if avg := testing.AllocsPerRun(1000, func() {
		l.At(l.Now()+2000, nop)
		l.Step()
		l.AtArg(l.Now()+2000, bump, &count).Cancel()
		l.AtArg(l.Now()+2000, bump, &count)
		l.Step()
	}); avg != 0 {
		t.Fatalf("%.2f allocations per schedule+fire, want 0", avg)
	}
	if l.PendingEvents() != 1024 {
		t.Fatalf("PendingEvents = %d, want 1024", l.PendingEvents())
	}
}
