package sim

import (
	"math/rand"
	"slices"
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
// one more and firing one allocates nothing — for a closure made once, for a
// bound handler with a pointer argument, for a Line holding all 1 024, and
// for a Timer re-armed later, earlier and after a Stop.
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

	l = NewLoop()
	var ln Line
	ln.Init(l, bump)
	for i := 0; i < 1024; i++ {
		ln.Push(Time(i), &count)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		ln.Push(l.Now()+1024, &count)
		l.Step()
	}); avg != 0 {
		t.Fatalf("%.2f allocations per Line.Push+fire, want 0", avg)
	}
	if l.PendingEvents() != 1024 || len(l.heap) != 1 {
		t.Fatalf("line: %d events pending in %d heap nodes, want 1024 in 1", l.PendingEvents(), len(l.heap))
	}

	l = NewLoop()
	var fire Event
	fire = func(now Time) { l.At(now+1024, fire) }
	for i := 0; i < 1024; i++ {
		l.At(Time(i), fire)
	}
	var tm Timer
	tm.Init(l, nop)
	if avg := testing.AllocsPerRun(1000, func() {
		tm.Reset(l.Now() + 1)
		tm.Stop() // leaves a node for settle to drop
		l.Step()
		l.Step()
		tm.Reset(l.Now() + 600)
		tm.Reset(l.Now() + 700) // later: the node stays
		tm.Stop()
		tm.Reset(l.Now() + 2) // earlier: the node is re-keyed
		tm.Reset(l.Now() + 3) // later: the node comes up early and is re-keyed
		for tm.Pending() {
			l.Step()
		}
	}); avg != 0 {
		t.Fatalf("%.2f allocations per Timer.Reset/Stop+fire, want 0", avg)
	}
	if l.PendingEvents() != 1024 {
		t.Fatalf("timer: PendingEvents = %d, want 1024", l.PendingEvents())
	}
}

// orderRun is one side of FuzzEventOrder: a loop with orderLines queues of
// events and orderTimers re-armed timers, built from Lines and Timers, or, on
// the reference side, from one AtArg per event and Cancel plus At per re-arm.
// Every event that fires is logged (line and plain events by id, timer k as
// -1-k) and reacts by scheduling more, as a function of the log's length
// only, so the two sides do the same thing while their logs agree.
type orderRun struct {
	l      *Loop
	ref    bool
	fired  []int
	nextID int
	lines  [orderLines]Line
	timers [orderTimers]Timer
	refTmr [orderTimers]Handle
	tmrFn  [orderTimers]Event
	onID   Handler
}

const (
	orderLines  = 2
	orderTimers = 3
)

func newOrderRun(ref bool) *orderRun {
	r := &orderRun{l: NewLoop(), ref: ref}
	r.onID = func(_ Time, arg any) { r.log(arg.(int)) }
	for k := range r.timers {
		r.tmrFn[k] = func(Time) { r.log(-1 - k) }
		r.timers[k].Init(r.l, r.tmrFn[k])
	}
	for k := range r.lines {
		r.lines[k].Init(r.l, r.onID)
	}
	return r
}

func (r *orderRun) push(k int, at Time) {
	id := r.nextID
	r.nextID++
	if r.ref {
		r.l.AtArg(at, r.onID, id)
	} else {
		r.lines[k].Push(at, id)
	}
}

func (r *orderRun) event(at Time) {
	r.l.AtArg(at, r.onID, r.nextID)
	r.nextID++
}

func (r *orderRun) reset(k int, at Time) {
	if r.ref {
		r.refTmr[k].Cancel()
		r.refTmr[k] = r.l.At(at, r.tmrFn[k])
	} else {
		r.timers[k].Reset(at)
	}
}

func (r *orderRun) stop(k int) {
	if r.ref {
		r.refTmr[k].Cancel()
	} else {
		r.timers[k].Stop()
	}
}

func (r *orderRun) armed(k int) bool {
	if r.ref {
		return r.refTmr[k].Pending()
	}
	return r.timers[k].Pending()
}

// log records a fired event and schedules from inside the callback: line
// entries at or just after the clock (so at equal times, and often before
// a line's head), timer re-arms and stops, and plain events.
func (r *orderRun) log(id int) {
	r.fired = append(r.fired, id)
	n, now := len(r.fired), r.l.Now()
	if n%3 == 0 {
		r.push(n%orderLines, now+Time(n%5))
	}
	if n%4 == 1 {
		r.reset(n%orderTimers, now+Time(n%7)*3)
	}
	if n%11 == 5 {
		r.stop(n / 11 % orderTimers)
	}
	if n%13 == 0 {
		r.event(now + Time(n%3))
	}
}

// apply runs the op encoded by (op, arg).
func (r *orderRun) apply(op, arg byte) {
	now := r.l.Now()
	switch op % 8 {
	case 0, 1, 2:
		r.push(int(arg)%orderLines, now+Time(arg>>2))
	case 3:
		r.reset(int(arg)%orderTimers, now+Time(arg>>1))
	case 4:
		r.stop(int(arg) % orderTimers)
	case 5:
		r.event(now + Time(arg>>2))
	case 6:
		r.l.Step()
	default:
		r.l.RunUntil(now + Time(arg>>3))
	}
}

// FuzzEventOrder applies one op stream, two bytes an op, to a loop whose
// events ride Lines and Timers and to a reference loop that schedules each
// event on its own, and checks after every op that both have fired the same
// events in the same order, and agree on Now, Processed, PendingEvents and
// each timer's Pending. The stream pushes onto lines before their heads and
// at equal times, re-arms timers earlier and later, stops them, and does all
// of that from inside callbacks too. The seed corpus includes a 10⁵-op
// stream.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 40, 0, 4, 6, 0, 6, 0, 3, 20, 3, 2, 7, 255})
	f.Add([]byte{3, 60, 3, 10, 4, 0, 3, 90, 7, 255, 3, 2, 6, 0})
	long := make([]byte, 2*100_000)
	rand.New(rand.NewSource(1)).Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		a, b := newOrderRun(false), newOrderRun(true)
		agreed := 0 // a.fired[:agreed] == b.fired[:agreed]
		check := func(i int) {
			t.Helper()
			if !slices.Equal(a.fired[agreed:], b.fired[agreed:]) {
				n := min(len(a.fired), len(b.fired))
				k := agreed
				for k < n && a.fired[k] == b.fired[k] {
					k++
				}
				t.Fatalf("op %d: fire sequences part at event %d: %v, reference %v", i, k, a.fired[k:min(k+8, len(a.fired))], b.fired[k:min(k+8, len(b.fired))])
			}
			if a.l.Now() != b.l.Now() || a.l.Processed() != b.l.Processed() || a.l.PendingEvents() != b.l.PendingEvents() {
				t.Fatalf("op %d: now %v, processed %d, pending %d; reference %v, %d, %d", i,
					a.l.Now(), a.l.Processed(), a.l.PendingEvents(), b.l.Now(), b.l.Processed(), b.l.PendingEvents())
			}
			for k := range orderTimers {
				if a.armed(k) != b.armed(k) {
					t.Fatalf("op %d: timer %d Pending() = %v, reference %v", i, k, a.armed(k), b.armed(k))
				}
			}
			agreed = len(a.fired)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			a.apply(ops[i], ops[i+1])
			b.apply(ops[i], ops[i+1])
			check(i / 2)
		}
		a.l.Run()
		b.l.Run()
		check(len(ops) / 2)
	})
}
