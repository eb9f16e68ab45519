// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in integer microseconds (Time). Events fire in the total
// order (time, schedule order): events scheduled for the same instant fire in
// the order they were scheduled, which together with seeded random sources
// makes every simulation in this repository reproducible bit-for-bit.
//
// The queue is a 4-ary min-heap of value nodes over a table of event slots:
// scheduling allocates nothing in steady state, and Cancel removes its event
// instead of leaving a tombstone, so the heap holds live events only. A
// Handle names a slot and the slot's generation, bumped whenever the slot is
// vacated, so a stale handle is inert even when the slot has a new tenant.
package sim

import "fmt"

// Time is a simulated timestamp in microseconds since the start of the run.
type Time int64

// Common durations, in simulated microseconds.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * 1000
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromMillis converts floating-point milliseconds to a Time.
func FromMillis(ms float64) Time { return Time(ms * float64(Millisecond)) }

// String renders the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Event is a callback scheduled to run at a simulated instant.
type Event func(now Time)

// Handler is a callback bound once — typically to a method value held in a
// field — and scheduled many times with a per-event argument through
// Loop.AtArg.
type Handler func(now Time, arg any)

// node is one heap entry; the callback lives in slots[slot].
type node struct {
	at   Time
	seq  uint64 // tie-breaker: schedule order
	slot int32
}

func (a node) before(b node) bool { return a.at < b.at || (a.at == b.at && a.seq < b.seq) }

// slot holds a pending event's callback and where its node sits in the heap.
type slot struct {
	h   Handler
	arg any
	pos int32  // index into Loop.heap while the slot is occupied
	gen uint32 // bumped when the slot is vacated
}

// Handle identifies a scheduled event so it can be cancelled. The zero Handle
// is never pending and cancelling it does nothing.
type Handle struct {
	loop *Loop
	slot int32
	gen  uint32
}

// Pending reports whether the event is still waiting to fire: its slot has
// not been vacated since the handle was issued.
func (h Handle) Pending() bool { return h.loop != nil && h.loop.slots[h.slot].gen == h.gen }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (h Handle) Cancel() {
	if h.Pending() {
		l := h.loop
		l.remove(int(l.slots[h.slot].pos))
		l.vacate(h.slot)
	}
}

// Loop is a single-threaded discrete-event loop.
// The zero value is not usable; use NewLoop.
type Loop struct {
	now   Time
	heap  []node
	slots []slot
	free  []int32 // vacant slots
	seq   uint64
	ran   uint64
}

// NewLoop returns an empty event loop positioned at time zero.
func NewLoop() *Loop { return &Loop{} }

// Now returns the current simulated time.
func (l *Loop) Now() Time { return l.now }

// Processed returns the number of events executed so far.
func (l *Loop) Processed() uint64 { return l.ran }

// At schedules fn to run at the absolute time at. Scheduling in the past
// panics: it indicates a logic error in the caller.
func (l *Loop) At(at Time, fn Event) Handle { return l.AtArg(at, runEvent, fn) }

// runEvent adapts an Event to the slot's Handler shape: a func value is
// pointer-shaped, so carrying it in arg allocates nothing.
func runEvent(now Time, arg any) { arg.(Event)(now) }

// AtArg schedules h(at, arg) without allocating, provided h is a func value
// the caller made once and arg is pointer-shaped (a pointer, or nil) — the
// entry point for per-packet events. Order and panics are as for At.
func (l *Loop) AtArg(at Time, h Handler, arg any) Handle {
	if at < l.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, l.now))
	}
	var s int32
	if n := len(l.free); n > 0 {
		s = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		s = int32(len(l.slots))
		l.slots = append(l.slots, slot{})
	}
	sl := &l.slots[s]
	sl.h, sl.arg = h, arg
	l.heap = append(l.heap, node{})
	l.up(len(l.heap)-1, node{at: at, seq: l.seq, slot: s})
	l.seq++
	return Handle{loop: l, slot: s, gen: sl.gen}
}

// After schedules fn to run d after the current time.
func (l *Loop) After(d Time, fn Event) Handle {
	if d < 0 {
		d = 0
	}
	return l.At(l.now+d, fn)
}

// Step executes the next pending event, if any, and reports whether one ran.
func (l *Loop) Step() bool {
	if len(l.heap) == 0 {
		return false
	}
	top := l.heap[0]
	l.remove(0)
	sl := &l.slots[top.slot]
	h, arg := sl.h, sl.arg
	// Vacated before the callback runs: inside it the event's own handle is
	// already stale, and the slot is free for whatever it schedules.
	l.vacate(top.slot)
	l.now = top.at
	l.ran++
	h(l.now, arg)
	return true
}

// RunUntil executes events in order until the queue is empty or the next
// event is later than deadline. The loop's clock is left at the time of the
// last executed event, or advanced to deadline if that is later.
func (l *Loop) RunUntil(deadline Time) {
	for len(l.heap) > 0 && l.heap[0].at <= deadline {
		l.Step()
	}
	if l.now < deadline {
		l.now = deadline
	}
}

// Run executes events until none remain.
func (l *Loop) Run() {
	for l.Step() {
	}
}

// PendingEvents returns the number of events waiting to fire.
func (l *Loop) PendingEvents() int { return len(l.heap) }

func (l *Loop) vacate(s int32) {
	sl := &l.slots[s]
	sl.h, sl.arg = nil, nil
	sl.gen++
	l.free = append(l.free, s)
}

// remove deletes the node at heap index i by re-seating the last node there.
func (l *Loop) remove(i int) {
	last := len(l.heap) - 1
	moved := l.heap[last]
	l.heap = l.heap[:last]
	if i == last {
		return
	}
	if i > 0 && moved.before(l.heap[(i-1)/4]) {
		l.up(i, moved)
	} else {
		l.down(i, moved)
	}
}

// up places n at or above the hole at index i.
func (l *Loop) up(i int, n node) {
	for i > 0 {
		parent := (i - 1) / 4
		if !n.before(l.heap[parent]) {
			break
		}
		l.set(i, l.heap[parent])
		i = parent
	}
	l.set(i, n)
}

// down places n at or below the hole at index i.
func (l *Loop) down(i int, n node) {
	for {
		first := 4*i + 1
		if first >= len(l.heap) {
			break
		}
		best := first
		for c := first + 1; c < first+4 && c < len(l.heap); c++ {
			if l.heap[c].before(l.heap[best]) {
				best = c
			}
		}
		if !l.heap[best].before(n) {
			break
		}
		l.set(i, l.heap[best])
		i = best
	}
	l.set(i, n)
}

func (l *Loop) set(i int, n node) {
	l.heap[i] = n
	l.slots[n.slot].pos = int32(i)
}
