// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in integer microseconds (Time). Events fire in the total
// order (time, schedule order): events scheduled for the same instant fire in
// the order they were scheduled, which together with seeded random sources
// makes every simulation in this repository reproducible bit-for-bit.
//
// The queue is a 4-ary min-heap of value nodes over a table of event slots:
// scheduling allocates nothing in steady state, and Cancel removes its event
// instead of leaving a tombstone. A Handle names a slot and the slot's
// generation, bumped whenever the slot is vacated, so a stale handle is inert
// even when the slot has a new tenant.
//
// The heap holds only what can fire next. A Line queues any number of events
// for one handler behind a single node, keyed by its earliest entry, and a
// Timer that is re-armed later keeps the node it has, re-keying it to the
// new deadline when it comes up early. Every event reserves its schedule
// order when it is scheduled, whichever way it is, so the fire order is the
// one separate At calls would give.
//
// A simulation's buffers outlive it. A Line that is Released gives its ring
// to a package Pool, and the next Line to grow on any goroutine takes it
// instead of allocating; Pool and BufPool do the same for the packet slabs,
// rings and windows of the packages built on this one.
package sim

import (
	"fmt"
	"sync"
)

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
// Loop.AtArg or a Line.
type Handler func(now Time, arg any)

// What a heap node's slot holds.
const (
	eventNode uint8 = iota // one event, scheduled with At or AtArg
	lineNode               // a Line's earliest entry; the slot's arg is the *Line
	timerNode              // a Timer, possibly keyed earlier than its deadline; the arg is the *Timer
)

// node is one heap entry; the callback lives in slots[slot].
type node struct {
	at   Time
	seq  uint64 // tie-breaker: schedule order
	slot int32
	kind uint8
}

func (a node) before(b node) bool { return a.at < b.at || (a.at == b.at && a.seq < b.seq) }

// slot holds a pending node's callback and where the node sits in the heap.
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
		l.pending--
	}
}

// Loop is a single-threaded discrete-event loop.
// The zero value is not usable; use NewLoop.
type Loop struct {
	now     Time
	heap    []node
	slots   []slot
	free    []int32 // vacant slots
	seq     uint64
	ran     uint64
	pending int // events waiting to fire: line entries and armed timers count one each
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
	s := l.push(at, l.reserve(at), eventNode, h, arg)
	l.pending++
	return Handle{loop: l, slot: s, gen: l.slots[s].gen}
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
	if !l.settle() {
		return false
	}
	top := l.heap[0]
	sl := &l.slots[top.slot]
	h, arg := sl.h, sl.arg
	// Vacated before the callback runs: inside it the event's own handle is
	// already stale, and the slot is free for whatever it schedules. A line
	// keeps its node; fireLine re-keys it to the next entry.
	if top.kind != lineNode {
		l.remove(0)
		l.vacate(top.slot)
	}
	l.now = top.at
	l.ran++
	l.pending--
	h(l.now, arg)
	return true
}

// RunUntil executes events in order until the queue is empty or the next
// event is later than deadline. The loop's clock is left at the time of the
// last executed event, or advanced to deadline if that is later.
func (l *Loop) RunUntil(deadline Time) {
	for l.settle() && l.heap[0].at <= deadline {
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

// PendingEvents returns the number of events waiting to fire. Each entry of
// a Line counts, and an armed Timer counts once however often it was re-armed.
func (l *Loop) PendingEvents() int { return l.pending }

// reserve takes the schedule order of an event due at at: the next
// sequence number, whether the event gets a node of its own or not.
func (l *Loop) reserve(at Time) uint64 {
	if at < l.now {
		l.past(at)
	}
	l.seq++
	return l.seq - 1
}

// past reports scheduling in the past. It is kept out of line so that
// reserve stays small enough to inline.
//
//go:noinline
func (l *Loop) past(at Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, l.now))
}

// push puts a node keyed (at, seq) for h(·, arg) in the heap and returns
// its slot.
func (l *Loop) push(at Time, seq uint64, kind uint8, h Handler, arg any) int32 {
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
	l.up(len(l.heap)-1, node{at: at, seq: seq, slot: s, kind: kind})
	return s
}

// settle brings the next event to fire to the top of the heap and reports
// whether there is one. Only a timer's node can stand in the way: one its
// timer was re-armed past comes up early and is re-keyed to the deadline the
// timer reserved, and one its timer was stopped with is dropped. Neither
// runs anything or moves the clock.
func (l *Loop) settle() bool {
	return len(l.heap) > 0 && (l.heap[0].kind != timerNode || l.settleTimers())
}

func (l *Loop) settleTimers() bool {
	for len(l.heap) > 0 {
		top := l.heap[0]
		if top.kind != timerNode {
			return true
		}
		t := l.slots[top.slot].arg.(*Timer)
		switch {
		case !t.armed:
			l.remove(0)
			l.vacate(top.slot)
			t.queued = false
		case top.at != t.at || top.seq != t.seq:
			l.down(0, node{at: t.at, seq: t.seq, slot: top.slot, kind: timerNode})
		default:
			return true
		}
	}
	return false
}

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

// Line is a queue of events for one handler that takes a single heap node,
// keyed by its earliest entry — the way in-flight packets ride a
// propagation path. Push reserves the schedule order an AtArg at that moment
// would take, so entries fire exactly when and in the order separate AtArg
// calls would. A Line works where it was Init'ed: its node points at it, so a
// copy must be Init'ed before it is used.
type Line struct {
	loop       *Loop
	h          Handler
	buf        []lineEntry // ring: entries [head, tail) at index i&(len(buf)-1), in (at, seq) order
	head, tail int
	slot       int32 // the line's heap node, while it has entries
}

type lineEntry struct {
	at  Time
	seq uint64
	arg any
}

// Init binds a line not yet in use (or a copy) to l, to fire h(at, arg) for
// each entry.
func (ln *Line) Init(l *Loop, h Handler) { *ln = Line{loop: l, h: h} }

// Push schedules the line's handler to run with arg at time at. It
// allocates nothing once the ring has grown to the line's peak length, and
// arg must be pointer-shaped as for AtArg. Order and panics are as for At.
// An entry is inserted from the tail, so one that overtakes others walks
// back past only those.
func (ln *Line) Push(at Time, arg any) {
	l := ln.loop
	seq := l.reserve(at)
	l.pending++
	if ln.tail-ln.head == len(ln.buf) {
		ln.grow()
	}
	mask := len(ln.buf) - 1
	j := ln.tail
	for j > ln.head && ln.buf[(j-1)&mask].at > at {
		ln.buf[j&mask] = ln.buf[(j-1)&mask]
		j--
	}
	ln.buf[j&mask] = lineEntry{at: at, seq: seq, arg: arg}
	ln.tail++
	switch {
	case ln.tail-ln.head == 1:
		ln.slot = l.push(at, seq, lineNode, fireLine, ln)
	case j == ln.head:
		l.up(int(l.slots[ln.slot].pos), node{at: at, seq: seq, slot: ln.slot, kind: lineNode})
	}
}

func (ln *Line) grow() {
	if len(ln.buf) == 0 {
		// Entries outside [head, tail) are never read, so a ring a
		// released line left behind serves as is.
		if ln.buf = lineRings.Get(); len(ln.buf) > 0 {
			return
		}
	}
	buf := make([]lineEntry, max(16, 2*len(ln.buf)))
	for i := ln.head; i < ln.tail; i++ {
		buf[i&(len(buf)-1)] = ln.buf[i&(len(ln.buf)-1)]
	}
	ln.buf = buf
}

// lineRings holds the rings of released lines.
var lineRings BufPool[lineEntry]

// Release ends the line's use: its ring, cleared of the entries' arguments,
// goes back for the next line to grow into. Call it when the loop will not
// run again; the line must be Init'ed before any further use.
func (ln *Line) Release() {
	clear(ln.buf)
	lineRings.Put(ln.buf)
	*ln = Line{}
}

// Pool recycles memory between simulations: Get returns the item the
// latest Put gave back, on any goroutine, or the zero T when it holds none;
// what an item holds is whatever its last user left in it. Unlike a
// sync.Pool it keeps what it is given across garbage collections, so a run
// that follows a collection still finds everything the runs before it
// released — never more than they had out at once — until EmptyPools. Its
// mutex orders a Put before the Get that returns it. The zero Pool is empty
// and ready to use.
type Pool[T any] struct {
	mu     sync.Mutex
	items  []T
	listed bool // in pools, for EmptyPools
}

// Get returns a recycled item, or the zero T if there is none.
func (p *Pool[T]) Get() (item T) {
	p.mu.Lock()
	if n := len(p.items) - 1; n >= 0 {
		item = p.items[n]
		var zero T
		p.items[n] = zero
		p.items = p.items[:n]
	}
	p.mu.Unlock()
	return item
}

// Put gives item back; the caller must not use it afterwards.
func (p *Pool[T]) Put(item T) {
	p.mu.Lock()
	p.items = append(p.items, item)
	first := !p.listed
	p.listed = true
	p.mu.Unlock()
	if first {
		pools.Lock()
		pools.all = append(pools.all, p)
		pools.Unlock()
	}
}

func (p *Pool[T]) empty() {
	p.mu.Lock()
	p.items = nil
	p.mu.Unlock()
}

// pools lists every Pool that has been given an item.
var pools struct {
	sync.Mutex
	all []interface{ empty() }
}

// EmptyPools drops what every Pool holds, for the collector to take: the
// next simulation allocates its memory as in a fresh process.
func EmptyPools() {
	pools.Lock()
	all := pools.all
	pools.Unlock()
	for _, p := range all {
		p.empty()
	}
}

// BufPool is a Pool of slices' backing arrays — a ring that has grown to
// one run's peak serves the next run without growing again. Get returns nil
// when it holds none; an empty slice is not kept.
type BufPool[T any] struct{ Pool[[]T] }

// Put gives s back unless it is empty; the caller must not use it
// afterwards.
func (b *BufPool[T]) Put(s []T) {
	if len(s) > 0 {
		b.Pool.Put(s)
	}
}

// fireLine runs a line's earliest entry. Its node is the top of the heap:
// it is re-keyed to the next entry, or dropped with the last, before the
// handler runs, so the handler may push onto the line.
func fireLine(now Time, arg any) {
	ln := arg.(*Line)
	l := ln.loop
	mask := len(ln.buf) - 1
	e := ln.buf[ln.head&mask]
	ln.buf[ln.head&mask] = lineEntry{}
	ln.head++
	if ln.head == ln.tail {
		l.remove(0)
		l.vacate(ln.slot)
	} else {
		next := &ln.buf[ln.head&mask]
		l.down(0, node{at: next.at, seq: next.seq, slot: ln.slot, kind: lineNode})
	}
	ln.h(now, e.arg)
}

// Timer is a one-shot event that can be re-armed and stopped without
// cancelling its heap node — the retransmission-timer pattern, re-armed
// later on nearly every ACK. Reset reserves the schedule order an At at
// that moment would take. A node already due no later than the new
// deadline stays in the heap, and is re-keyed to the deadline when it
// comes up early; so the timer fires exactly when Cancel plus At would
// have had it fire. A Timer works where it was Init'ed: its node points at
// it, so a copy must be Init'ed before it is used.
type Timer struct {
	loop   *Loop
	fn     Event
	at     Time   // deadline, while armed
	seq    uint64 // the schedule order the deadline reserved
	slot   int32  // the timer's heap node, while queued
	armed  bool   // a deadline is pending
	queued bool   // the timer has a node in the heap, armed or not
}

// Init binds a timer not yet in use (or a copy) to l, to run fn at each
// deadline.
func (t *Timer) Init(l *Loop, fn Event) { *t = Timer{loop: l, fn: fn} }

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.armed }

// Reset arms the timer for at, replacing any pending deadline. Scheduling
// in the past panics, as for At.
func (t *Timer) Reset(at Time) {
	l := t.loop
	seq := l.reserve(at)
	if !t.armed {
		l.pending++
	}
	t.at, t.seq, t.armed = at, seq, true
	if !t.queued {
		t.slot, t.queued = l.push(at, seq, timerNode, fireTimer, t), true
	} else if i := int(l.slots[t.slot].pos); at < l.heap[i].at {
		l.up(i, node{at: at, seq: seq, slot: t.slot, kind: timerNode})
	}
}

// Stop disarms the timer. Stopping a timer that is not armed is a no-op.
func (t *Timer) Stop() {
	if t.armed {
		t.armed = false
		t.loop.pending--
	}
}

// fireTimer runs a timer whose node came up at its deadline; fire has
// already dropped the node.
func fireTimer(now Time, arg any) {
	t := arg.(*Timer)
	t.armed, t.queued = false, false
	t.fn(now)
}
