package sim

import "testing"

// BenchmarkLoopScheduleFire is one At plus one Step with 1 024 events
// pending throughout: every event that fires schedules its successor (the
// repo benchmark's sim.schedule_fire_ns probe).
func BenchmarkLoopScheduleFire(b *testing.B) {
	l := NewLoop()
	var fire Event
	fire = func(now Time) { l.At(now+1024, fire) }
	for i := 0; i < 1024; i++ {
		l.At(Time(i), fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Step()
	}
}

// BenchmarkLoopRearmTimer is the retransmission-timer pattern: with 1 024
// events pending, cancel a timer 200 ms out and arm its replacement, once
// per iteration — what tcp.Conn does on every ACK.
func BenchmarkLoopRearmTimer(b *testing.B) {
	l := NewLoop()
	nop := Event(func(Time) {})
	for i := 0; i < 1023; i++ {
		l.At(Time(i)*Millisecond, nop)
	}
	timer := l.At(200*Millisecond, nop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timer.Cancel()
		timer = l.At(200*Millisecond+Time(i), nop)
	}
	if l.PendingEvents() != 1024 {
		b.Fatalf("PendingEvents = %d: cancelled timers were not removed", l.PendingEvents())
	}
}
