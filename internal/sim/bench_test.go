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
// events pending, re-arm a timer 200 ms out to a slightly later deadline,
// once per iteration — what tcp.Conn does on every ACK. Cancel+At removes
// the node and pushes a new one; Timer.Reset leaves the node in place.
func BenchmarkLoopRearmTimer(b *testing.B) {
	nop := Event(func(Time) {})
	setup := func() *Loop {
		l := NewLoop()
		for i := 0; i < 1023; i++ {
			l.At(Time(i)*Millisecond, nop)
		}
		return l
	}
	b.Run("Cancel+At", func(b *testing.B) {
		l := setup()
		timer := l.At(200*Millisecond, nop)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			timer.Cancel()
			timer = l.At(200*Millisecond+Time(i), nop)
		}
		if len(l.heap) != 1024 {
			b.Fatalf("%d heap nodes: cancelled timers were not removed", len(l.heap))
		}
	})
	b.Run("Timer.Reset", func(b *testing.B) {
		l := setup()
		var timer Timer
		timer.Init(l, nop)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			timer.Reset(200*Millisecond + Time(i))
		}
		if l.PendingEvents() != 1024 || len(l.heap) != 1024 {
			b.Fatalf("%d events pending in %d heap nodes, want 1024 in 1024", l.PendingEvents(), len(l.heap))
		}
	})
}
