// Package alloctest measures what a piece of code allocates, for the
// tests that pin it. The heap counters in runtime.MemStats are
// process-wide, so a goroutine that another test left running, or one
// the runtime wakes, lands in a count read around the code under test on
// a second P. Like testing.AllocsPerRun, every measurement here runs at
// GOMAXPROCS(1): nothing runs in parallel with the measured function.
package alloctest

import "runtime"

// Count is what the process allocated while a measured function ran:
// heap objects and bytes.
type Count struct {
	Mallocs, Bytes uint64
}

// Measure runs f once at GOMAXPROCS(1) and returns what it allocated.
func Measure(f func()) Count { return MeasureAt(1, f) }

// MeasureAt is Measure at GOMAXPROCS(procs), for code that allocates
// differently with more than one P; f's own goroutines are counted.
func MeasureAt(procs int, f func()) Count {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return Count{Mallocs: after.Mallocs - before.Mallocs, Bytes: after.TotalAlloc - before.TotalAlloc}
}

// Retained runs f once at GOMAXPROCS(1) and returns the heap bytes still
// live after it, each side read after a garbage collection. What f
// builds must stay reachable past the call (runtime.KeepAlive) to be
// counted.
func Retained(f func()) int64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}
