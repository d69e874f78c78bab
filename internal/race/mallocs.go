// Package race is what the allocation guards need: whether the race
// detector is compiled in, so a guard can skip itself (instrumented builds
// allocate where production builds do not — sync.Pool, for one,
// intentionally drops pooled items under the detector to surface aliasing
// bugs), and an exact count of what the guarded code allocates.
package race

import (
	"runtime"
	"strings"
)

// Mallocs returns the heap allocations runs calls of f make, in all. Like
// testing.AllocsPerRun it calls f once first to warm it and measures on a
// single P; unlike it, it does not divide by runs, whose truncation lets a
// bound of 0 pass up to runs-1 allocations. It leaves out what the
// runtime's own goroutines (the scavenger, finalizers) allocate meanwhile,
// read off the allocation profile sampled at every allocation of the
// window; an allocation it cannot place there stays counted.
func Mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 0
	off = make([]*byte, 1) // the first allocation after a rate change is sampled whatever the rate
	runtime.GC()           // two collections publish every sample taken before them
	runtime.GC()
	f()
	foreign := runtimeAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runtime.MemProfileRate = 1
	for range runs {
		f()
	}
	runtime.MemProfileRate = 0
	off = make([]*byte, 1)
	runtime.ReadMemStats(&after)
	runtime.GC() // publishes the window's samples; one it misses stays counted
	foreign = runtimeAllocs() - foreign
	return after.Mallocs - before.Mallocs - 1 - foreign // 1: off's
}

var off []*byte

// runtimeAllocs sums the published profile's records whose goroutine the
// runtime started: its entry is a runtime function other than
// runtime.main, or none is recorded (runfinq calls mallocgc itself). A
// record cut short lacks runtime.goexit, so it is never one of them.
func runtimeAllocs() (n uint64) {
	var records []runtime.MemProfileRecord
	k, ok := runtime.MemProfile(nil, true)
	for ; !ok; k, ok = runtime.MemProfile(records, true) {
		records = make([]runtime.MemProfileRecord, k+64)
	}
	for _, r := range records[:k] {
		entry, last := "", ""
		for frames, more := runtime.CallersFrames(r.Stack()), true; more; {
			var frame runtime.Frame
			frame, more = frames.Next()
			entry, last = last, frame.Function
		}
		if last == "runtime.goexit" && (entry == "" || strings.HasPrefix(entry, "runtime.") && entry != "runtime.main") {
			n += uint64(r.AllocObjects)
		}
	}
	return n
}
