// Package race is what the allocation guards need: whether the race
// detector is compiled in, so a guard can skip itself (instrumented builds
// allocate where production builds do not — sync.Pool, for one,
// intentionally drops pooled items under the detector to surface aliasing
// bugs), and an exact count of what the guarded code allocates.
package race

import "runtime"

// Mallocs returns the heap allocations runs calls of f make, in all. Like
// testing.AllocsPerRun it calls f once first to warm it and measures on a
// single P; unlike it, it does not divide by runs, whose truncation lets a
// bound of 0 pass up to runs-1 allocations.
func Mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
