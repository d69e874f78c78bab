package race

import (
	"runtime"
	"sync"
	"testing"
)

var (
	sink  any
	bytes []byte
)

// TestMallocsCountsTheProgramNotTheRuntime: Mallocs counts every
// allocation the guarded calls make, on the calling goroutine or on one
// they start, and none that a finalizer makes on the runtime's goroutine
// meanwhile.
func TestMallocsCountsTheProgramNotTheRuntime(t *testing.T) {
	if Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	if got := Mallocs(50, func() {}); got != 0 {
		t.Errorf("an empty call: %d allocs, want 0", got)
	}
	if got := Mallocs(50, func() { bytes = make([]byte, 3) }); got != 50 {
		t.Errorf("a tiny allocation a call: %d allocs in 50 calls, want 50", got)
	}
	var wg sync.WaitGroup
	if got := Mallocs(20, func() {
		wg.Add(1)
		go func() { sink = make([]int, 8); wg.Done() }() // the slice, its interface, maybe the goroutine
		wg.Wait()
	}); got < 40 {
		t.Errorf("a goroutine a call: %d allocs in 20 calls, want at least the goroutines' 40", got)
	}
	calls := 0
	if got := Mallocs(1, func() {
		if calls++; calls == 1 {
			runtime.SetFinalizer(new([64]byte), func(*[64]byte) {}) // starts the finalizer goroutine
			return
		}
		o := new([64]byte)
		runtime.SetFinalizer(o, func(*[64]byte) { sink = make([]int, 8) })
		o = nil
		runtime.GC() // queues the finalizer
		for range 100 {
			runtime.Gosched() // and lets it run
		}
	}); got != 1 {
		t.Errorf("a call whose object's finalizer allocates: %d allocs, want the object's 1", got)
	}
}
