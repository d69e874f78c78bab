package testbed

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// Census counts what a stopped server must give back to its process:
// goroutines and open file descriptors. FDs is -1 where /proc/self/fd
// cannot be read, and is then not compared.
type Census struct {
	Goroutines, FDs int
}

// TakeCensus counts now.
func TakeCensus() Census {
	fds := -1
	if entries, err := os.ReadDir("/proc/self/fd"); err == nil {
		fds = len(entries)
	}
	return Census{Goroutines: runtime.NumGoroutine(), FDs: fds}
}

// Settle gives goroutines and descriptors that have signalled completion
// up to two seconds to go, then returns nil if the process is back to the
// baseline c, or an error naming the excess.
func (c Census) Settle() error {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		now := TakeCensus()
		if now.Goroutines <= c.Goroutines && (c.FDs < 0 || now.FDs <= c.FDs) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines (baseline %d), %d open fds (baseline %d)", now.Goroutines, c.Goroutines, now.FDs, c.FDs)
		}
	}
}
