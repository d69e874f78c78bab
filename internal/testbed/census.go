package testbed

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// Census records what a stopped server must give back to its process: the
// goroutines alive when it was taken, by id (the runtime never reuses one)
// with their creation sites, and the count of open file descriptors. FDs
// is -1 where /proc/self/fd cannot be read, and is then not compared.
type Census struct {
	goroutines map[string]string
	FDs        int
}

// TakeCensus records now, reading the goroutines from runtime.Stack's dump
// of them all.
func TakeCensus() Census {
	c := Census{goroutines: make(map[string]string), FDs: -1}
	if entries, err := os.ReadDir("/proc/self/fd"); err == nil {
		c.FDs = len(entries)
	}
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		id, stack, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		_, site, _ := strings.Cut(stack, "created by ")
		c.goroutines[id] = strings.Join(strings.Fields(site), " ")
	}
	return c
}

// Settle gives goroutines and descriptors that have signalled completion
// up to two seconds to go, then returns nil if no goroutine started since
// c is alive and no more descriptors are open than at c, or an error
// naming each goroutine that stayed by its creation site, and the fds.
func (c Census) Settle() error {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		now := TakeCensus()
		var stayed []string
		for id, site := range now.goroutines {
			if _, ok := c.goroutines[id]; !ok {
				stayed = append(stayed, "goroutine "+id+" created by "+site)
			}
		}
		if len(stayed) == 0 && (c.FDs < 0 || now.FDs <= c.FDs) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d new goroutines alive %q, %d open fds (baseline %d)", len(stayed), stayed, now.FDs, c.FDs)
		}
	}
}
