package node

import (
	"sync"
	"time"

	"glimmers/internal/audit"
	"glimmers/internal/durable"
	"glimmers/internal/service"
)

// A durable node compacts while it serves: once the WAL bytes no image
// holds reach compactRatio times the last image, floored at compactFloor,
// it snapshots. The directory then holds at most a constant factor more
// than the state it rebuilds, recovery replays a bounded WAL, and a
// frame's delta (for a frame of one, one device's blinded vector) leaves
// the disk at the next compaction rather than at drain. The rule is the
// size ratio of a log-structured merge tree (O'Neil et al., Acta
// Informatica 1996): each byte is folded into a few images, not one per
// snapshot. The policy lives here, not in the store, which holds no
// tenant configurations and whose directory a caller may be copying.
const (
	compactRatio = 4
	// compactTick is how often the policy reads the store's counters.
	compactTick = 10 * time.Millisecond
)

// compactFloor is the image size the trigger assumes at least, so a small
// state is not refolded for every few records: 64 MiB of image, 256 MiB
// of WAL. A variable so tests can compact small states.
var compactFloor uint64 = 64 << 20

// compactor runs the policy on a goroutine of its own until stop.
type compactor struct {
	store    *durable.Store
	reg      *service.Registry
	audit    *audit.Log
	quit     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

func startCompactor(store *durable.Store, reg *service.Registry, log *audit.Log) *compactor {
	c := &compactor{store: store, reg: reg, audit: log, quit: make(chan struct{}), done: make(chan struct{})}
	go c.run()
	return c
}

// stop ends the policy and returns once it has exited: a snapshot in
// flight completes first. A nil compactor (a node without a StateDir) is
// already stopped.
func (c *compactor) stop() {
	if c == nil {
		return
	}
	c.stopOnce.Do(func() { close(c.quit) })
	<-c.done
}

func (c *compactor) run() {
	defer close(c.done)
	tick := time.NewTicker(compactTick)
	defer tick.Stop()
	// retryAt, after a failure, is the WAL size that earns the next
	// attempt: each attempt cuts a generation and folds the whole WAL, so
	// a disk that keeps refusing the image (ENOSPC, say) must not cost a
	// file and a fold per tick.
	var retryAt uint64
	for {
		select {
		case <-c.quit:
			return
		case <-tick.C:
		}
		st := c.store.Stats()
		if st.WALBytes < max(compactRatio*max(st.ImageBytes, compactFloor), retryAt) {
			continue
		}
		err := c.store.Snapshot(c.reg)
		if err == nil {
			retryAt = 0
			continue
		}
		if retryAt == 0 { // the first failure of a run is audited; the rest retry quietly
			c.audit.Append("compaction-failed", "wal_bytes=%d image_bytes=%d err=%v", st.WALBytes, st.ImageBytes, err)
		}
		retryAt = st.WALBytes + compactFloor
	}
}
