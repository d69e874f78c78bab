package node

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"glimmers/internal/durable"
	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/service"
)

// startLocal runs one node life over dir with no listener: it is driven
// through its registry.
func (w *world) startLocal(t *testing.T, dir string, wal durable.Config) *Node {
	t.Helper()
	n, err := Start(Config{Tenants: []service.TenantConfig{w.Config()}, StateDir: dir, WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// feeder is one provisioned device holding a ticket for rounds 1 to 1024,
// granted in-process by reg.
func (w *world) feeder(t *testing.T, reg *service.Registry) *glimmer.Device {
	t.Helper()
	dev, err := w.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dev.Destroy)
	req, err := dev.TicketRequest(1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := reg.GrantTicket(req)
	if err == nil {
		err = dev.InstallTicket(grant)
	}
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// feed submits one frame of items ticketed contributions from dev to
// round. A round sealed under it refuses the frame; nothing else may.
func feed(dev *glimmer.Device, reg *service.Registry, round uint64, items int) error {
	value := fixed.NewVector(testDim)
	for i := range value {
		value[i] = fixed.FromFloat(0.25)
	}
	frame := make([][]byte, items)
	for i := range frame {
		tc, err := dev.ContributeTicketed(round, value, nil)
		if err != nil {
			return err
		}
		frame[i] = glimmer.EncodeTicketedContribution(tc)
	}
	_, errs := reg.IngestBatch(frame)
	for _, err := range errs {
		if err != nil && !errors.Is(err, service.ErrRoundSealed) {
			return err
		}
	}
	return nil
}

// walOnDisk sums the sizes of the WAL generations in dir, and counts them.
func walOnDisk(t *testing.T, dir string) (bytes uint64, files int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "wal.") {
			continue
		}
		if info, err := e.Info(); err == nil { // a fold may remove it meanwhile
			bytes += uint64(info.Size())
			files++
		}
	}
	return bytes, files
}

// auditCount counts the lines of dir's audit log that name event.
func auditCount(t *testing.T, dir, event string) int {
	t.Helper()
	log, err := os.ReadFile(filepath.Join(dir, "audit.log"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(log), event)
}

// TestCompactionBoundsWAL: a durable node under concurrent ingest, its
// rounds sealed one after another and the oldest forgotten, keeps its WAL
// within the policy's bound through twenty floors of writes: the trigger
// (compactRatio times the image, floored), one flush past it, and one
// fold in flight, whose generations hold at most that much and whose
// successor may grow as much again meanwhile. A kill and a restart then
// bring back every round, sealed or open, with its exact count and sum,
// and every ticket and refusal count.
func TestCompactionBoundsWAL(t *testing.T) {
	defer func(f uint64) { compactFloor = f }(compactFloor)
	compactFloor = 8 << 10
	const flushBytes, feeders, frameItems, roundFrames = 1 << 10, 2, 8, 6
	w, dir := newWorld(t), t.TempDir()
	wal := durable.Config{FlushBytes: flushBytes, FlushInterval: time.Millisecond}
	n := w.startLocal(t, dir, wal)
	reg := n.Registry()
	hosted, _ := reg.Tenant(testService)
	m := hosted.Manager()

	var round atomic.Uint64
	round.Store(1)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	var frames atomic.Int64
	for range feeders {
		dev := w.feeder(t, reg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-quit:
					return
				case <-time.After(2 * time.Millisecond): // paced: a tick sees a fraction of a floor
				}
				if err := feed(dev, reg, round.Load(), frameItems); err != nil {
					t.Error(err)
					return
				}
				frames.Add(1)
			}
		}()
	}

	var peak uint64
	for n.Store().Stats().BytesWritten < 20*compactFloor && !t.Failed() {
		st := n.Store().Stats()
		onDisk, _ := walOnDisk(t, dir)
		trigger := compactRatio*max(st.ImageBytes, compactFloor) + 4*flushBytes
		if bound := 2 * trigger; onDisk > bound {
			t.Fatalf("%d WAL bytes on disk, over the bound %d (image %d)", onDisk, bound, st.ImageBytes)
		}
		peak = max(peak, onDisk)
		if r := round.Load(); frames.Load() >= int64(r)*roundFrames {
			if err := m.Seal(r); err != nil {
				t.Fatal(err)
			}
			if r > 2 {
				m.Forget(r - 2)
			}
			round.Store(r + 1)
		}
		time.Sleep(time.Millisecond)
	}
	close(quit)
	wg.Wait()
	if got := auditCount(t, dir, "snapshot-taken"); got < 2 {
		t.Fatalf("%d compactions over %d bytes of WAL, want at least 2", got, n.Store().Stats().BytesWritten)
	}
	t.Logf("%d rounds, %d WAL bytes written, peak %d on disk", round.Load(), n.Store().Stats().BytesWritten, peak)

	if err := n.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	want := slices.Collect(reg.Records())
	n.Kill()
	again := w.startLocal(t, dir, wal)
	defer again.Kill()
	if !again.Recovered().SnapshotLoaded {
		t.Fatalf("restart did not load an image: %+v", again.Recovered())
	}
	if got := slices.Collect(again.Registry().Records()); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart holds %+v, want %+v", got, want)
	}
}

// TestFailedCompactionBacksOff: with every image create failing (a
// non-empty directory squats on snapshot.tmp), the policy retries only
// once the WAL has grown by another floor, so the WAL generations its
// attempts cut stay at most one per floor written, and the failure is
// audited once. Once the disk takes images again, the next attempt
// compacts.
func TestFailedCompactionBacksOff(t *testing.T) {
	defer func(f uint64) { compactFloor = f }(compactFloor)
	compactFloor = 4 << 10
	w, dir := newWorld(t), t.TempDir()
	squat := filepath.Join(dir, "snapshot.tmp")
	if err := os.MkdirAll(filepath.Join(squat, "squatter"), 0o755); err != nil {
		t.Fatal(err)
	}
	n := w.startLocal(t, dir, durable.Config{FlushBytes: 1 << 10, FlushInterval: time.Millisecond})
	defer n.Kill()
	dev := w.feeder(t, n.Registry())
	for n.Store().Stats().WALBytes < 6*compactFloor {
		if err := feed(dev, n.Registry(), 1, 8); err != nil {
			t.Fatal(err)
		}
	}
	// Over the trigger and idle: a policy without the backoff would cut a
	// generation at each of these ticks.
	time.Sleep(50 * compactTick)
	st := n.Store().Stats()
	if _, files := walOnDisk(t, dir); uint64(files) > st.WALBytes/compactFloor+1 {
		t.Errorf("%d WAL generations for %d floors written, want at most one per floor and the first", files, st.WALBytes/compactFloor)
	}
	if got := auditCount(t, dir, "compaction-failed"); got != 1 {
		t.Errorf("compaction failure audited %d times, want once", got)
	}
	if st.ImageBytes != 0 {
		t.Fatalf("an image was written past the squatter (%d bytes)", st.ImageBytes)
	}

	if err := os.RemoveAll(squat); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for n.Store().Stats().ImageBytes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no compaction once images could be written again")
		}
		if err := feed(dev, n.Registry(), 1, 8); err != nil {
			t.Fatal(err)
		}
	}
	if _, files := walOnDisk(t, dir); files > 2 {
		t.Errorf("%d WAL generations after a compaction, want the one it cut to and at most one more", files)
	}
}
