package gaas

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/race"
	"glimmers/internal/wire"
)

// tallyIngestor counts batch items without retaining them, standing in
// for a RoundManager so framing tests skip enclave setup.
type tallyIngestor struct {
	mu    sync.Mutex
	total int
	sum   uint64
}

func (ti *tallyIngestor) IngestBatch(raws [][]byte) (int, []error) {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	for _, raw := range raws {
		ti.total++
		for _, b := range raw {
			ti.sum += uint64(b)
		}
	}
	return len(raws), make([]error, len(raws))
}

// frameWorld wires a raw client connection to a server whose only route
// is submit-batch into a tallyIngestor — the framing layer in isolation,
// no enclave setup. It exercises the real handleConn loop, so the pooled
// read/reply hot path under test is exactly the production one.
func frameWorld(t *testing.T) (*Client, *tallyIngestor) {
	t.Helper()
	ing := &tallyIngestor{}
	srv := New(ServerConfig{Ingest: ing})
	cliConn, srvConn := net.Pipe()
	go srv.handleConn(srvConn)
	t.Cleanup(func() { cliConn.Close(); srvConn.Close() })
	return &Client{conn: cliConn, frames: cliConn}, ing
}

// minBytesPerOp is the fewest bytes the process allocated per call of fn
// over several windows of rounds calls each. The counter is process-wide,
// so a window can catch a runtime or test-harness allocation that fn never
// made; the minimum over windows is fn's own cost.
func minBytesPerOp(windows, rounds int, fn func()) int {
	best := -1
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		if perOp := int(after.TotalAlloc-before.TotalAlloc) / rounds; best < 0 || perOp < best {
			best = perOp
		}
	}
	return best
}

// TestSubmitBatchEncodesOnce pins the satellite fix: submitting a batch
// allocates O(1) memory on the client — the frame is encoded once into a
// pooled buffer, not built and re-wrapped per call — so bytes allocated
// per submit stay far below the frame size. The TLS variant runs through
// the write coalescer (net.Pipe skips it) and pins that its hold buffer
// is pooled too.
func TestSubmitBatchEncodesOnce(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	item := bytes.Repeat([]byte{0xAB}, 1024)
	raws := make([][]byte, 128)
	for i := range raws {
		raws[i] = item
	}
	frameSize := wire.EncodedBatchSize(raws) // ~128 KiB
	for _, world := range []struct {
		name  string
		build func(*testing.T) (*Client, *tallyIngestor)
	}{
		{"pipe", frameWorld},
		{"tls", func(t *testing.T) (*Client, *tallyIngestor) {
			client, _, ing := tlsFrameWorld(t)
			return client, ing
		}},
	} {
		t.Run(world.name, func(t *testing.T) {
			client, ing := world.build(t)
			submit := func() {
				accepted, rejected, err := client.SubmitBatch(raws)
				if err != nil {
					t.Fatal(err)
				}
				if accepted != len(raws) || rejected != 0 {
					t.Fatalf("submit = (%d, %d)", accepted, rejected)
				}
			}
			// Warm the pools.
			for i := 0; i < 3; i++ {
				submit()
			}
			const windows, rounds = 5, 16
			perOp := minBytesPerOp(windows, rounds, submit)
			// Before the fix each submit allocated ~2× the frame (body +
			// wrapped payload). Pooled encoding leaves only the small reply
			// round trip, well under half a frame.
			if perOp > frameSize/2 {
				t.Errorf("SubmitBatch allocates %d B/op for a %d B frame; pooled encode-once expected", perOp, frameSize)
			}
			if ing.total != (3+windows*rounds)*len(raws) {
				t.Fatalf("server saw %d items", ing.total)
			}
		})
	}
}

// TestSubmitBatchTooLargeEncodesNothing confirms the retryable-path half
// of the fix: an oversized batch is refused by arithmetic alone, without
// encoding a frame that would be thrown away.
func TestSubmitBatchTooLargeEncodesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	client := &Client{} // never touches the conn: refusal is client-side
	huge := make([][]byte, 4)
	for i := range huge {
		huge[i] = make([]byte, (MaxFrame/4)+64)
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, _, err := client.SubmitBatch(huge); err == nil {
			t.Fatal("oversized batch accepted")
		}
	}); got > 4 {
		t.Errorf("oversized refusal allocates %.1f allocs/op; want error-only cost", got)
	}
}

// TestConcurrentSubmitBatchPooledFrames is the -race guard for the frame
// buffer pool: concurrent clients hammer one server with distinct batches
// and every byte must land intact (a recycled frame buffer shared across
// connections would corrupt items and change the tally).
func TestConcurrentSubmitBatchPooledFrames(t *testing.T) {
	const (
		clients   = 4
		perClient = 20
		items     = 32
	)
	ing := &tallyIngestor{}
	srv := New(ServerConfig{Ingest: ing})
	var wg sync.WaitGroup
	wantSum := uint64(0)
	var sumMu sync.Mutex
	for c := 0; c < clients; c++ {
		cliConn, srvConn := net.Pipe()
		go srv.handleConn(srvConn)
		client := &Client{conn: cliConn, frames: cliConn}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer cliConn.Close()
			local := uint64(0)
			for r := 0; r < perClient; r++ {
				raws := make([][]byte, items)
				for i := range raws {
					raws[i] = bytes.Repeat([]byte{byte(c*31 + r*7 + i)}, 64)
					for _, b := range raws[i] {
						local += uint64(b)
					}
				}
				accepted, rejected, err := client.SubmitBatch(raws)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if accepted != items || rejected != 0 {
					t.Errorf("client %d: (%d, %d)", c, accepted, rejected)
					return
				}
			}
			sumMu.Lock()
			wantSum += local
			sumMu.Unlock()
		}(c)
	}
	wg.Wait()
	if ing.total != clients*perClient*items {
		t.Fatalf("server saw %d items, want %d", ing.total, clients*perClient*items)
	}
	if ing.sum != wantSum {
		t.Fatalf("byte checksum %d != %d: frame buffers aliased across connections", ing.sum, wantSum)
	}
}

// TestZeroCopyBatchMatchesRealStack cross-checks the framing rewrite
// against the full attested stack: a real client contributes through a
// hosted enclave and batch-submits; totals must match the copying-era
// behaviour byte for byte.
func TestZeroCopyBatchMatchesRealStack(t *testing.T) {
	w := newWorldIngest(t, true, nil)
	client, err := dial(w.addr, w.verifier(), w.Name)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var raws [][]byte
	want := fixed.NewVector(dim)
	for _, val := range []float64{0.2, 0.5, 0.8} {
		sc, err := client.Contribute(4, fixed.FromFloats([]float64{val, val, val}), nil)
		if err != nil {
			t.Fatal(err)
		}
		want.AddInPlace(sc.Blinded)
		raws = append(raws, glimmer.EncodeSignedContribution(sc))
	}
	accepted, rejected, err := client.SubmitBatch(raws)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 3 || rejected != 0 {
		t.Fatalf("submit = (%d, %d), want (3, 0)", accepted, rejected)
	}
	p := w.rounds.Round(4)
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	got := p.Sum()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sum[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
