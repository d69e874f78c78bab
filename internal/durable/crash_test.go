package durable

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"glimmers/internal/fixed"
	"glimmers/internal/service"
)

// crashFS is a fileSystem that performs every operation through osFS and
// traces, in order, each one that decides what a power loss could leave:
// creates, writes, file syncs, renames, removals and directory syncs.
// Checks a test adds between operations ride in the same trace, so a
// crash after any prefix of it knows what had been acknowledged by then.
// crashStates replays a prefix as POSIX lets a power loss see it.
type crashFS struct {
	mu     sync.Mutex // the flusher writes the WAL from its own goroutine
	trace  []crashOp
	names  map[string]int // the live directory: file name → inode
	next   int            // the next inode number
	failOn string         // a file whose next create fails, as a full disk would
}

// crashOp is one traced operation. check is a test's assertion about a
// registry recovered from any crash after it.
type crashOp struct {
	kind     string // create, write, sync, rename, remove, syncdir or check
	name, to string
	ino      int
	data     []byte
	check    func(*service.Registry) error
}

func newCrashFS() *crashFS { return &crashFS{names: map[string]int{}} }

func (c *crashFS) add(op crashOp) {
	c.mu.Lock()
	c.trace = append(c.trace, op)
	c.mu.Unlock()
}

// expect adds a check that every crash from here on must pass.
func (c *crashFS) expect(check func(*service.Registry) error) {
	c.add(crashOp{kind: "check", check: check})
}

func (c *crashFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	base := filepath.Base(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if flag&os.O_CREATE != 0 && base == c.failOn {
		c.failOn = ""
		return nil, errInjected
	}
	f, err := osFS{}.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	ino, ok := c.names[base]
	if flag&os.O_CREATE != 0 {
		if ok {
			panic("crashFS: " + base + " recreated in place") // the model has no truncation
		}
		ino, c.next = c.next, c.next+1
		c.names[base] = ino
		c.trace = append(c.trace, crashOp{kind: "create", name: base, ino: ino})
	}
	return &crashFile{file: f, fs: c, ino: ino}, nil
}

func (c *crashFS) Rename(from, to string) error {
	if err := (osFS{}).Rename(from, to); err != nil {
		return err
	}
	from, to = filepath.Base(from), filepath.Base(to)
	c.mu.Lock()
	defer c.mu.Unlock()
	ino := c.names[from]
	delete(c.names, from)
	c.names[to] = ino
	c.trace = append(c.trace, crashOp{kind: "rename", name: from, to: to, ino: ino})
	return nil
}

func (c *crashFS) Remove(name string) error {
	if err := (osFS{}).Remove(name); err != nil {
		return err
	}
	base := filepath.Base(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trace = append(c.trace, crashOp{kind: "remove", name: base, ino: c.names[base]})
	delete(c.names, base)
	return nil
}

func (c *crashFS) SyncDir(dir string) error {
	if err := (osFS{}).SyncDir(dir); err != nil {
		return err
	}
	c.add(crashOp{kind: "syncdir"})
	return nil
}

type crashFile struct {
	file
	fs  *crashFS
	ino int
}

func (f *crashFile) Write(p []byte) (int, error) {
	n, err := f.file.Write(p)
	f.fs.add(crashOp{kind: "write", ino: f.ino, data: slices.Clone(p[:n])})
	return n, err
}

func (f *crashFile) Sync() error {
	if err := f.file.Sync(); err != nil {
		return err
	}
	f.fs.add(crashOp{kind: "sync", ino: f.ino})
	return nil
}

// inode is a file as a power loss sees it: the bytes a sync made durable,
// then the bytes written since, with each write's end offset in tail.
type inode struct {
	synced, tail []byte
	ends         []int
}

// cuts returns every length of tail a power loss may keep: none of it,
// the end of each write (a frame boundary: the store writes whole frames)
// and the middle of each write (mid-frame).
func (n *inode) cuts() []int {
	cuts, start := []int{0}, 0
	for _, end := range n.ends {
		cuts = append(cuts, start+(end-start)/2, end)
		start = end
	}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}

// crashStates returns every directory POSIX lets a power loss after ops
// leave, each as file name → contents: each directory operation no
// directory sync covered is kept or lost on its own, and each file keeps
// its synced bytes plus any cut of its unsynced tail.
func crashStates(ops []crashOp) []map[string][]byte {
	inodes := map[int]*inode{}
	durable := map[string]int{}
	var pending []crashOp
	for _, op := range ops {
		switch op.kind {
		case "create":
			inodes[op.ino] = &inode{}
			pending = append(pending, op)
		case "write":
			n := inodes[op.ino]
			n.tail = append(n.tail, op.data...)
			n.ends = append(n.ends, len(n.tail))
		case "sync":
			n := inodes[op.ino]
			n.synced = append(n.synced, n.tail...)
			n.tail, n.ends = nil, nil
		case "rename", "remove":
			pending = append(pending, op)
		case "syncdir":
			applyDirOps(durable, pending)
			pending = nil
		}
	}
	var states []map[string][]byte
	for kept := 0; kept < 1<<len(pending); kept++ {
		dir := maps.Clone(durable)
		var subset []crashOp
		for i, op := range pending {
			if kept&(1<<i) != 0 {
				subset = append(subset, op)
			}
		}
		applyDirOps(dir, subset)
		names := slices.Sorted(maps.Keys(dir))
		// Every combination of one cut per file, odometer-style.
		pick := make([]int, len(names))
		for {
			state := make(map[string][]byte, len(names))
			for i, name := range names {
				n := inodes[dir[name]]
				state[name] = append(slices.Clone(n.synced), n.tail[:n.cuts()[pick[i]]]...)
			}
			states = append(states, state)
			i := 0
			for ; i < len(names); i++ {
				if pick[i]++; pick[i] < len(inodes[dir[names[i]]].cuts()) {
					break
				}
				pick[i] = 0
			}
			if i == len(names) {
				break
			}
		}
	}
	return states
}

// applyDirOps applies directory operations to a directory of name → inode.
func applyDirOps(dir map[string]int, ops []crashOp) {
	for _, op := range ops {
		switch op.kind {
		case "create":
			dir[op.name] = op.ino
		case "rename":
			if dir[op.name] == op.ino {
				delete(dir, op.name)
			}
			dir[op.to] = op.ino
		case "remove":
			if ino, ok := dir[op.name]; ok && ino == op.ino {
				delete(dir, op.name)
			}
		}
	}
}

// TestCrashModelRecoversEveryAckedRecord is the power-loss model of the
// store (the ALICE method: Pillai et al., "All File Systems Are Not
// Created Equal", OSDI 2014). Two lives of a store run over a crashFS:
// the first recovers an empty directory, grants, ingests and seals, takes
// a Snapshot whose image cannot be created, seals again under ingest,
// takes a Snapshot that succeeds and dies as a process does, with its
// page cache intact; the second recovers that, takes a Snapshot while one
// frame's accept record is held across its cut, and seals the round the
// first left open. After every prefix of the traced operations — the
// folds, image writes and removals included — every
// directory a power loss could leave must recover with every seal
// observed by then sealed at its exact sum, every acked grant present,
// and nothing wrong: each round holds a cohort its live registry held at
// some point (withheld — not yet sealed, or absent — is allowed).
func TestCrashModelRecoversEveryAckedRecord(t *testing.T) {
	// Every record is written as it is staged and synced only at a
	// barrier, so a power loss can cut an unsynced tail between any two
	// records and inside any one.
	writeThrough := Config{FlushBytes: 1, FlushInterval: time.Hour}
	dir := t.TempDir()
	c := newCrashFS()
	tk := liveTicket()
	allowed := map[uint64]map[string]bool{} // round → every state it was live in

	open := func() (*service.Registry, *Store) {
		reg := newTestRegistry(t)
		s, err := OpenConfig(dir, writeThrough)
		if err != nil {
			t.Fatal(err)
		}
		s.fs = c
		if _, err := s.Recover(reg); err != nil {
			t.Fatal(err)
		}
		return reg, s
	}
	note := func(reg *service.Registry, round uint64) {
		rs, _ := roundOf(reg, round)
		if allowed[round] == nil {
			allowed[round] = map[string]bool{roundKey(service.RoundState{Round: round, Sum: fixed.NewVector(len(rs.Sum))}): true}
		}
		allowed[round][roundKey(rs)] = true
	}
	frames := map[uint64][][]byte{}
	ingest := func(reg *service.Registry, round uint64, from, to int) {
		if frames[round] == nil {
			frames[round] = orderRaws(8, 4, round, &tk.Key)
		}
		ingestFrame(t, reg, frames[round][from:to])
		note(reg, round)
	}
	seal := func(reg *service.Registry, round uint64) {
		tn, _ := reg.Tenant(testTenant)
		if err := tn.Manager().Seal(round); err != nil {
			t.Fatal(err)
		}
		note(reg, round)
		want, _ := roundOf(reg, round)
		c.expect(func(got *service.Registry) error {
			if rs, ok := roundOf(got, round); !ok || rs.Phase != service.RoundPhaseSealed || roundKey(rs) != roundKey(want) {
				return fmt.Errorf("observed seal of round %d lost: recovered %+v (found %v)", round, rs, ok)
			}
			return nil
		})
	}
	grant := func(reg *service.Registry, s *Store, id uint64) {
		tk := tk
		tk.ID = id
		grantTicket(t, reg, tk)
		s.Append(service.Record{Kind: service.TicketGranted, Tenant: testTenant, Ticket: tk})
		c.expect(func(got *service.Registry) error {
			for _, ts := range got.ExportState().Tenants {
				for _, have := range ts.Tickets {
					if have == tk {
						return nil
					}
				}
			}
			return fmt.Errorf("acked grant of ticket %d lost", id)
		})
	}

	reg, s := open()
	grant(reg, s, 7)
	ingest(reg, 1, 0, 2)
	ingest(reg, 1, 2, 3)
	seal(reg, 1)
	ingest(reg, 2, 0, 1) // unsynced when Snapshot cuts the WAL
	c.failOn = "snapshot.tmp"
	if err := s.Snapshot(reg); !errors.Is(err, errInjected) {
		t.Fatalf("Snapshot: err = %v, want the injected failure", err)
	}
	grant(reg, s, 8)
	ingest(reg, 2, 1, 2)
	ingest(reg, 3, 0, 1)
	seal(reg, 2) // a barrier with ingest staged on both sides of it
	ingest(reg, 3, 1, 2)
	if err := s.Snapshot(reg); err != nil {
		t.Fatal(err)
	}
	ingest(reg, 3, 2, 3) // unsynced when the process dies
	s.Abandon()

	reg, s = open()
	ingest(reg, 3, 3, 4)
	hold := newHoldJournal(s)
	reg.SetJournal(hold)
	if err := snapshotAcross(t, reg, s, hold, frames[3][4:5]); err != nil {
		t.Fatal(err)
	}
	note(reg, 3)
	seal(reg, 3) // acks the frame held across the cut
	s.Abandon()

	scratch := t.TempDir()
	seen := map[string]bool{}
	checked := 0
	for k := 0; k <= len(c.trace); k++ {
		prefix := c.trace[:k]
		var checks []func(*service.Registry) error
		for _, op := range prefix {
			if op.kind == "check" {
				checks = append(checks, op.check)
			}
		}
		for _, state := range crashStates(prefix) {
			key := stateKey(state, len(checks))
			if seen[key] {
				continue
			}
			seen[key] = true
			checked++
			if err := recoverCrashState(t, scratch, state, checks, allowed); err != nil {
				t.Fatalf("power loss after %d of %d operations (the last: %s), files %s: %v",
					k, len(c.trace), lastOp(prefix), stateNames(state), err)
			}
		}
	}
	if checked > 4096 {
		t.Fatalf("%d crash states: the enumeration outgrew a CI run", checked)
	}
	t.Logf("%d operations, %d distinct crash states recovered", len(c.trace), checked)
}

// roundKey spells a round's phase, cohort and sum.
func roundKey(rs service.RoundState) string {
	return fmt.Sprintf("%d %x %v", rs.Phase, rs.Digests, rs.Sum)
}

func stateKey(state map[string][]byte, checks int) string {
	var b strings.Builder
	for _, name := range stateNames(state) {
		fmt.Fprintf(&b, "%s %x\n", name, state[name])
	}
	fmt.Fprintf(&b, "checks %d", checks)
	return b.String()
}

func stateNames(state map[string][]byte) []string { return slices.Sorted(maps.Keys(state)) }

func lastOp(ops []crashOp) string {
	if len(ops) == 0 {
		return "none"
	}
	op := ops[len(ops)-1]
	return strings.TrimSpace(fmt.Sprintf("%s %s %s", op.kind, op.name, op.to))
}

// recoverCrashState writes state into dir, recovers it into a fresh
// registry and runs the checks on what came back.
func recoverCrashState(t *testing.T, dir string, state map[string][]byte, checks []func(*service.Registry) error, allowed map[uint64]map[string]bool) error {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range state {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := newTestRegistry(t)
	s, err := OpenConfig(dir, manualConfig)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.Recover(reg)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	s.Abandon()
	if stats.ReplayErrors != 0 {
		return fmt.Errorf("%d replay errors", stats.ReplayErrors)
	}
	for _, check := range checks {
		if err := check(reg); err != nil {
			return err
		}
	}
	st := reg.ExportState()
	if got, want := slices.Collect(reg.Records()), st.Records(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Records streams %+v, the struct form holds %+v", got, want)
	}
	for _, ts := range st.Tenants {
		for _, rs := range ts.Rounds {
			if !allowed[rs.Round][roundKey(rs)] {
				return fmt.Errorf("round %d recovered as %s, a state it never held", rs.Round, roundKey(rs))
			}
		}
	}
	return nil
}
