package main

import (
	"bufio"
	"context"
	"crypto/x509"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"glimmers/internal/fixed"
	"glimmers/internal/gaas"
	"glimmers/internal/glimmer"
	"glimmers/internal/node"
	"glimmers/internal/service"
	"glimmers/internal/testbed"
	"glimmers/internal/wire"
)

// strangerContribution is a well-formed signed contribution naming the
// daemon's tenant, from a deployment the daemon has never heard of: it
// routes to the tenant and fails round admission there.
func strangerContribution(t *testing.T, name string, dim int) []byte {
	t.Helper()
	stranger, err := testbed.NewTenant(testbed.TenantSpec{Name: name, Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := stranger.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Destroy()
	sc, err := dev.Contribute(1, fixed.NewVector(dim), nil)
	if err != nil {
		t.Fatal(err)
	}
	return glimmer.EncodeSignedContribution(sc)
}

// TestRunServesAndDrains is the daemon end to end: run on :0, read the
// address off the status lines, submit one frame from outside, signal
// stop, and read the drain report. The daemon's keys live inside run, so
// an outside frame can only be refused — which is what the report must
// then account, once at each level the two items reach.
func TestRunServesAndDrains(t *testing.T) {
	dir := t.TempDir()
	pr, pw := io.Pipe()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		err := run([]string{"-listen", "127.0.0.1:0", "-dim", "4", "-state-dir", dir, "-tenants", "bots.example:bot"}, pw, stop)
		pw.Close()
		done <- err
	}()
	lines := bufio.NewScanner(pr)
	serving := regexp.MustCompile(`^glimmerd: serving 2 tenant\(s\) on (\S+) over tcp `)
	var addr string
	pinned := 0
	for pinned < 2 && lines.Scan() {
		if m := serving.FindStringSubmatch(lines.Text()); m != nil {
			addr = m[1]
		}
		if strings.Contains(lines.Text(), "(clients must pin this)") {
			pinned++
		}
	}
	if addr == "" || pinned != 2 {
		t.Fatalf("status lines ended with addr %q and %d tenant pins: %v", addr, pinned, <-done)
	}

	client, err := gaas.DialContext(context.Background(), addr, gaas.DialConfig{NoSession: true, CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	accepted, rejected, err := client.SubmitBatch([][]byte{
		[]byte("not a contribution"),
		strangerContribution(t, "demo.glimmers.example", 4),
	})
	if err != nil || accepted != 0 || rejected != 2 {
		t.Fatalf("submit tallied (%d, %d), err %v; want (0, 2)", accepted, rejected, err)
	}
	client.Close()

	stop <- syscall.SIGTERM
	var drain []string
	for lines.Scan() {
		drain = append(drain, lines.Text())
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	report := strings.Join(drain, "\n")
	for _, want := range []string{
		"glimmerd: terminated: stopping accept loop, draining in-flight batches\n",
		"glimmerd: edge counters: refused-max-conns=0 refused-per-ip=0 shed-batches=0\n",
		"glimmerd: tenant bots.example\nglimmerd:   rejected total: 0 (manager + pipelines)\n",
		"glimmerd: tenant demo.glimmers.example\nglimmerd:   rejected total: 1 (manager + pipelines)\n" +
			"glimmerd:   dropped unsealed: 0 (accepted in rounds forgotten before their seal)\n",
		"glimmerd: routing rejections (unroutable/unknown tenant): 1\n",
		"glimmerd: wal: records=",
		"glimmerd: state snapshotted to " + dir,
	} {
		if !strings.Contains(report, want) {
			t.Errorf("drain report lacks %q:\n%s", want, report)
		}
	}
	// The two sizes the compaction policy reads: a cold start's WAL holds
	// the records written (if the flusher has run) and its generation's
	// header, and there is no image yet.
	if m := regexp.MustCompile(` bytes=(\d+) .* wal_bytes=(\d+) image_bytes=(\d+)\n`).FindStringSubmatch(report); m == nil {
		t.Errorf("drain report lacks the WAL sizes:\n%s", report)
	} else if written, wal, image := atoi(t, m[1]), atoi(t, m[2]), atoi(t, m[3]); wal <= written || image != 0 {
		t.Errorf("wal bytes=%d wal_bytes=%d image_bytes=%d, want the records written and a header, and no image", written, wal, image)
	}
	if strings.Contains(report, "fleet") {
		t.Errorf("standalone daemon printed fleet lines:\n%s", report)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot")); err != nil {
		t.Error(err)
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRunKeepsNodeKeyAcrossRestarts: a fleet node's signing key lives in
// its state directory, so two runs over one directory name the same key
// and a run over a fresh directory names another.
func TestRunKeepsNodeKeyAcrossRestarts(t *testing.T) {
	fleetLine := regexp.MustCompile(`^glimmerd: fleet: role=node-1 .* key=([0-9a-f]{16})$`)
	keyOf := func(dir string) string {
		t.Helper()
		pr, pw := io.Pipe()
		stop := make(chan os.Signal, 1)
		done := make(chan error, 1)
		go func() {
			err := run([]string{"-listen", "127.0.0.1:0", "-node-id", "1", "-dim", "4", "-state-dir", dir}, pw, stop)
			pw.Close()
			done <- err
		}()
		key := ""
		lines := bufio.NewScanner(pr)
		for lines.Scan() {
			if m := fleetLine.FindStringSubmatch(lines.Text()); m != nil {
				key = m[1]
			}
			if strings.Contains(lines.Text(), "(clients must pin this)") {
				stop <- syscall.SIGTERM // the last status line
			}
		}
		if err := <-done; err != nil {
			t.Fatalf("run: %v", err)
		}
		if key == "" {
			t.Fatal("no fleet status line names the node key")
		}
		return key
	}
	dir := t.TempDir()
	first, again, fresh := keyOf(dir), keyOf(dir), keyOf(t.TempDir())
	if first != again {
		t.Errorf("restart over one state dir changed the node key: %s, then %s", first, again)
	}
	if fresh == first {
		t.Errorf("a fresh state dir reused the node key %s", first)
	}
}

// TestRunNamesItsPeers: a fleet node's status line counts the node set
// it was given, the set its ring of round owners is built from.
func TestRunNamesItsPeers(t *testing.T) {
	pr, pw := io.Pipe()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		err := run([]string{"-listen", "127.0.0.1:0", "-node-id", "2", "-dim", "4",
			"-peers", "1=127.0.0.1:7441,2=127.0.0.1:7442,3=127.0.0.1:7443"}, pw, stop)
		pw.Close()
		done <- err
	}()
	fleetLine := ""
	lines := bufio.NewScanner(pr)
	for lines.Scan() {
		if strings.HasPrefix(lines.Text(), "glimmerd: fleet: ") {
			fleetLine = lines.Text()
		}
		if strings.Contains(lines.Text(), "(clients must pin this)") {
			stop <- syscall.SIGTERM // the last status line
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.HasPrefix(fleetLine, "glimmerd: fleet: role=node-2 peers=3 ") {
		t.Errorf("fleet status line %q, want role=node-2 peers=3", fleetLine)
	}
}

// TestReportPrintsMergeLedger: a coordinator's drain report carries the
// hub's cumulative ledger beside the merges it still holds — the per-merge
// lines stop at the hub's retention window, the ledger does not.
func TestReportPrintsMergeLedger(t *testing.T) {
	var out strings.Builder
	printer{&out}.report(node.Report{
		Role: "coordinator",
		Hub: &service.HubStats{Completed: 2, Retired: 3,
			SealsAbsorbed: 5, SealsRefused: 6, ContribsMerged: 7, ContribsRejected: 8},
	}, "")
	want := "glimmerd: merge ledger: held completed=2, gone retired=3; " +
		"seals absorbed=5 refused=6; contributions merged=7 rejected=8\n"
	if !strings.Contains(out.String(), want) {
		t.Errorf("drain report lacks %q:\n%s", want, out.String())
	}
}

// TestReportPrintsShipmentsAndMerges: a shipment line and a held-merge line
// print the round's accounting, and nothing of the partial count — a round
// merges from one seal, so it would always read 1/1.
func TestReportPrintsShipmentsAndMerges(t *testing.T) {
	var out strings.Builder
	one := wire.MergeResult{Service: "svc.example", Round: 9, Expect: 1, Merged: 1, Count: 4, Rejected: 2, Refused: 1}
	printer{&out}.report(node.Report{Role: "node-2", Shipped: []node.Shipment{{Merge: one}}, Merges: []wire.MergeResult{one}}, "")
	for _, want := range []string{
		"glimmerd: shipped partial svc.example round 9      cohort=4\n",
		"glimmerd: merge svc.example round 9      cohort=4 rejected=2 refused=1\n",
		"glimmerd: fleet counters: role=node-2 partials sent=1 received=0 refused=0\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("drain report lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "1/1") || strings.Contains(out.String(), "complete=") {
		t.Errorf("drain report still prints the partial count:\n%s", out.String())
	}
}

// TestRunRefusesBadFlags: validation failures come back as errors before
// anything is bound or written.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-dim", "0"},
		{"-tls-cert", "x.pem"},
		{"-peers", "1=a:1,2=b:2"},
		{"-node-id", "3", "-peers", "1=a:1,2=b:2"},
		{"-node-id", "1", "-peers", "1=a:1,1=b:2"},
		{"-coordinator", "127.0.0.1:1"},
		{"-tenants", "nodim"},
	} {
		if err := run(args, io.Discard, nil); err == nil {
			t.Errorf("run(%v) started", args)
		}
	}
}

// TestSelfSignedCertNamesTheListenHost: -tls-self-signed names the host
// glimmerd listens on, and a wildcard listen address — which names no host
// a client dials — gets gaas.SelfSignedServerTLS's loopback names instead.
func TestSelfSignedCertNamesTheListenHost(t *testing.T) {
	loopback := "dns=[localhost] ip=[127.0.0.1 ::1]"
	for _, tc := range []struct{ listen, want string }{
		{":7433", loopback},
		{"0.0.0.0:7433", loopback},
		{"[::]:7433", loopback},
		{"127.0.0.1:7433", "dns=[] ip=[127.0.0.1]"},
		{"example.org:7433", "dns=[example.org] ip=[]"},
	} {
		conf, err := tlsConfig(tc.listen, true, "", "")
		if err != nil {
			t.Fatalf("%s: %v", tc.listen, err)
		}
		cert, err := x509.ParseCertificate(conf.Certificates[0].Certificate[0])
		if err != nil {
			t.Fatalf("%s: %v", tc.listen, err)
		}
		if got := fmt.Sprintf("dns=%v ip=%v", cert.DNSNames, cert.IPAddresses); got != tc.want {
			t.Errorf("-listen %s: certificate names %s, want %s", tc.listen, got, tc.want)
		}
	}
}
