package sim

import "testing"

// BenchmarkSimRound measures end-to-end rounds per second through the real
// stack: enclave validate→blind→sign for every device, concurrent batch
// ingest, seal, and invariant checks. One benchmark iteration is one
// complete aggregation round for the whole fleet; the rates are read off
// the report, whose clock starts once the world is built.
func BenchmarkSimRound(b *testing.B) {
	const devices = 8
	rep, err := Scenario{Name: "bench", Config: Config{
		Seed:    99,
		Devices: devices,
		Rounds:  b.N,
		Overlap: min(2, b.N),
		Dim:     8,
	}}.Run()
	if err != nil {
		b.Fatal(err)
	}
	if !rep.Ok() {
		b.Fatalf("violations: %v", rep.Violations)
	}
	b.ReportMetric(rep.RoundsPerSec(), "rounds/s")
	b.ReportMetric(rep.RoundsPerSec()*devices, "contrib/s")
}
