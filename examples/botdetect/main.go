// Botdetect: the §4.1 scenario — bot detection with validation
// confidentiality.
//
// A web service wants to know "human or bot?" without receiving the
// privacy-laden behavioural signals (typing cadence, mouse paths, focus
// habits) its detector needs. The detector itself is confidential: it
// travels to the Glimmer inside the attested session, so neither the user
// nor the host ever sees its thresholds. The service receives exactly one
// audited bit per challenge.
//
// Run with: go run ./examples/botdetect
package main

import (
	"fmt"
	"log"

	"glimmers"
	"glimmers/internal/audit"
	"glimmers/internal/botdetect"
	"glimmers/internal/glimmer"
	"glimmers/internal/service"
	"glimmers/internal/xcrypto"
)

func main() {
	detector := botdetect.DefaultDetector
	tb, err := glimmers.NewTestbed("webservice.example", detector.Predicate("confidential-detector"))
	if err != nil {
		log.Fatal(err)
	}
	dev, err := tb.NewProvisionedDevice(1, glimmers.ModeNone)
	if err != nil {
		log.Fatal(err)
	}
	gate := service.NewBotGate(tb.Service.Name(), tb.Service.ContributionVerifyKey())
	format := audit.VerdictFormat(tb.Service.Name())
	fmt.Printf("detector delivered confidentially; verdict format capacity: %d bit\n\n", format.CapacityBits())

	prg := xcrypto.NewPRG([]byte("sessions"))
	sessions := []struct {
		who   string
		trace botdetect.Trace
	}{
		{"alice (human)", botdetect.HumanTrace(prg, 300)},
		{"curl script (naive bot)", botdetect.BotTrace(prg, 300, 0)},
		{"headless browser (sophisticated bot)", botdetect.BotTrace(prg, 300, 0.9)},
	}
	for _, s := range sessions {
		challenge, err := gate.NewChallenge()
		if err != nil {
			log.Fatal(err)
		}
		// The raw trace stays on the device; only features enter the
		// enclave, and only one bit leaves it.
		verdict, err := dev.Detect(challenge, botdetect.Features(s.trace))
		if err != nil {
			log.Fatal(err)
		}
		raw := glimmer.EncodeVerdict(verdict)
		report, err := format.Check(raw, map[string][]byte{"challenge": verdict.Challenge})
		if err != nil {
			log.Fatalf("auditor rejected verdict: %v", err)
		}
		human, err := gate.CheckVerdict(raw)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-38s -> human=%v (message carried %d bit, %d signature bytes)\n",
			s.who, human, report.InfoBits, report.SignatureBytes)
	}
}
