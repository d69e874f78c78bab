// Maps: the photos-for-maps scenario (§1, §3) — public contributions,
// private validation.
//
// User photos for map locations are meant to be shared, so they are not
// blinded. But validating that the user really took that photo at that
// place needs the device's GPS track, WiFi observations, and camera
// fingerprint — data far too sensitive to upload. The Glimmer checks the
// photo against that context locally and endorses only corroborated
// contributions.
//
// Run with: go run ./examples/maps
package main

import (
	"errors"
	"fmt"
	"log"

	"glimmers"
	"glimmers/internal/fixed"
	"glimmers/internal/geo"
	"glimmers/internal/glimmer"
	"glimmers/internal/xcrypto"
)

func main() {
	tb, err := glimmers.NewTestbed("maps.example", geo.DefaultPredicate("photo-validator"))
	if err != nil {
		log.Fatal(err)
	}
	dev, err := tb.NewProvisionedDevice(2, glimmers.ModeNone)
	if err != nil {
		log.Fatal(err)
	}

	// The device's private day: a walk through downtown Toronto.
	prg := xcrypto.NewPRG([]byte("a day downtown"))
	downtown := geo.Point{LatMicro: 43_653_000, LonMicro: -79_383_000}
	ctx := geo.DeviceContext{
		Track:          geo.RandomTrack(prg, downtown, 60, 25, 60_000),
		CamFingerprint: 0xC0FFEE,
	}

	submit := func(name string, photo geo.Photo, round uint64) {
		features := geo.ContextFeatures(photo, ctx)
		contribution := fixed.Vector{fixed.Ring(photo.Claimed.LatMicro), fixed.Ring(photo.Claimed.LonMicro)}
		sc, err := dev.Contribute(round, contribution, features)
		switch {
		case err == nil:
			fmt.Printf("%-34s endorsed (lat=%d lon=%d, signed=%v)\n", name,
				int64(sc.Blinded[0]), int64(sc.Blinded[1]),
				tb.Service.ContributionVerifyKey().Verify(sc.SignedBytes(), sc.Signature))
		case errors.Is(err, glimmer.ErrRejected):
			fmt.Printf("%-34s REFUSED (context does not corroborate)\n", name)
		default:
			log.Fatal(err)
		}
	}

	// A genuine photo at the cafe the user actually visited.
	cafe := ctx.Track[30]
	submit("genuine cafe photo:", geo.Photo{
		TakenMs: cafe.TimeMs + 45_000, Claimed: cafe.Loc,
		CamFingerprint: 0xC0FFEE, Wifi: cafe.Wifi,
	}, 1)

	// A photo "from" a landmark across town the user never visited.
	landmark := geo.Point{LatMicro: downtown.LatMicro + 700_000, LonMicro: downtown.LonMicro + 200_000}
	submit("forged landmark photo:", geo.Photo{
		TakenMs: cafe.TimeMs, Claimed: landmark,
		CamFingerprint: 0xC0FFEE, Wifi: geo.WifiAt(landmark),
	}, 2)

	// A photo stolen from someone else's camera at the right place.
	submit("stolen photo (foreign camera):", geo.Photo{
		TakenMs: cafe.TimeMs, Claimed: cafe.Loc,
		CamFingerprint: 0xDEAD, Wifi: cafe.Wifi,
	}, 3)

	fmt.Println("\nThe GPS track, WiFi history, and camera fingerprint never left the device.")
}
