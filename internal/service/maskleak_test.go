package service

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"

	"glimmers/internal/attest"
	"glimmers/internal/blind"
	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/predicate"
	"glimmers/internal/tee"
	"glimmers/internal/xcrypto"
)

// recorder is an Attestable whose enclave half is a small test enclave: it
// runs the Glimmer's side of the provisioning handshake and hands every
// plaintext the service sends over the attested channel back to the test.
type recorder struct {
	enclave *tee.Enclave
	got     [][]byte
}

// newRecorder loads a recorder on platform and has svc vet it.
func newRecorder(t *testing.T, platform *tee.Platform, svc *Service) *recorder {
	t.Helper()
	serviceKey, err := svc.IdentityKeyDER()
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	var (
		key     *attest.EnclaveKey
		session *attest.Session
	)
	bin := tee.NewBinary("provision-recorder", "1", []byte("provision-recorder")).
		Define("hello", func(env *tee.Env, _ []byte) ([]byte, error) {
			k, hello, err := attest.NewEnclaveHello(env, glimmer.ProvisionContext(svc.Name()))
			key = k
			return attest.EncodeHello(hello), err
		}).
		Define("complete", func(_ *tee.Env, input []byte) ([]byte, error) {
			resp, err := attest.DecodeResponse(input)
			if err != nil {
				return nil, err
			}
			pub, err := xcrypto.ParseVerifyKey(serviceKey)
			if err != nil {
				return nil, err
			}
			session, err = key.Complete(resp, pub)
			return nil, err
		}).
		Define("provision", func(_ *tee.Env, record []byte) ([]byte, error) {
			plaintext, err := session.Recv(record)
			if err != nil {
				return nil, err
			}
			rec.got = append(rec.got, plaintext)
			return session.Send([]byte("provisioned"))
		})
	if rec.enclave, err = platform.Load(bin); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rec.enclave.Destroy)
	svc.Vet(bin.Measurement())
	return rec
}

func (r *recorder) Hello() ([]byte, error) { return r.enclave.Call("hello", nil) }
func (r *recorder) Complete(resp []byte) error {
	_, err := r.enclave.Call("complete", resp)
	return err
}
func (r *recorder) Provision(rec []byte) ([]byte, error) { return r.enclave.Call("provision", rec) }

// dealerFleet is the fleet the testbed builds: a dealer enclave on platform
// (seeded with seed) that svc vouches for, and n dealer-mode devices that
// svc provisions, the dealer enrolls at index i, and that take each of
// rounds' dealt masks.
func dealerFleet(t *testing.T, as *tee.AttestationService, platform *tee.Platform, svc *Service, dim, n int, seed []byte, rounds ...uint64) (*glimmer.DealerHost, []*glimmer.Device) {
	t.Helper()
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeDealer, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	rootDER, err := as.Root().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dealer, err := glimmer.NewDealerHost(platform, glimmer.DealerConfig{
		ServiceName:     svc.Name(),
		AttestationRoot: rootDER,
		AllowedClient:   glimmer.BuildBinary(cfg).Measurement(),
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dealer.Destroy)
	svc.VouchDealer(dealer.Measurement())
	devs := make([]*glimmer.Device, n)
	for i := range devs {
		if devs[i], err = svc.NewDevice(platform, cfg); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(devs[i].Destroy)
		hello, err := devs[i].DealerHello()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := dealer.Enroll(uint32(i), hello)
		if err != nil {
			t.Fatal(err)
		}
		if err := devs[i].DealerComplete(resp); err != nil {
			t.Fatal(err)
		}
	}
	for _, round := range rounds {
		records, err := dealer.Distribute(dim, round)
		if err != nil {
			t.Fatal(err)
		}
		for i, dev := range devs {
			if err := dev.InstallMask(records[uint32(i)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dealer, devs
}

// maskWindows is every 16-byte window of every mask's big-endian lane
// bytes, raw and in both hex cases.
func maskWindows(masks map[uint64][]fixed.Vector) []string {
	var out []string
	for _, dealt := range masks {
		for _, m := range dealt {
			b := make([]byte, 8*len(m))
			for i, r := range m {
				binary.BigEndian.PutUint64(b[8*i:], uint64(r))
			}
			for i := 0; i+16 <= len(b); i++ {
				w := b[i : i+16]
				out = append(out, string(w), hex.EncodeToString(w), strings.ToUpper(hex.EncodeToString(w)))
			}
		}
	}
	return out
}

// TestServiceNeverSendsADealtMask provisions a dealer-mode fleet the way
// the testbed does, records every plaintext the service sends each
// Glimmer over the attested channel, and fails if any 16-byte window of
// any dealt mask appears in it, raw or hex: the service is untrusted with
// private data, and a mask would let it unblind a contribution.
func TestServiceNeverSendsADealtMask(t *testing.T) {
	const (
		name = "maskless.example"
		seed = 7
		n    = 4
		dim  = 3
	)
	as, err := tee.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := tee.NewPlatform(as)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(name, as.Root())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.SetPredicate(predicate.UnitRangeCheck("unit-range", dim)); err != nil {
		t.Fatal(err)
	}
	rounds := []uint64{1, 2}
	dealt := make(map[uint64][]fixed.Vector, len(rounds))
	for _, round := range rounds {
		if dealt[round], err = blind.ZeroSumMasks(fmt.Appendf(nil, "sim/%s/%d/masks/%d", name, seed, round), n, dim); err != nil {
			t.Fatal(err)
		}
	}

	// The testbed's fleet: a seeded dealer the service vouches for deals
	// every round to the enrolled devices.
	dealer, _ := dealerFleet(t, as, platform, svc, dim, n, fmt.Appendf(nil, "sim/%s/%d", name, seed), rounds...)
	if got, err := dealer.Reveal(1, []uint32{0}); err != nil || !slices.Equal(got, dealt[1][0]) {
		t.Fatalf("the dealer's round-1 mask for device 0 is (%v, %v), want %v", got, err, dealt[1][0])
	}
	// Each device's provisioning, recorded: the service sends every
	// Glimmer of the fleet what it sends each of these.
	var recs []*recorder
	for i := 0; i < n; i++ {
		rec := newRecorder(t, platform, svc)
		if err := svc.provision(rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}

	windows := maskWindows(dealt)
	for i, rec := range recs {
		if len(rec.got) == 0 {
			t.Fatalf("recorder %d saw no plaintext", i)
		}
		for _, plaintext := range rec.got {
			for _, w := range windows {
				if bytes.Contains(plaintext, []byte(w)) {
					t.Fatalf("the service sent device %d a window of a dealt mask (%q)", i, w)
				}
			}
		}
	}
}
