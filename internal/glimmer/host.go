package glimmer

import (
	"fmt"

	"glimmers/internal/fixed"
	"glimmers/internal/tee"
)

// Device is the host-side handle to a Glimmer: untrusted client code that
// loads the enclave, shuttles protocol messages, and feeds contributions in.
// Everything a Device touches is visible to the adversary in the paper's
// threat model; the tests exercise exactly that by tampering with what
// passes through it.
type Device struct {
	enclave *tee.Enclave
}

// NewDevice loads a single-enclave Glimmer for the configuration onto the
// platform.
func NewDevice(p *tee.Platform, cfg Config, opts ...tee.LoadOption) (*Device, error) {
	enclave, err := p.Load(BuildBinary(cfg), opts...)
	if err != nil {
		return nil, fmt.Errorf("glimmer: load: %w", err)
	}
	return &Device{enclave: enclave}, nil
}

// Enclave exposes the underlying enclave (for stats and OCALL wiring).
func (d *Device) Enclave() *tee.Enclave { return d.enclave }

// Measurement returns the Glimmer's measurement, the identity a service
// allowlists.
func (d *Device) Measurement() tee.Measurement { return d.enclave.Measurement() }

// Hello starts the attested handshake; the returned bytes go to the service.
func (d *Device) Hello() ([]byte, error) {
	return d.enclave.Call("hello", nil)
}

// Complete finishes the handshake with the service's response.
func (d *Device) Complete(response []byte) error {
	_, err := d.enclave.Call("complete", response)
	return err
}

// Provision forwards a session-encrypted provisioning record into the
// enclave and returns the session-encrypted acknowledgement.
func (d *Device) Provision(record []byte) ([]byte, error) {
	return d.enclave.Call("provision", record)
}

// PairwisePub fetches the enclave's pairwise-blinding public key.
func (d *Device) PairwisePub() ([]byte, error) {
	return d.enclave.Call("pairwise-pub", nil)
}

// Contribute runs the validate→blind→sign pipeline for one contribution.
func (d *Device) Contribute(round uint64, contribution fixed.Vector, private []int64) (SignedContribution, error) {
	req := ContributionRequest{
		Round:        round,
		Contribution: VectorToBits(contribution),
		Private:      Int64sToBits(private),
	}
	out, err := d.enclave.Call("contribute", EncodeContribution(req))
	if err != nil {
		return SignedContribution{}, err
	}
	return DecodeSignedContribution(out)
}

// TicketRequest builds the session's signed ticket request for the given
// round window — the one asymmetric operation of the ticketed fast path.
// The returned bytes go to the service (directly, or through a gaas host's
// ticket-grant command).
func (d *Device) TicketRequest(roundFirst, roundLast uint64) ([]byte, error) {
	return d.enclave.Call("ticket-request", EncodeTicketWindow(roundFirst, roundLast))
}

// InstallTicket completes the ticket exchange with the service's grant;
// subsequent ContributeTicketed calls MAC under the derived session key.
func (d *Device) InstallTicket(grant []byte) error {
	_, err := d.enclave.Call("ticket-install", grant)
	return err
}

// ContributeTicketed runs the validate→blind pipeline and seals the result
// with the session MAC instead of a signature.
func (d *Device) ContributeTicketed(round uint64, contribution fixed.Vector, private []int64) (TicketedContribution, error) {
	req := ContributionRequest{
		Round:        round,
		Contribution: VectorToBits(contribution),
		Private:      Int64sToBits(private),
	}
	out, err := d.enclave.Call("contribute-ticketed", EncodeContribution(req))
	if err != nil {
		return TicketedContribution{}, err
	}
	return DecodeTicketedContribution(out)
}

// Detect runs the §4.1 bot-detection flow over private signals.
func (d *Device) Detect(challenge []byte, signals []int64) (Verdict, error) {
	req := DetectRequest{Challenge: challenge, Signals: Int64sToBits(signals)}
	out, err := d.enclave.Call("detect", EncodeDetect(req))
	if err != nil {
		return Verdict{}, err
	}
	return DecodeVerdict(out)
}

// UserHello starts the user-facing attested handshake (§4.2).
func (d *Device) UserHello() ([]byte, error) {
	return d.enclave.Call("user-hello", nil)
}

// UserComplete finishes the user-facing handshake.
func (d *Device) UserComplete(response []byte) error {
	_, err := d.enclave.Call("user-complete", response)
	return err
}

// UserContribute forwards a user-session-encrypted contribution record and
// returns the encrypted reply.
func (d *Device) UserContribute(record []byte) ([]byte, error) {
	return d.enclave.Call("user-contribute", record)
}

// Stats returns the enclave's transition counters.
func (d *Device) Stats() tee.TransitionStats { return d.enclave.Stats() }

// Destroy tears down the enclave.
func (d *Device) Destroy() { d.enclave.Destroy() }
