package glimmer

import (
	"fmt"
	"sync"

	"glimmers/internal/fixed"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
)

// writerPool recycles encode buffers across the contribution encoders:
// every enclave seal, simulator device, and bench iteration encodes into a
// warm buffer and copies out an exact-size result, instead of growing a
// fresh writer through ~a dozen appends per message.
var writerPool = sync.Pool{New: func() any { return wire.NewWriter() }}

// maxPooledEncode caps what goes back into writerPool, so one giant
// message cannot pin its buffer for the life of the process.
const maxPooledEncode = 1 << 20

func getWriter() *wire.Writer {
	return writerPool.Get().(*wire.Writer)
}

// finishPooled copies the writer's encoding into an exact-size result and
// recycles the writer. The copy is what lets the pool exist: Finish aliases
// the pooled buffer, and callers own what these encoders return.
func finishPooled(w *wire.Writer) []byte { return finishPooledFrom(w, 0) }

// finishPooledFrom is finishPooled for an encoding that starts skip bytes
// into the writer.
func finishPooledFrom(w *wire.Writer, skip int) []byte {
	buf := w.Finish()
	out := make([]byte, len(buf)-skip)
	copy(out, buf[skip:])
	w.Reset()
	if len(buf) <= maxPooledEncode {
		writerPool.Put(w)
	}
	return out
}

// appendVector writes a vector as a counted uint64 sequence without the
// intermediate []uint64 copy VectorToBits would allocate.
func appendVector(w *wire.Writer, v fixed.Vector) {
	w.Uint32(uint32(len(v)))
	for _, r := range v {
		w.Uint64(uint64(r))
	}
}

// ProvisionPayload is what a service installs into a Glimmer over the
// attested session: signing key, predicate, and blinding identities. It
// never carries a mask: a dealer-mode Glimmer takes its masks from the
// dealer enclave the payload names.
type ProvisionPayload struct {
	// SigningKey is the PKCS#8 DER of the contribution-signing key.
	SigningKey []byte
	// Predicate is the encoded validation program (predicate.Encode). It
	// travels inside the encrypted session, so a confidential predicate
	// (§4.1) is never visible to the host.
	Predicate []byte
	// PartyIndex and Roster configure pairwise blinding (ModePairwise).
	PartyIndex uint32
	Roster     [][]byte
	// DealerMeasurement (32 bytes) names the dealer enclave the service
	// vouches for: a dealer-mode Glimmer fetches its masks from it over a
	// mutually attested channel. AttestationRoot (PKIX DER) is the root the
	// Glimmer verifies the dealer's quote against.
	DealerMeasurement []byte
	AttestationRoot   []byte
}

// EncodeProvision serializes the payload.
func EncodeProvision(p ProvisionPayload) []byte {
	w := wire.NewWriter()
	w.Bytes(p.SigningKey)
	w.Bytes(p.Predicate)
	w.Uint32(p.PartyIndex)
	w.Uint32(uint32(len(p.Roster)))
	for _, pub := range p.Roster {
		w.Bytes(pub)
	}
	w.Bytes(p.DealerMeasurement)
	w.Bytes(p.AttestationRoot)
	return w.Finish()
}

// DecodeProvision reverses EncodeProvision.
func DecodeProvision(data []byte) (ProvisionPayload, error) {
	r := wire.NewReader(data)
	p := ProvisionPayload{
		SigningKey: r.Bytes(),
		Predicate:  r.Bytes(),
		PartyIndex: r.Uint32(),
	}
	nRoster := r.Uint32()
	if nRoster > 1<<16 {
		return p, fmt.Errorf("glimmer: absurd roster size %d", nRoster)
	}
	for i := uint32(0); i < nRoster; i++ {
		p.Roster = append(p.Roster, r.Bytes())
	}
	p.DealerMeasurement = r.Bytes()
	p.AttestationRoot = r.Bytes()
	if err := r.Done(); err != nil {
		return p, fmt.Errorf("glimmer: provision payload: %w", err)
	}
	return p, nil
}

// ContributionRequest is the host's input to the "contribute" ECALL.
type ContributionRequest struct {
	// Round is the aggregation round the contribution belongs to.
	Round uint64
	// Contribution is the proposed contribution, as raw ring bits.
	Contribution []uint64
	// Private is the private validation bank the predicate may inspect.
	Private []uint64
}

// EncodeContribution serializes a request.
func EncodeContribution(req ContributionRequest) []byte {
	return wire.NewWriter().
		Uint64(req.Round).
		Uint64s(req.Contribution).
		Uint64s(req.Private).
		Finish()
}

// DecodeContribution reverses EncodeContribution.
func DecodeContribution(data []byte) (ContributionRequest, error) {
	r := wire.NewReader(data)
	req := ContributionRequest{
		Round:        r.Uint64(),
		Contribution: r.Uint64s(),
		Private:      r.Uint64s(),
	}
	if err := r.Done(); err != nil {
		return req, fmt.Errorf("glimmer: contribution request: %w", err)
	}
	return req, nil
}

// VectorToBits converts a fixed-point vector into the raw bits a request
// carries.
func VectorToBits(v fixed.Vector) []uint64 {
	out := make([]uint64, len(v))
	for i, r := range v {
		out[i] = uint64(r)
	}
	return out
}

// Int64sToBits reinterprets an int64 feature bank (e.g. corroboration
// weights) as request bits.
func Int64sToBits(vs []int64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = uint64(v)
	}
	return out
}

// SignedContribution is the Glimmer's output: the blinded contribution
// endorsed by the provisioned signing key. This message is the only thing
// that crosses from the client to the service, and its format is public so
// a runtime auditor can bound what it reveals.
type SignedContribution struct {
	ServiceName string
	Round       uint64
	Measurement tee.Measurement
	Blinded     fixed.Vector
	// Confidence is the validation verdict (1 for boolean predicates; up
	// to the predicate's scale, e.g. 0–100, for confidence-valued ones —
	// §3's "boolean 'valid'/'invalid', or a confidence value").
	Confidence int64
	Signature  []byte
}

// appendSignedFields writes everything the signature covers (after the
// domain header) — which is also everything the transport encoding carries
// before the signature field.
func appendSignedFields(w *wire.Writer, sc *SignedContribution) {
	w.String(sc.ServiceName)
	w.Uint64(sc.Round)
	w.Bytes(sc.Measurement[:])
	appendVector(w, sc.Blinded)
	w.Uint64(uint64(sc.Confidence))
}

// SignedBytes returns the byte string the signature covers.
func (sc SignedContribution) SignedBytes() []byte {
	w := getWriter()
	w.String(signedContributionDomain)
	appendSignedFields(w, &sc)
	return finishPooled(w)
}

// EncodeSignedContribution serializes the full message, through a pooled
// writer: one exact-size allocation per message instead of the ~11 growth
// appends the bulk encoders used to pay.
func EncodeSignedContribution(sc SignedContribution) []byte {
	w := getWriter()
	appendSignedFields(w, &sc)
	w.Bytes(sc.Signature)
	return finishPooled(w)
}

// DecodeSignedContribution reverses EncodeSignedContribution. The returned
// struct is an independent copy that outlives the input.
func DecodeSignedContribution(data []byte) (SignedContribution, error) {
	sc, _, err := decodeSignedContribution(data, false)
	return sc, err
}

// signedContributionDomain separates the contribution signature preimage
// from every other signed byte string; signedContributionHeader is its
// encoded form, the head segment of SignedView.PreimageParts.
const signedContributionDomain = "glimmers/contribution/v1"

var signedContributionHeader = wire.NewWriter().String(signedContributionDomain).Finish()

// SignedView is the zero-copy decode of a signed contribution, the sibling
// of TicketedView: every byte field is a view into the input, and the vector
// stays in its wire form (contiguous big-endian lanes) so the ingest path
// verifies and accumulates straight from the frame. A view is valid only
// while the bytes it was decoded from are; retaining callers must copy.
type SignedView struct {
	ServiceName []byte // view into the input
	Round       uint64
	Measurement tee.Measurement
	LaneBytes   []byte // view: big-endian uint64 lanes, 8 bytes each
	Confidence  int64
	Signature   []byte // view into the input
	fields      []byte // view: everything the signature covers after the domain header
}

// Lanes returns the vector dimension.
func (v *SignedView) Lanes() int { return len(v.LaneBytes) / 8 }

// PreimageParts returns the signature preimage as the two segments
// xcrypto.VerifyKey.VerifyParts consumes: the constant domain header and the
// input's field bytes. The encoded message and the signed string share every
// field up to the signature, so the preimage is never rebuilt — or copied.
func (v *SignedView) PreimageParts() (head, tail []byte) {
	return signedContributionHeader, v.fields
}

// Decode decodes data into v without copying. It is the one parser of the
// signed variant: DecodeSignedContribution[Bytes] copy out of it.
func (v *SignedView) Decode(data []byte) error {
	var r wire.Reader
	r.Reset(data)
	v.ServiceName = r.BytesView()
	v.Round = r.Uint64()
	m := r.BytesView()
	if len(m) == len(v.Measurement) {
		copy(v.Measurement[:], m)
	} else if r.Err() == nil {
		return fmt.Errorf("glimmer: measurement field is %d bytes", len(m))
	}
	v.LaneBytes = r.Uint64sView()
	v.Confidence = int64(r.Uint64())
	fieldsEnd := len(data) - r.Remaining()
	v.Signature = r.BytesView()
	if err := r.Done(); err != nil {
		return fmt.Errorf("glimmer: signed contribution: %w", err)
	}
	v.fields = data[:fieldsEnd]
	return nil
}

// Clear drops every view so a pooled SignedView does not pin the bytes it
// last decoded.
func (v *SignedView) Clear() {
	*v = SignedView{}
}

// DecodeSignedContributionBytes decodes data and additionally returns the
// exact byte string the signature covers. The returned struct and signed
// bytes are independent copies that outlive the input. On error the returned
// struct is zero.
func DecodeSignedContributionBytes(data []byte) (SignedContribution, []byte, error) {
	return decodeSignedContribution(data, true)
}

// decodeSignedContribution is the copying decoder. It materializes what
// SignedView.Decode reads, so the two accept and refuse exactly the same
// inputs: the name, the vector, and one buffer for the signature and, behind
// it, the signed preimage when the caller wants it.
func decodeSignedContribution(data []byte, wantSigned bool) (SignedContribution, []byte, error) {
	var v SignedView
	if err := v.Decode(data); err != nil {
		return SignedContribution{}, nil, err
	}
	sc := SignedContribution{
		ServiceName: string(v.ServiceName),
		Round:       v.Round,
		Measurement: v.Measurement,
		Blinded:     make(fixed.Vector, v.Lanes()),
		Confidence:  v.Confidence,
	}
	fixed.AccumulateWireInto(sc.Blinded, v.LaneBytes)
	head, tail := v.PreimageParts()
	if !wantSigned {
		head, tail = nil, nil
	}
	n := len(v.Signature)
	buf := make([]byte, 0, n+len(head)+len(tail))
	buf = append(append(append(buf, v.Signature...), head...), tail...)
	sc.Signature = buf[:n:n]
	return sc, buf[n:], nil
}

// PeekContributionRound reads only the round number from an encoded
// SignedContribution, without materializing the vector (and without
// allocating). Round routers use it to pick a pipeline before paying for
// the full decode.
func PeekContributionRound(data []byte) (uint64, error) {
	var r wire.Reader
	r.Reset(data)
	r.SkipBytes() // service name, validated by the pipeline after routing
	round := r.Uint64()
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("glimmer: signed contribution: %w", err)
	}
	return round, nil
}

// PeekContributionService reads only the service name from an encoded
// SignedContribution, as a view into data, without materializing anything
// else (and without allocating). Multi-tenant routers use it to pick a
// tenant before paying for the full decode; the tenant's pipeline then
// re-validates the name against its own identity, so a router acting on
// the peek alone can never credit a contribution to the wrong tenant.
func PeekContributionService(data []byte) ([]byte, error) {
	var r wire.Reader
	r.Reset(data)
	name := r.BytesView()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("glimmer: signed contribution: %w", err)
	}
	return name, nil
}

// DetectRequest is the host's input to the "detect" ECALL (§4.1).
type DetectRequest struct {
	// Challenge is the service-issued nonce the verdict must echo.
	Challenge []byte
	// Signals is the private behavioural feature bank.
	Signals []uint64
}

// EncodeDetect serializes a detect request.
func EncodeDetect(req DetectRequest) []byte {
	return wire.NewWriter().Bytes(req.Challenge).Uint64s(req.Signals).Finish()
}

// DecodeDetect reverses EncodeDetect.
func DecodeDetect(data []byte) (DetectRequest, error) {
	r := wire.NewReader(data)
	req := DetectRequest{Challenge: r.Bytes(), Signals: r.Uint64s()}
	if err := r.Done(); err != nil {
		return req, fmt.Errorf("glimmer: detect request: %w", err)
	}
	return req, nil
}

// Verdict is the §4.1 output message: exactly one bit of information plus
// the challenge echo and signature the paper's auditor expects.
type Verdict struct {
	ServiceName string
	Challenge   []byte
	Human       bool
	Signature   []byte
}

// SignedBytes returns the byte string the signature covers.
func (v Verdict) SignedBytes() []byte {
	return wire.NewWriter().
		String("glimmers/verdict/v1").
		String(v.ServiceName).
		Bytes(v.Challenge).
		Bool(v.Human).
		Finish()
}

// EncodeVerdict serializes the verdict message in the public format.
func EncodeVerdict(v Verdict) []byte {
	return wire.NewWriter().
		String("glimmers/verdict/v1").
		String(v.ServiceName).
		Bytes(v.Challenge).
		Bool(v.Human).
		Bytes(v.Signature).
		Finish()
}

// DecodeVerdict reverses EncodeVerdict, rejecting malformed headers.
func DecodeVerdict(data []byte) (Verdict, error) {
	r := wire.NewReader(data)
	if header := r.String(); header != "glimmers/verdict/v1" && r.Err() == nil {
		return Verdict{}, fmt.Errorf("glimmer: bad verdict header %q", header)
	}
	v := Verdict{
		ServiceName: r.String(),
		Challenge:   r.Bytes(),
		Human:       r.Bool(),
		Signature:   r.Bytes(),
	}
	if err := r.Done(); err != nil {
		return v, fmt.Errorf("glimmer: verdict: %w", err)
	}
	return v, nil
}
