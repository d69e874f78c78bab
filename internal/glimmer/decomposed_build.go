package glimmer

import (
	"fmt"

	"glimmers/internal/fixed"
	"glimmers/internal/tee"
	"glimmers/internal/xcrypto"
)

// BuildComponentBinary constructs one component of the decomposed Glimmer.
// All three components of a deployment must be signed by the same vendor
// key — the link protocol anchors inter-component trust in that signer.
func BuildComponentBinary(cfg Config, role Role, vendor *xcrypto.VerifyKey) *tee.Binary {
	code := append([]byte(Version+"#"+role.String()+"\x00"), cfg.encode()...)
	b := tee.NewBinary("glimmer-"+role.String(), Version, code)
	b.SetSigner(vendor)
	b.OnInit(func(env *tee.Env, _ []byte) ([]byte, error) {
		if err := env.PutObject(objConfig, cfg); err != nil {
			return nil, err
		}
		if err := env.PutObject(objRole, role); err != nil {
			return nil, err
		}
		switch role {
		case RoleValidator:
			return nil, env.PutObject(objExpectDown, RoleBlinder)
		case RoleBlinder:
			if err := env.PutObject(objExpectUp, RoleValidator); err != nil {
				return nil, err
			}
			return nil, env.PutObject(objExpectDown, RoleSigner)
		case RoleSigner:
			return nil, env.PutObject(objExpectUp, RoleBlinder)
		}
		return nil, fmt.Errorf("%w: unknown role %d", ErrState, role)
	})

	// Every component attests to and is provisioned by the service
	// independently, each installing only its own material.
	b.Define("hello", ecallHello)
	b.Define("complete", ecallComplete)
	b.Define("provision", func(env *tee.Env, input []byte) ([]byte, error) {
		cfg, err := configOf(env)
		if err != nil {
			return nil, err
		}
		session, payload, err := recvProvision(env, input)
		if err != nil {
			return nil, err
		}
		switch role {
		case RoleValidator:
			err = installPredicate(env, cfg, payload)
		case RoleBlinder:
			err = installBlinding(env, cfg, payload)
		case RoleSigner:
			err = installSigningKey(env, payload)
		}
		if err != nil {
			return nil, err
		}
		return session.Send([]byte("provisioned"))
	})

	switch role {
	case RoleValidator:
		b.Define("validate", ecallValidate)
		b.Define("link-init", ecallLinkInit)
		b.Define("link-finish", ecallLinkFinish)
	case RoleBlinder:
		b.Define("blind", ecallBlind)
		b.Define("link-accept", ecallLinkAccept)
		b.Define("link-init", ecallLinkInit)
		b.Define("link-finish", ecallLinkFinish)
		b.Define("pairwise-pub", ecallPairwisePub)
		// A dealer-mode blinder takes its masks the one way a Glimmer does:
		// from the vouched-for dealer enclave.
		b.Define("dealer-hello", ecallDealerHello)
		b.Define("dealer-complete", ecallDealerComplete)
		b.Define("install-mask", ecallInstallMask)
	case RoleSigner:
		b.Define("sign", ecallSign)
		b.Define("link-accept", ecallLinkAccept)
	}
	return b
}

// Component is the host handle to one enclave of a decomposed Glimmer. It
// satisfies the same attestation surface as a single-enclave Device.
type Component struct {
	role    Role
	enclave *tee.Enclave
}

// Measurement returns the component enclave's measurement.
func (c *Component) Measurement() tee.Measurement { return c.enclave.Measurement() }

// Hello starts the component's attested handshake with the service.
func (c *Component) Hello() ([]byte, error) { return c.enclave.Call("hello", nil) }

// Complete finishes the component's handshake.
func (c *Component) Complete(response []byte) error {
	_, err := c.enclave.Call("complete", response)
	return err
}

// Provision forwards a session-encrypted provisioning record.
func (c *Component) Provision(record []byte) ([]byte, error) {
	return c.enclave.Call("provision", record)
}

// DecomposedDevice is the host orchestrator for a three-enclave Glimmer:
// it loads the components, establishes their mutual links, and pipelines
// contributions through validate → blind → sign.
type DecomposedDevice struct {
	validator *Component
	blinder   *Component
	signer    *Component
}

// NewDecomposedDevice loads and links the three components on a platform.
func NewDecomposedDevice(p *tee.Platform, cfg Config, vendor *xcrypto.VerifyKey, opts ...tee.LoadOption) (*DecomposedDevice, error) {
	load := func(role Role) (*Component, error) {
		enclave, err := p.Load(BuildComponentBinary(cfg, role, vendor), opts...)
		if err != nil {
			return nil, fmt.Errorf("glimmer: load %s: %w", role, err)
		}
		return &Component{role: role, enclave: enclave}, nil
	}
	validator, err := load(RoleValidator)
	if err != nil {
		return nil, err
	}
	blinder, err := load(RoleBlinder)
	if err != nil {
		return nil, err
	}
	signer, err := load(RoleSigner)
	if err != nil {
		return nil, err
	}
	d := &DecomposedDevice{validator: validator, blinder: blinder, signer: signer}
	if err := d.link(validator, blinder, "link-accept"); err != nil {
		return nil, err
	}
	if err := d.link(blinder, signer, "link-accept"); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *DecomposedDevice) link(up, down *Component, acceptECall string) error {
	offer, err := up.enclave.Call("link-init", nil)
	if err != nil {
		return fmt.Errorf("glimmer: %s link-init: %w", up.role, err)
	}
	answer, err := down.enclave.Call(acceptECall, offer)
	if err != nil {
		return fmt.Errorf("glimmer: %s link-accept: %w", down.role, err)
	}
	if _, err := up.enclave.Call("link-finish", answer); err != nil {
		return fmt.Errorf("glimmer: %s link-finish: %w", up.role, err)
	}
	return nil
}

// Validator returns the validation component handle.
func (d *DecomposedDevice) Validator() *Component { return d.validator }

// Blinder returns the blinding component handle.
func (d *DecomposedDevice) Blinder() *Component { return d.blinder }

// Signer returns the signing component handle.
func (d *DecomposedDevice) Signer() *Component { return d.signer }

// Contribute pipelines a contribution through the three components. The
// host sees only link-encrypted records between stages.
func (d *DecomposedDevice) Contribute(round uint64, contribution fixed.Vector, private []int64) (SignedContribution, error) {
	req := ContributionRequest{
		Round:        round,
		Contribution: VectorToBits(contribution),
		Private:      Int64sToBits(private),
	}
	validated, err := d.validator.enclave.Call("validate", EncodeContribution(req))
	if err != nil {
		return SignedContribution{}, err
	}
	blinded, err := d.blinder.enclave.Call("blind", validated)
	if err != nil {
		return SignedContribution{}, err
	}
	signed, err := d.signer.enclave.Call("sign", blinded)
	if err != nil {
		return SignedContribution{}, err
	}
	return DecodeSignedContribution(signed)
}

// Stats aggregates transition counters across the three enclaves.
func (d *DecomposedDevice) Stats() tee.TransitionStats {
	var total tee.TransitionStats
	for _, c := range []*Component{d.validator, d.blinder, d.signer} {
		s := c.enclave.Stats()
		total.ECalls += s.ECalls
		total.OCalls += s.OCalls
		total.BytesIn += s.BytesIn
		total.BytesOut += s.BytesOut
		total.SimulatedOverhead += s.SimulatedOverhead
	}
	return total
}
