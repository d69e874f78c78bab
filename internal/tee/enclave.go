package tee

import (
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Enclave errors surfaced to host code.
var (
	ErrDestroyed    = errors.New("tee: enclave destroyed")
	ErrNoSuchECall  = errors.New("tee: no such ECALL")
	ErrNoSuchOCall  = errors.New("tee: no such OCALL")
	ErrEPCExhausted = errors.New("tee: enclave memory budget exhausted")
	ErrReentrant    = errors.New("tee: re-entrant ECALL")
)

// TransitionStats counts the enclave boundary crossings an execution paid
// for. The paper (§3) notes that a single-enclave Glimmer needs one
// transition in and out while a decomposed one needs more; these counters
// are what experiment E6 measures.
type TransitionStats struct {
	ECalls            uint64
	OCalls            uint64
	SimulatedOverhead time.Duration
	// BytesIn and BytesOut measure data copied across the boundary.
	BytesIn  uint64
	BytesOut uint64
}

// Enclave is a loaded instance of a Binary on a Platform. Host code can
// invoke its ECALLs, read its public identity, and destroy it — nothing
// else. All private state is reachable only from Handlers via Env.
type Enclave struct {
	platform       *Platform
	binary         *Binary
	measurement    Measurement
	signerID       SignerID
	epcBudget      int
	transitionCost time.Duration

	mu        sync.Mutex
	inECall   bool
	destroyed bool
	store     map[string][]byte
	objects   map[string]any
	storeUsed int
	stats     TransitionStats
	ocalls    map[string]Handler2Host
}

// objectNominalSize is the EPC charge for one entry in the object store.
// Live Go objects (sessions, parsed models) cannot be byte-measured, so each
// is charged a flat nominal footprint.
const objectNominalSize = 256

// Handler2Host is a host-side function an enclave may invoke via OCALL: the
// untrusted system services (file access, network, sensor reads) the paper
// notes enclaves must mediate through the host OS.
type Handler2Host func(input []byte) ([]byte, error)

// Measurement returns the enclave's code measurement (MRENCLAVE analogue).
func (e *Enclave) Measurement() Measurement { return e.measurement }

// ProvideOCall registers a host service the enclave may call. Host code
// decides what to expose; the enclave decides what to trust (typically
// nothing — OCALL results are untrusted input).
func (e *Enclave) ProvideOCall(name string, h Handler2Host) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ocalls == nil {
		e.ocalls = make(map[string]Handler2Host)
	}
	e.ocalls[name] = h
}

// Call invokes an ECALL by name. It is the only way host code can reach
// enclave state. Calls are serialized (the simulated enclave is
// single-threaded, like a one-TCS SGX enclave) and each call is charged a
// boundary transition.
func (e *Enclave) Call(name string, input []byte) ([]byte, error) {
	e.mu.Lock()
	if e.destroyed {
		e.mu.Unlock()
		return nil, ErrDestroyed
	}
	if e.inECall {
		e.mu.Unlock()
		return nil, ErrReentrant
	}
	handler, ok := e.binary.ecalls[name]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNoSuchECall, name)
	}
	e.inECall = true
	e.stats.ECalls++
	e.stats.BytesIn += uint64(len(input))
	cost := e.transitionCost
	e.mu.Unlock()

	chargeTransition(cost)

	// Copy the input across the boundary: the host must not be able to
	// mutate the buffer while the enclave works on it (a classic TOCTOU on
	// real SGX untrusted memory).
	inside := append([]byte(nil), input...)
	out, err := handler(&Env{enclave: e}, inside)

	chargeTransition(cost)

	e.mu.Lock()
	e.inECall = false
	e.stats.SimulatedOverhead += 2 * cost
	e.stats.BytesOut += uint64(len(out))
	e.mu.Unlock()

	// Copy the output back out so enclave-held buffers never alias host
	// memory.
	return append([]byte(nil), out...), err
}

// Stats returns a snapshot of the transition counters.
func (e *Enclave) Stats() TransitionStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Destroy tears the enclave down. Its private memory is discarded; sealed
// data and monotonic counters survive on the platform.
func (e *Enclave) Destroy() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.destroyed = true
	e.store = nil
	e.objects = nil
	e.storeUsed = 0
}

// runInside executes a handler inside the enclave without charging a
// transition; used for load-time init.
func (e *Enclave) runInside(h Handler, input []byte) ([]byte, error) {
	return h(&Env{enclave: e}, append([]byte(nil), input...))
}

func chargeTransition(cost time.Duration) {
	if cost > 0 {
		time.Sleep(cost)
	}
}

// Env is the view of the platform an ECALL handler sees: private memory,
// sealing, attestation, counters, and mediated host services. An Env is
// only valid for the duration of the handler invocation that received it.
type Env struct {
	enclave *Enclave
}

// Measurement returns the measurement of the running enclave.
func (env *Env) Measurement() Measurement { return env.enclave.measurement }

// SignerID returns the signer of the running enclave.
func (env *Env) SignerID() SignerID { return env.enclave.signerID }

// Put stores a value in enclave-private memory, charged against the EPC
// budget.
func (env *Env) Put(key string, value []byte) error {
	e := env.enclave
	e.mu.Lock()
	defer e.mu.Unlock()
	delta := len(value) + len(key)
	if old, ok := e.store[key]; ok {
		delta -= len(old) + len(key)
	}
	if e.epcBudget > 0 && e.storeUsed+delta > e.epcBudget {
		return fmt.Errorf("%w: need %d bytes over budget %d", ErrEPCExhausted, e.storeUsed+delta, e.epcBudget)
	}
	e.store[key] = append([]byte(nil), value...)
	e.storeUsed += delta
	return nil
}

// Get reads a value from enclave-private memory.
func (env *Env) Get(key string) ([]byte, bool) {
	e := env.enclave
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.store[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Delete removes a value from enclave-private memory, releasing its budget.
func (env *Env) Delete(key string) {
	e := env.enclave
	e.mu.Lock()
	defer e.mu.Unlock()
	if old, ok := e.store[key]; ok {
		e.storeUsed -= len(old) + len(key)
		delete(e.store, key)
	}
}

// PutObject stores a live Go value in enclave-private memory, charged a
// flat nominal EPC footprint. Objects stay inside the enclave: they are
// only reachable from handlers via GetObject, never across the boundary.
func (env *Env) PutObject(key string, value any) error {
	e := env.enclave
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.objects == nil {
		e.objects = make(map[string]any)
	}
	if _, exists := e.objects[key]; !exists {
		if e.epcBudget > 0 && e.storeUsed+objectNominalSize > e.epcBudget {
			return fmt.Errorf("%w: object store", ErrEPCExhausted)
		}
		e.storeUsed += objectNominalSize
	}
	e.objects[key] = value
	return nil
}

// GetObject retrieves a value stored with PutObject.
func (env *Env) GetObject(key string) (any, bool) {
	e := env.enclave
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.objects[key]
	return v, ok
}

// DeleteObject removes an object, releasing its nominal footprint.
func (env *Env) DeleteObject(key string) {
	e := env.enclave
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.objects[key]; ok {
		delete(e.objects, key)
		e.storeUsed -= objectNominalSize
	}
}

// MemoryUsed reports current private memory consumption in bytes.
func (env *Env) MemoryUsed() int {
	e := env.enclave
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.storeUsed
}

// OCall invokes a host-provided service. The result is untrusted: handlers
// must validate everything that comes back.
func (env *Env) OCall(name string, input []byte) ([]byte, error) {
	e := env.enclave
	e.mu.Lock()
	h, ok := e.ocalls[name]
	if ok {
		e.stats.OCalls++
	}
	cost := e.transitionCost
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchOCall, name)
	}
	chargeTransition(cost)
	out, err := h(append([]byte(nil), input...))
	chargeTransition(cost)
	e.mu.Lock()
	e.stats.SimulatedOverhead += 2 * cost
	e.mu.Unlock()
	return out, err
}

// CounterIncrement bumps the named monotonic counter for this enclave's
// measurement and returns the new value. Counters are rollback-protected
// state: they survive enclave destruction and never decrease.
func (env *Env) CounterIncrement(name string) uint64 {
	return env.enclave.platform.counterIncrement(env.enclave.measurement, name)
}

// CounterRead returns the named monotonic counter's current value.
func (env *Env) CounterRead(name string) uint64 {
	return env.enclave.platform.counterRead(env.enclave.measurement, name)
}

// Rand fills p with cryptographically secure random bytes (RDRAND
// analogue — the one hardware service enclaves may use directly).
func (env *Env) Rand(p []byte) error {
	if _, err := rand.Read(p); err != nil {
		return fmt.Errorf("tee: enclave randomness: %w", err)
	}
	return nil
}
