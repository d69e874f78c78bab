package gaas

import (
	"errors"
	"fmt"
	"strings"

	"glimmers/internal/wire"
)

// Typed protocol errors. Server handlers wrap these (the sentinel text
// leads the message), the error frame carries the message across the
// wire, and the client maps the text back onto the sentinel — so callers
// errors.Is-match a remote refusal exactly as they would a local one.
var (
	// ErrFrameTooLarge refuses a frame whose length prefix exceeds
	// MaxFrame. After an oversized prefix the stream is unreadable, so the
	// peer reports the error and drops the connection.
	ErrFrameTooLarge = errors.New("gaas: frame exceeds limit")

	// ErrUnknownCommand refuses a command no handler is registered for.
	ErrUnknownCommand = errors.New("gaas: unknown command")

	// ErrShed is the serving edge refusing work it cannot absorb: a
	// connection over MaxConns or the per-IP limit, or a contribution
	// batch arriving while MaxInflightBatches are already inside the
	// pipelines. A shed reply is immediate — the edge never parks a
	// client on a saturated pipeline — and retryable after backoff.
	ErrShed = errors.New("gaas: overloaded, retry later")

	// ErrMeasurementMismatch is the TOFU store refusing a swapped
	// enclave: the service presented a genuinely attested measurement
	// that differs from the one pinned in the known-hosts store.
	ErrMeasurementMismatch = errors.New("gaas: enclave measurement does not match known-hosts pin")
)

// Client errors.
var (
	ErrRemote   = errors.New("gaas: remote error")
	ErrRejected = errors.New("gaas: contribution rejected by remote glimmer")
)

// ErrBatchTooLarge is returned by SubmitBatch when the encoded batch
// would exceed the protocol's frame limit; split the batch and retry.
var ErrBatchTooLarge = errors.New("gaas: batch exceeds frame limit")

// wireSentinels are the typed errors recoverable from an error frame's
// text: the edge's own and a merge coordinator's refusals. Order matters
// only for prefix ambiguity; these are disjoint.
var wireSentinels = append([]error{ErrShed, ErrUnknownCommand, ErrFrameTooLarge, errNoSession}, wire.MergeRefusals...)

var errNoSession = errors.New("gaas: no session enclave (send user-hello first)")

// remoteError maps an error frame's body back onto the typed sentinels:
// the error unwraps to ErrRemote and, when the frame text leads with one,
// to the matching wire sentinel — errors.Is(err, ErrShed) works on both
// sides of the connection. Its text is ErrRemote's, then the frame's.
func remoteError(body []byte) error {
	msg := string(body)
	for _, s := range wireSentinels {
		if rest, ok := strings.CutPrefix(msg, s.Error()); ok {
			return fmt.Errorf("%w: %w%s", ErrRemote, s, rest)
		}
	}
	return fmt.Errorf("%w: %s", ErrRemote, msg)
}
