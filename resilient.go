package sunstone

import (
	"sunstone/internal/core"
	"sunstone/internal/faults"
)

// Graceful degradation: re-exports of the Options.Retry path (see
// internal/core/resilient.go and DESIGN.md "Fault tolerance & graceful
// degradation").

type (
	// RetryPolicy is Options.Retry: primary retries with budget backoff,
	// then the innermost-fit fallback, under an attempt cap. The zero value
	// selects DefaultRetryPolicy.
	RetryPolicy = core.RetryPolicy
	// Attempt is one recorded try of the resilient path (Result.Attempts).
	Attempt = core.Attempt
	// InjectedFault is the error produced by a deterministic chaos fault
	// (internal/faults); CauseOf classifies errors carrying one as
	// CauseInjected.
	InjectedFault = faults.InjectedError
)

// DefaultRetryPolicy returns the default graceful-degradation policy: two
// primary retries at half budgets each, then the innermost-fit fallback, at
// most 32 attempts.
func DefaultRetryPolicy() RetryPolicy { return core.DefaultRetryPolicy() }
