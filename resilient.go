package sunstone

import (
	"sunstone/internal/core"
	"sunstone/internal/faults"
)

// Graceful degradation: re-exports of the Options.Retry path (see
// internal/core/resilient.go and DESIGN.md "Fault tolerance & graceful
// degradation").

type (
	// RetryPolicy is Options.Retry: primary retries at halved budgets, then
	// the innermost-fit fallback, under an attempt cap. The zero value is the
	// default policy: two primary retries, then innermost-fit, at most 32
	// attempts.
	RetryPolicy = core.RetryPolicy
	// Attempt is one recorded try of the resilient path (Result.Attempts).
	Attempt = core.Attempt
	// InjectedFault is the error produced by a deterministic chaos fault
	// (internal/faults); CauseOf classifies errors carrying one as
	// CauseInjected.
	InjectedFault = faults.InjectedError
)
