package sunstone

import (
	"context"

	"sunstone/internal/baselines"
	"sunstone/internal/baselines/registry"
	"sunstone/internal/core"
	"sunstone/internal/faults"
)

// Graceful degradation: re-exports of the resilient optimization path (see
// internal/core/resilient.go and DESIGN.md "Fault tolerance & graceful
// degradation").

type (
	// RetryPolicy configures OptimizeResilient: primary retries with budget
	// backoff, the fallback-mapper chain, and the attempt cap. The zero
	// value selects DefaultRetryPolicy.
	RetryPolicy = core.RetryPolicy
	// Attempt is one recorded try of the resilient path (Result.Attempts).
	Attempt = core.Attempt
	// InjectedFault is the error produced by a deterministic chaos fault
	// (internal/faults); CauseOf classifies errors carrying one as
	// CauseInjected.
	InjectedFault = faults.InjectedError
)

// DefaultRetryPolicy returns the default graceful-degradation policy: two
// primary retries at half budgets each, then the
// timeloop-random-lite -> innermost-fit fallback chain, at most 32 attempts.
func DefaultRetryPolicy() RetryPolicy { return core.DefaultRetryPolicy() }

// OptimizeResilient is Optimize hardened for environments where searches can
// fail: bounded primary retries with budget backoff, then pol's fallback-
// mapper chain (ending, by default, in the guaranteed-feasible innermost-fit
// construction), with every accepted result passing a final mapping audit —
// structural validation, an uncached cost-model evaluation, and a bit-exact
// cross-check of the memoized one against it. Attempts are recorded in
// Result.Attempts; Result.FallbackUsed names the fallback that produced the
// mapping ("" means the primary search). The error is non-nil only when
// every attempt failed. It runs on a transient Engine; hold an Engine to reuse compiled
// artifacts across calls.
func OptimizeResilient(ctx context.Context, w *Workload, a *Arch, opt Options, pol RetryPolicy) (Result, error) {
	return NewEngine().OptimizeResilient(ctx, w, a, opt, pol)
}

// OptimizeResilient runs the graceful-degradation search through the
// Engine's compilation cache; see the package-level OptimizeResilient.
func (e *Engine) OptimizeResilient(ctx context.Context, w *Workload, a *Arch, opt Options, pol RetryPolicy) (Result, error) {
	return e.core.OptimizeResilient(ctx, w, a, opt, pol)
}

// Open the whole baseline registry — comparison mappers and the degraded-
// mode fallbacks — as RetryPolicy.Fallbacks candidates. The core package
// only knows its built-in chain (its mapper dependencies must stay acyclic
// with the baseline packages' tests); this root package sees everything.
func init() {
	core.RegisterFallbackResolver(func(name string) (baselines.Mapper, bool) {
		ent, ok := registry.Lookup(name)
		if !ok {
			return nil, false
		}
		return ent.New(), true
	})
}
