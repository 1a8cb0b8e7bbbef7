package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sunstone/internal/anytime"
	"sunstone/internal/baselines/innermost"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
	"sunstone/internal/obs"
)

// This file implements the graceful-degradation path: bounded retries of the
// primary search with shrinking budgets, then the guaranteed-feasible
// innermost-fit construction, and a final mapping audit that no result —
// primary or fallback — escapes without passing.

// RetryPolicy is Options.Retry: how Solve degrades when a search fails. The
// zero value selects the defaults (DefaultRetryPolicy); negative Retries
// disables primary retries.
type RetryPolicy struct {
	// Retries is how many times the primary Sunstone search is retried after
	// its first failed attempt, each retry with backoff-shrunk (halved)
	// budgets (0 = default 2; negative = no retries).
	Retries int
	// MaxAttempts caps the total attempts — primaries, retries and fallbacks
	// together — as the hard stop of the whole resilient run (0 = default
	// 32). Every attempt the primaries leave goes to innermost-fit, the one
	// fallback; MaxAttempts = 1+Retries leaves it none.
	MaxAttempts int
}

// DefaultRetryPolicy returns the default graceful-degradation policy, spelled
// out. The zero RetryPolicy is equivalent.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Retries: 2, MaxAttempts: 32}
}

// backoff multiplies BeamWidth, TilesPerStep and UnrollsPerStep on every
// primary retry (floor 1 each), so a search that failed by deadline or
// injected fault re-runs cheaper and faster.
const backoff = 0.5

// withDefaults fills every zero field from DefaultRetryPolicy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.Retries == 0 {
		p.Retries = def.Retries
	} else if p.Retries < 0 {
		p.Retries = 0
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	return p
}

// Attempt is one recorded try of the resilient path.
type Attempt struct {
	// Mapper is "sunstone" for primary attempts, "innermost-fit" for the
	// fallback.
	Mapper string
	// Stopped is the attempt's anytime stop reason.
	Stopped StopReason
	// Err is why the attempt was rejected — a search failure, a contained
	// panic, or an audit failure. Nil on the accepted (final) attempt.
	Err     error
	Elapsed time.Duration
}

// primaryName is the Attempt.Mapper value for the Sunstone search itself.
const primaryName = "sunstone"

// solveResilient is Solve with Options.Retry set: the search hardened for
// environments where it can fail — injected chaos faults, poisoned cost
// models, expired deadlines, panicking dependencies. p and opt arrive
// validated and defaulted. It never gives up while the policy has attempts
// left:
//
//  1. the primary Sunstone search runs, then up to Retries retries with
//     backoff-shrunk budgets;
//  2. innermost-fit runs until MaxAttempts; it cannot fail on any
//     workload/arch pair that admits a legal mapping, so what it repeats
//     against is a transient failure — an injected fault, a corrupted memo
//     read — in its scoring or in the audit;
//  3. every candidate result passes the final mapping audit — structural
//     validation, an uncached cost-model evaluation, and a bit-exact
//     cross-check of the memoized one against it — before it is returned;
//     an audit failure is a failed attempt like any other.
//
// Every attempt is recorded in Result.Attempts (accepted attempt last, nil
// Err); Result.FallbackUsed is "innermost-fit" when the fallback produced
// the mapping ("" = primary). A panic anywhere in an attempt is contained to
// that attempt. The error return is non-nil only when every attempt failed.
func (e *Engine) solveResilient(ctx context.Context, p Problem, opt Options) (Result, error) {
	pol := opt.Retry.withDefaults()
	opt.Retry = nil // each attempt is one plain search
	ctx, span := obs.StartSpanf(ctx, "resilient %s", p.Workload.Name)

	var attempts []Attempt
	var errs []error
	// try runs one attempt and audits what it produced; ok reports whether
	// the result was accepted, and a rejected attempt is recorded.
	try := func(mapper string, run func() (Result, error)) (res Result, ok bool) {
		start := time.Now()
		res, err := run()
		acc := Attempt{Mapper: mapper, Stopped: res.Stopped, Elapsed: time.Since(start)}
		if err == nil {
			res.Report, err = e.audit(p, res.Mapping)
		}
		if err != nil {
			acc.Err = err
			attempts = append(attempts, acc)
			errs = append(errs, fmt.Errorf("attempt %d (%s): %w", len(attempts), mapper, err))
			return Result{}, false
		}
		res.Attempts = append(attempts, acc)
		if mapper != primaryName {
			res.FallbackUsed = mapper
		}
		span.Arg("attempts", len(res.Attempts)).Arg("fallback", res.FallbackUsed).End()
		return res, true
	}

	// Phase 1: the primary search, with budget backoff between retries.
	curOpt := opt
	for n := 0; n <= pol.Retries && len(attempts) < pol.MaxAttempts; n++ {
		if res, ok := try(primaryName, func() (Result, error) { return e.attemptPrimary(ctx, p, curOpt) }); ok {
			return res, nil
		}
		if ctx.Err() != nil {
			break // canceled callers get the fallback, not more full searches
		}
		curOpt = shrinkOptions(curOpt, backoff)
	}

	// Phase 2: innermost-fit until MaxAttempts, scoring on the problem's own
	// compiled session — the one the audit reads.
	fb := innermost.New()
	fb.Model, fb.Sessions = p.Model, e
	for len(attempts) < pol.MaxAttempts {
		if res, ok := try(fb.Name(), func() (Result, error) { return e.attemptFallback(ctx, p, fb) }); ok {
			return res, nil
		}
	}

	span.Arg("attempts", len(attempts)).Arg("fallback", "exhausted").End()
	return Result{Attempts: attempts, Stopped: anytime.FromContext(ctx)},
		fmt.Errorf("resilient optimization exhausted %d attempts: %w", len(attempts), errors.Join(errs...))
}

// attemptPrimary runs one primary search with panic containment: an injected
// expansion fault (or any other panic escaping the search driver) becomes a
// failed attempt instead of crashing the caller.
func (e *Engine) attemptPrimary(ctx context.Context, p Problem, opt Options) (res Result, err error) {
	defer func() {
		if pe := anytime.PanicErrorFrom(recover(), "resilient primary search", nil); pe != nil {
			res, err = Result{Stopped: anytime.FromContext(ctx)}, pe
		}
	}()
	res, err = e.search(ctx, p, opt)
	if err == nil && res.Mapping == nil {
		err = errors.New("search returned no mapping")
	}
	return res, err
}

// attemptFallback runs innermost-fit once, with panic containment. Its
// mapping is offered to the audit even when flagged invalid: the flag may be
// a contained scoring panic, and the audit's own evaluation is the authority
// on acceptance.
func (e *Engine) attemptFallback(ctx context.Context, p Problem, fb *innermost.Mapper) (res Result, err error) {
	defer func() {
		if pe := anytime.PanicErrorFrom(recover(), "fallback mapper "+fb.Name(), nil); pe != nil {
			res, err = Result{Stopped: anytime.FromContext(ctx)}, pe
		}
	}()
	bres := fb.MapContext(ctx, p.Workload, p.Arch)
	return Result{Mapping: bres.Mapping, Report: bres.Report, Stopped: bres.Stopped, SpaceSize: bres.Evaluated}, nil
}

// shrinkOptions applies one backoff step to the search budgets (floor 1), so
// each retry explores a smaller, faster space.
func shrinkOptions(o Options, f float64) Options {
	scale := func(v int) int {
		s := int(float64(v) * f)
		if s < 1 {
			s = 1
		}
		return s
	}
	o.BeamWidth = scale(o.BeamWidth)
	o.TilesPerStep = scale(o.TilesPerStep)
	o.UnrollsPerStep = scale(o.UnrollsPerStep)
	return o
}

// audit is the final gate every resilient result must pass:
//
//  1. structural legality — mapping.Validate covers factor coverage, buffer
//     capacity (the fit check), fanout and spatial-reduction legality;
//  2. an uncached evaluation must succeed and report Valid;
//  3. the memoized evaluation must agree with that recompute bit for bit on
//     EDP, energy and cycles — this is what catches a corrupted memo-cache
//     read (chaos site "cache-get").
//
// The audit's own Report becomes the result's Report, so the numbers a
// caller sees are exactly the audited ones. Any failure — including a panic
// inside the audit's evaluations — rejects the attempt and the retry loop
// moves on.
func (e *Engine) audit(p Problem, m *mapping.Mapping) (rep cost.Report, err error) {
	if m == nil {
		return cost.Report{}, errors.New("audit: no mapping produced")
	}
	if err := m.Validate(); err != nil {
		return cost.Report{}, fmt.Errorf("audit: mapping fails validation: %w", err)
	}
	sess := e.Session(p.Model, p.Workload, p.Arch)
	if sess == nil {
		// The Engine declined (an injected compile fault, say); a fresh
		// session has no chaos hook on construction and always works.
		sess = p.Model.NewSession(p.Workload, p.Arch)
	}
	ev := sess.NewEvaluator()
	defer func() {
		if pe := anytime.PanicErrorFrom(recover(), "audit evaluation", func() string { return reproMapping(m) }); pe != nil {
			rep, err = cost.Report{}, fmt.Errorf("audit: evaluation failed: %w", pe)
		}
	}()
	rep = ev.Report(m)
	if !rep.Valid {
		return cost.Report{}, fmt.Errorf("audit: mapping evaluates invalid: %v", rep.Invalid)
	}
	edp, energyPJ, cycles, valid := ev.EvaluateEDP(m)
	if !valid || edp != rep.EDP || energyPJ != rep.EnergyPJ || cycles != rep.Cycles {
		return cost.Report{}, fmt.Errorf(
			"audit: memoized evaluation (EDP %g, energy %g pJ, %g cycles, valid %v) disagrees with a recompute (EDP %g, energy %g pJ, %g cycles)",
			edp, energyPJ, cycles, valid, rep.EDP, rep.EnergyPJ, rep.Cycles)
	}
	return rep, nil
}
