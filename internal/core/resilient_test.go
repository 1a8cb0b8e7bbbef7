package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"sunstone/internal/anytime"
	"sunstone/internal/arch"
	"sunstone/internal/faults"
)

// mustInjector builds an injector or fails the test.
func mustInjector(t *testing.T, seed int64, rules ...faults.Rule) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(seed, rules...)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestResilientMatchesPlain is the no-fault identity: with injection
// disabled, Solve with Retry set accepts the primary search's first attempt
// and everything but the attempt record is bit-identical to the Retry-nil
// solve of the same problem on a fresh Engine.
func TestResilientMatchesPlain(t *testing.T) {
	p := Problem{Workload: conv1D(t, 8, 8, 56, 3), Arch: arch.Tiny(256)}

	plain, err := NewEngine(0).Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(0).Solve(context.Background(), p, Options{Retry: &RetryPolicy{}})
	if err != nil {
		t.Fatal(err)
	}

	if res.Mapping.String() != plain.Mapping.String() {
		t.Errorf("resilient mapping differs:\nplain:\n%s\nresilient:\n%s", plain.Mapping, res.Mapping)
	}
	if !reflect.DeepEqual(res.Report, plain.Report) {
		t.Errorf("resilient report differs: %+v vs %+v", res.Report, plain.Report)
	}
	if res.Stats != plain.Stats {
		t.Errorf("resilient counters differ: %+v vs %+v", res.Stats, plain.Stats)
	}
	if res.Stopped != plain.Stopped || res.SpaceSize != plain.SpaceSize {
		t.Errorf("resilient run shape differs: stopped %v/%v, space %d/%d",
			res.Stopped, plain.Stopped, res.SpaceSize, plain.SpaceSize)
	}
	if plain.Attempts != nil {
		t.Errorf("plain solve recorded attempts: %+v", plain.Attempts)
	}
	if res.FallbackUsed != "" {
		t.Errorf("FallbackUsed = %q on a clean run", res.FallbackUsed)
	}
	if len(res.Attempts) != 1 || res.Attempts[0].Mapper != "sunstone" || res.Attempts[0].Err != nil {
		t.Errorf("Attempts = %+v, want one clean sunstone attempt", res.Attempts)
	}
}

// TestSolveValidatesBeforeRetrying: bad inputs are rejected once, up front,
// with the same error whether or not Retry is set — the retry loop never
// runs on them.
func TestSolveValidatesBeforeRetrying(t *testing.T) {
	w, a := conv1D(t, 4, 4, 8, 3), arch.Tiny(256)
	badW := conv1D(t, 4, 4, 8, 3)
	badW.Dims["K"] = 0
	for _, tc := range []struct {
		name string
		p    Problem
		opt  Options
	}{
		{"nil workload", Problem{Arch: a}, Options{}},
		{"nil arch", Problem{Workload: w}, Options{}},
		{"invalid options", Problem{Workload: w, Arch: a}, Options{BeamWidth: -1}},
		{"invalid workload", Problem{Workload: badW, Arch: a}, Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, plainErr := Solve(context.Background(), tc.p, tc.opt)
			tc.opt.Retry = &RetryPolicy{}
			res, err := Solve(context.Background(), tc.p, tc.opt)
			if plainErr == nil || err == nil || err.Error() != plainErr.Error() {
				t.Errorf("errors differ: plain %v, with Retry %v", plainErr, err)
			}
			if res.Attempts != nil {
				t.Errorf("rejected input recorded attempts: %+v", res.Attempts)
			}
		})
	}
}

// TestResilientFallsBackOnCompileFaults forces every compile to fail: all
// primary attempts reject with the injected error and the fallback
// (innermost-fit, which builds its own session when the Engine's compile
// fails) produces the accepted, audited mapping.
func TestResilientFallsBackOnCompileFaults(t *testing.T) {
	restore := faults.Activate(mustInjector(t, 1,
		faults.Rule{Site: faults.SiteCompile, Kind: faults.Error, Rate: 1}))
	defer restore()

	w := conv1D(t, 8, 8, 56, 3)
	a := arch.Tiny(256)
	res, err := NewEngine(0).Solve(context.Background(), Problem{Workload: w, Arch: a}, Options{Retry: &RetryPolicy{}})
	if err != nil {
		t.Fatalf("resilient run must survive compile faults: %v", err)
	}
	if res.FallbackUsed != "innermost-fit" {
		t.Errorf("FallbackUsed = %q, want innermost-fit", res.FallbackUsed)
	}
	if len(res.Attempts) != 4 { // 3 failed primaries + 1 accepted fallback
		t.Errorf("Attempts = %d, want 4: %+v", len(res.Attempts), res.Attempts)
	}
	for i, at := range res.Attempts[:len(res.Attempts)-1] {
		if at.Mapper != "sunstone" {
			t.Errorf("attempt %d: mapper %q, want sunstone", i, at.Mapper)
		}
		var inj *faults.InjectedError
		if !errors.As(at.Err, &inj) || inj.Site != faults.SiteCompile {
			t.Errorf("attempt %d: error %v is not the injected compile fault", i, at.Err)
		}
	}
	if last := res.Attempts[len(res.Attempts)-1]; last.Err != nil || last.Mapper != res.FallbackUsed {
		t.Errorf("accepted attempt = %+v", last)
	}
	if res.Mapping == nil || res.Mapping.Validate() != nil || !res.Report.Valid {
		t.Fatalf("fallback result is not an audited valid mapping: %+v", res.Report)
	}
}

// TestResilientExhaustsWhenEvaluationIsDead arms a 100% evaluation panic:
// no mapper can produce an audit-passing result (the audit's own evaluation
// always dies), so the run must exhaust its attempt budget and report every
// attempt, not hang or crash.
func TestResilientExhaustsWhenEvaluationIsDead(t *testing.T) {
	restore := faults.Activate(mustInjector(t, 1,
		faults.Rule{Site: faults.SiteEvaluate, Kind: faults.Panic, Rate: 1}))
	defer restore()

	w := conv1D(t, 4, 4, 8, 3)
	a := arch.Tiny(256)
	pol := RetryPolicy{Retries: -1, MaxAttempts: 4}
	res, err := NewEngine(0).Solve(context.Background(), Problem{Workload: w, Arch: a}, Options{Retry: &pol})
	if err == nil {
		t.Fatal("a dead cost model cannot yield an audited mapping")
	}
	if len(res.Attempts) != 4 {
		t.Errorf("Attempts = %d, want the MaxAttempts cap 4: %+v", len(res.Attempts), res.Attempts)
	}
	for i, at := range res.Attempts {
		if at.Err == nil {
			t.Errorf("attempt %d recorded no error on an exhausted run", i)
		}
	}
	if res.FallbackUsed != "" || res.Mapping != nil {
		t.Errorf("exhausted run must not claim a result: fallback %q, mapping %v", res.FallbackUsed, res.Mapping)
	}
}

// TestResilientAuditCatchesMemoCorruption arms 100% cache-get corruption:
// every memo hit returns perturbed scalars, so the audit's memoized
// evaluation must disagree with its uncached recompute on any mapping that
// was scored before (every candidate the search or a fallback touched) and
// reject it.
func TestResilientAuditCatchesMemoCorruption(t *testing.T) {
	restore := faults.Activate(mustInjector(t, 1,
		faults.Rule{Site: faults.SiteCacheGet, Kind: faults.Corrupt, Rate: 1}))
	defer restore()

	w := conv1D(t, 4, 4, 8, 3)
	a := arch.Tiny(256)
	pol := RetryPolicy{Retries: -1, MaxAttempts: 3}
	res, err := NewEngine(0).Solve(context.Background(), Problem{Workload: w, Arch: a}, Options{Retry: &pol})
	if err == nil {
		t.Fatal("permanently corrupted memo reads must fail the audit")
	}
	if !strings.Contains(err.Error(), "disagrees with a recompute") {
		t.Errorf("error should carry the cross-check diagnosis: %v", err)
	}
	if len(res.Attempts) != 3 {
		t.Errorf("Attempts = %d, want 3", len(res.Attempts))
	}
}

// TestResilientSurvivesExpansionPanics arms a 100% expansion fault: the
// primary search dies by panic on every attempt (contained to the attempt),
// and the fallback still delivers an audited mapping.
func TestResilientSurvivesExpansionPanics(t *testing.T) {
	restore := faults.Activate(mustInjector(t, 1,
		faults.Rule{Site: faults.SiteExpand, Kind: faults.Panic, Rate: 1}))
	defer restore()

	w := conv1D(t, 8, 8, 56, 3)
	a := arch.Tiny(256)
	res, err := NewEngine(0).Solve(context.Background(), Problem{Workload: w, Arch: a}, Options{Retry: &RetryPolicy{}})
	if err != nil {
		t.Fatalf("resilient run must survive expansion panics: %v", err)
	}
	if res.FallbackUsed == "" {
		t.Error("a dead primary search must be served by a fallback")
	}
	for _, at := range res.Attempts {
		if at.Mapper != "sunstone" {
			continue
		}
		var pe *anytime.PanicError
		if !errors.As(at.Err, &pe) {
			t.Errorf("primary attempt error %v should be a contained panic", at.Err)
		}
	}
	if res.Mapping == nil || res.Mapping.Validate() != nil {
		t.Fatal("fallback mapping missing or invalid")
	}
}

// TestResilientFallbackIsInnermostFit: innermost-fit is the one fallback and
// takes every attempt the primaries leave, so a policy whose MaxAttempts ends
// with the primaries has none — and either way an exhausted run reports each
// attempt instead of panicking.
func TestResilientFallbackIsInnermostFit(t *testing.T) {
	restore := faults.Activate(mustInjector(t, 1,
		faults.Rule{Site: faults.SiteEvaluate, Kind: faults.Panic, Rate: 1}))
	defer restore()

	p := Problem{Workload: conv1D(t, 4, 4, 8, 3), Arch: arch.Tiny(256)}
	for _, tc := range []struct {
		pol  RetryPolicy
		want []string
	}{
		{RetryPolicy{Retries: 1, MaxAttempts: 4}, []string{"sunstone", "sunstone", "innermost-fit", "innermost-fit"}},
		{RetryPolicy{Retries: 1, MaxAttempts: 2}, []string{"sunstone", "sunstone"}},
	} {
		pol := tc.pol
		res, err := NewEngine(0).Solve(context.Background(), p, Options{Retry: &pol})
		if err == nil || !strings.Contains(err.Error(), "exhausted") {
			t.Fatalf("%+v: want an exhausted run, got %v", tc.pol, err)
		}
		var got []string
		for _, at := range res.Attempts {
			got = append(got, at.Mapper)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%+v: attempts by mapper = %v, want %v", tc.pol, got, tc.want)
		}
	}
}

// TestShrinkOptions pins the backoff arithmetic: halved budgets, floor 1.
func TestShrinkOptions(t *testing.T) {
	o := shrinkOptions(Options{BeamWidth: 24, TilesPerStep: 8, UnrollsPerStep: 1}, 0.5)
	if o.BeamWidth != 12 || o.TilesPerStep != 4 || o.UnrollsPerStep != 1 {
		t.Errorf("shrunk options = %+v", o)
	}
}
