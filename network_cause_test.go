package sunstone_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"sunstone"
	"sunstone/internal/faults"
)

// TestLayerCauseClassificationEndToEnd drives every FailureCause through the
// public API: real per-layer network schedules whose layers fail for each of
// the five classified reasons, asserted via CauseOf on the per-layer errors.
//
//   - injected: a deterministic compile fault (internal/faults) fails the
//     layer's problem compilation;
//   - panic: a poisoned cost model panics on every evaluation of the layer,
//     contained per candidate as an *anytime.PanicError;
//   - deadline: every evaluation is poisoned (so no valid mapping can ever
//     complete) and a nanosecond timeout expires first;
//   - sibling-cancel: a tiny poisoned layer fails fast and cancels a larger
//     sibling that was held back until then (failFastModel), so it cannot
//     have completed anything;
//   - search: an L1 too small for any tile — the search runs to its natural
//     end with no feasible candidate, and no fault, panic or signal in the
//     error chain.
func TestLayerCauseClassificationEndToEnd(t *testing.T) {
	tiny := sunstone.ConvShape{Name: "tiny", K: 1, C: 1, P: 1, Q: 1, R: 1, S: 1, StrideH: 1, StrideW: 1}
	mid := sunstone.ConvShape{Name: "mid", K: 8, C: 8, P: 7, Q: 7, R: 3, S: 3, StrideH: 1, StrideW: 1}
	big := sunstone.ConvShape{Name: "big", K: 960, C: 720, P: 210, Q: 210, R: 7, S: 7, StrideH: 1, StrideW: 1}

	cases := []struct {
		name   string
		spec   string // fault spec armed for the run ("" = none)
		shapes []sunstone.ConvShape
		opt    sunstone.Options
		l1     int    // Tiny's L1 words (0 = 256)
		layer  string // the layer whose cause is asserted
		want   sunstone.FailureCause
	}{
		{
			name: "injected", spec: "compile:error:1,seed=1",
			shapes: []sunstone.ConvShape{tiny}, layer: "tiny", want: sunstone.CauseInjected,
		},
		{
			name:   "panic",
			shapes: []sunstone.ConvShape{mid},
			opt:    poisonedOptions("mid"),
			layer:  "mid", want: sunstone.CausePanic,
		},
		{
			name: "deadline", spec: "evaluate:panic:1,seed=1",
			shapes: []sunstone.ConvShape{mid},
			opt:    sunstone.Options{Timeout: time.Nanosecond},
			layer:  "mid", want: sunstone.CauseDeadline,
		},
		{
			// The tiny layer's poisoned search fails (cause: panic) and the
			// fail-fast policy cancels the big sibling mid-search.
			name:   "sibling-cancel",
			shapes: []sunstone.ConvShape{tiny, big},
			opt:    sunstone.Options{Model: failFastModel("tiny", "big")},
			layer:  "big", want: sunstone.CauseSiblingCancel,
		},
		{
			name:   "search",
			shapes: []sunstone.ConvShape{mid}, l1: 2,
			layer: "mid", want: sunstone.CauseSearch,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.spec != "" {
				inj, err := faults.ParseSpec(tc.spec)
				if err != nil {
					t.Fatalf("ParseSpec(%q): %v", tc.spec, err)
				}
				defer faults.Activate(inj)()
			}
			a := sunstone.Tiny(256)
			if tc.l1 > 0 {
				a = sunstone.Tiny(tc.l1)
			}
			sched, err := scheduleShapes(context.Background(), tc.name, tc.shapes, nil, a, tc.opt, perLayer)
			if err == nil {
				t.Fatalf("schedule succeeded; wanted layer %q to fail with cause %q", tc.layer, tc.want)
			}
			var found bool
			for _, l := range sched.Layers {
				if l.Layer != tc.layer {
					continue
				}
				found = true
				if l.Err == nil {
					t.Fatalf("layer %q has no error (schedule error: %v)", tc.layer, err)
				}
				if got := sunstone.CauseOf(l.Err); got != tc.want {
					t.Errorf("layer %q: CauseOf = %q, want %q (err: %v)", tc.layer, got, tc.want, l.Err)
				}
				var le *sunstone.LayerError
				if !errors.As(l.Err, &le) {
					t.Errorf("layer %q error is not a *LayerError: %v", tc.layer, l.Err)
				}
			}
			if !found {
				t.Fatalf("layer %q missing from schedule", tc.layer)
			}
		})
	}
}

// TestCauseOf covers the public accessor: nil has no cause, a LayerError's
// recorded cause is authoritative even deep in a joined chain, and bare
// errors fall back to direct classification.
func TestCauseOf(t *testing.T) {
	if got := sunstone.CauseOf(nil); got != "" {
		t.Errorf("CauseOf(nil) = %q", got)
	}
	le := &sunstone.LayerError{Layer: "conv1", Cause: sunstone.CauseDeadline, Err: context.DeadlineExceeded}
	if got := sunstone.CauseOf(fmt.Errorf("schedule: %w", le)); got != sunstone.CauseDeadline {
		t.Errorf("wrapped LayerError: CauseOf = %q, want %q", got, sunstone.CauseDeadline)
	}
	if got := sunstone.CauseOf(errors.Join(errors.New("other"), le)); got != sunstone.CauseDeadline {
		t.Errorf("joined LayerError: CauseOf = %q, want %q", got, sunstone.CauseDeadline)
	}
	inj := &faults.InjectedError{Site: faults.SiteExpand, Kind: faults.Panic, Seq: 3}
	if got := sunstone.CauseOf(fmt.Errorf("bare: %w", inj)); got != sunstone.CauseInjected {
		t.Errorf("bare injected: CauseOf = %q, want %q", got, sunstone.CauseInjected)
	}
	if got := sunstone.CauseOf(errors.New("anything else")); got != sunstone.CauseSearch {
		t.Errorf("bare error: CauseOf = %q, want %q", got, sunstone.CauseSearch)
	}
}

// TestLayerErrorRendering pins the log format ("<layer>: [<cause>] <err>",
// keeping the layer prefix older tooling greps for) and Unwrap.
func TestLayerErrorRendering(t *testing.T) {
	base := errors.New("boom")
	le := &sunstone.LayerError{Layer: "conv2_x", Cause: sunstone.CausePanic, Err: base}
	if got, want := le.Error(), "conv2_x: [panic] boom"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	if !errors.Is(le, base) {
		t.Error("LayerError must unwrap to the underlying failure")
	}
}
