package sunstone_test

import (
	"context"
	"fmt"
	"testing"

	"sunstone"
	"sunstone/internal/faults"
)

// chaosNet returns two very small conv shapes so a single chaos run is cheap
// enough to repeat hundreds of times.
func chaosNet() []sunstone.ConvShape {
	return []sunstone.ConvShape{
		{Name: "a", K: 4, C: 4, P: 7, Q: 7, R: 3, S: 3, StrideH: 1, StrideW: 1},
		{Name: "b", K: 8, C: 4, P: 4, Q: 4, R: 1, S: 1, StrideH: 1, StrideW: 1},
	}
}

// auditLayer re-checks the resilient guarantee on one mapped layer with
// injection already disarmed: the mapping is structurally valid, the full
// cost model scores it valid, the fast path agrees bit-exactly, and the
// attempt record is coherent with FallbackUsed.
func auditLayer(t *testing.T, run int, l sunstone.LayerSchedule) {
	t.Helper()
	res := l.Result
	if res.Mapping == nil {
		t.Fatalf("run %d layer %s: no mapping", run, l.Layer)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatalf("run %d layer %s: structurally invalid mapping: %v", run, l.Layer, err)
	}
	full := sunstone.Evaluate(res.Mapping)
	if !full.Valid {
		t.Fatalf("run %d layer %s: full evaluation rejects the audited mapping: %v",
			run, l.Layer, full.Invalid)
	}
	edp, energy, cycles, ok := sunstone.EvaluateEDP(res.Mapping)
	if !ok || edp != full.EDP || energy != full.EnergyPJ || cycles != full.Cycles {
		t.Fatalf("run %d layer %s: fast path (%g/%g/%g ok=%v) disagrees with full evaluation (%g/%g/%g)",
			run, l.Layer, edp, energy, cycles, ok, full.EDP, full.EnergyPJ, full.Cycles)
	}
	if len(res.Attempts) == 0 {
		t.Fatalf("run %d layer %s: resilient result recorded no attempts", run, l.Layer)
	}
	last := res.Attempts[len(res.Attempts)-1]
	if last.Err != nil {
		t.Fatalf("run %d layer %s: accepted attempt carries an error: %v", run, l.Layer, last.Err)
	}
	want := res.FallbackUsed
	if want == "" {
		want = "sunstone"
	}
	if last.Mapper != want {
		t.Fatalf("run %d layer %s: accepted attempt mapper %q does not match FallbackUsed %q",
			run, l.Layer, last.Mapper, res.FallbackUsed)
	}
	for _, at := range res.Attempts[:len(res.Attempts)-1] {
		if at.Err == nil {
			t.Fatalf("run %d layer %s: non-final attempt %q recorded no error but was not accepted",
				run, l.Layer, at.Mapper)
		}
	}
}

// TestChaosGuarantee is the headline graceful-degradation property: under a
// 30% uniform fault rate across every injection site (compile errors and
// panics, expansion panics, evaluation panics and latency, memo-read
// corruption, progress-callback panics), every layer of every seeded
// per-layer network schedule still comes back with an audit-passing mapping
// and a coherent attempt record. The injector is seeded per run, so a failure
// reproduces by its run number.
func TestChaosGuarantee(t *testing.T) {
	runs := 200
	if testing.Short() {
		runs = 25
	}
	shapes := chaosNet()
	a := sunstone.Tiny(256)
	opt := sunstone.Options{BeamWidth: 4, TilesPerStep: 4, UnrollsPerStep: 3, Threads: 2,
		Retry: &sunstone.RetryPolicy{}}

	var fellBack, retried int
	for run := 0; run < runs; run++ {
		restore := faults.Activate(faults.NewUniform(int64(run), 0.3))
		sched, err := scheduleShapes(context.Background(),
			fmt.Sprintf("chaos-%d", run), shapes, nil, a, opt, perLayer)
		restore() // disarm before re-auditing, so the checks themselves are clean
		if err != nil {
			t.Fatalf("run %d: schedule failed under 30%% injection: %v", run, err)
		}
		if sched.Failed != 0 {
			t.Fatalf("run %d: %d layers failed under the resilient path", run, sched.Failed)
		}
		for _, l := range sched.Layers {
			if l.Err != nil {
				t.Fatalf("run %d layer %s: %v", run, l.Layer, l.Err)
			}
			auditLayer(t, run, l)
			if l.Result.FallbackUsed != "" {
				fellBack++
			}
			if len(l.Result.Attempts) > 1 {
				retried++
			}
		}
		if sched.TotalEnergyPJ <= 0 || sched.TotalCycles <= 0 || sched.EDP <= 0 {
			t.Fatalf("run %d: degenerate network totals: %+v", run, sched)
		}
	}
	// At a 30% rate the chaos must actually bite: some runs have to retry.
	// (Fallbacks may or may not trigger depending on seeds; retries must.)
	if retried == 0 {
		t.Error("no layer ever needed more than one attempt — injection did not engage")
	}
	t.Logf("chaos: %d runs x %d layers, %d retried, %d fell back", runs, len(shapes), retried, fellBack)
}

// TestChaosDeterministic: the same injector seed must reproduce the same
// attempt shape for a single-layer schedule run serially — the property that
// makes chaos failures debuggable by seed. Everything in this configuration
// is single-threaded (Threads:1 search, the innermost-fit fallback), so no
// fault ordinals interleave.
func TestChaosDeterministic(t *testing.T) {
	shapes := chaosNet()[:1]
	a := sunstone.Tiny(256)
	opt := sunstone.Options{BeamWidth: 4, TilesPerStep: 4, UnrollsPerStep: 3, Threads: 1,
		Retry: &sunstone.RetryPolicy{}}
	shape := func(seed int64) string {
		restore := faults.Activate(faults.NewUniform(seed, 0.3))
		defer restore()
		sched, err := scheduleShapes(context.Background(), "det", shapes, nil, a, opt, perLayer)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res := sched.Layers[0].Result
		s := fmt.Sprintf("fallback=%q attempts=%d", res.FallbackUsed, len(res.Attempts))
		for _, at := range res.Attempts {
			s += fmt.Sprintf(" %s(err=%v)", at.Mapper, at.Err != nil)
		}
		return s
	}
	for seed := int64(0); seed < 4; seed++ {
		first := shape(seed)
		if again := shape(seed); again != first {
			t.Errorf("seed %d not deterministic:\n  first: %s\n  again: %s", seed, first, again)
		}
	}
}
