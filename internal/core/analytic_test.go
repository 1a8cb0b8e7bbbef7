package core

import (
	"context"
	"testing"

	"sunstone/internal/arch"
)

// TestAnalyticalOffDeterministic: with the analytical layer explicitly off,
// repeated runs are bit-identical — Study.NoAnalytical restores the
// pre-analytic search exactly.
func TestAnalyticalOffDeterministic(t *testing.T) {
	w := conv2D(t, 4, 64, 64, 28, 28, 3, 3)
	opt := Options{Study: &Study{NoAnalytical: true}}
	first, err := solve(w, arch.Simba(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := solve(w, arch.Simba(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.EDP != first.Report.EDP || res.Mapping.String() != first.Mapping.String() {
			t.Fatalf("run %d diverged: EDP %g vs %g", i, res.Report.EDP, first.Report.EDP)
		}
		if res.Stats.Evaluated != first.Stats.Evaluated {
			t.Fatalf("run %d evaluated %d vs %d", i, res.Stats.Evaluated, first.Stats.Evaluated)
		}
	}
}

// TestAnalyticalOnEqualOrBetter: the analytical layer must never worsen the
// found mapping, and on the headline Simba conv it must evaluate at least 30%
// fewer candidates — the PR's acceptance bar.
func TestAnalyticalOnEqualOrBetter(t *testing.T) {
	w := conv2D(t, 4, 64, 64, 28, 28, 3, 3)
	off, err := solve(w, arch.Simba(), Options{Study: &Study{NoAnalytical: true}})
	if err != nil {
		t.Fatal(err)
	}
	on, err := solve(w, arch.Simba(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if on.Report.EDP > off.Report.EDP {
		t.Errorf("analytical layer worsened EDP: %g vs %g", on.Report.EDP, off.Report.EDP)
	}
	if on.SeedEDP <= 0 {
		t.Errorf("seeded run reports no SeedEDP")
	}
	if on.SeedEDP < on.Report.EDP {
		t.Errorf("seed EDP %g below the final mapping's %g — seed should never beat the search", on.SeedEDP, on.Report.EDP)
	}
	evOn, evOff := on.Stats.Evaluated, off.Stats.Evaluated
	if evOn*10 > evOff*7 {
		t.Errorf("analytical layer evaluated %d of %d candidates; want at least a 30%% reduction", evOn, evOff)
	}
}

// TestAnalyticalDefaultsOn: the zero Options and DefaultOptions agree — both
// are the product search, which runs the analytical layer — and the defaults
// report a seed EDP.
func TestAnalyticalDefaultsOn(t *testing.T) {
	if def := DefaultOptions(); def.Study != nil {
		t.Fatalf("DefaultOptions.Study = %+v, want nil (the product search)", def.Study)
	}
	w := conv1D(t, 16, 16, 28, 3)
	res, err := solve(w, arch.Tiny(256), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SeedEDP <= 0 {
		t.Errorf("zero Options ran without the seed (SeedEDP = %g)", res.SeedEDP)
	}
}

// TestAnalyticalSeedEDPParity: seed on/off must land on the same final EDP
// across the preset architectures — tighter pruning may skip work, never
// quality.
func TestAnalyticalSeedEDPParity(t *testing.T) {
	w := conv2D(t, 1, 16, 16, 14, 14, 3, 3)
	for _, tc := range []struct {
		name string
		a    func() *arch.Arch
	}{
		{"conventional", arch.Conventional},
		{"simba", arch.Simba},
		{"diannao", arch.DianNao},
	} {
		t.Run(tc.name, func(t *testing.T) {
			off, err := solve(w, tc.a(), Options{Study: &Study{NoAnalytical: true}})
			if err != nil {
				t.Fatal(err)
			}
			on, err := solve(w, tc.a(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if on.Report.EDP > off.Report.EDP {
				t.Errorf("EDP regressed with analytics on: %g vs %g", on.Report.EDP, off.Report.EDP)
			}
		})
	}
}

// TestSolveProblemAPI: the Engine's cache is keyed by Problem content, not
// identity, and an empty Problem fails validation.
func TestSolveProblemAPI(t *testing.T) {
	w := conv1D(t, 16, 16, 28, 3)
	a := arch.Tiny(256)
	eng := NewEngine(0)
	for range 2 {
		if _, err := eng.Solve(context.Background(), Problem{Workload: w, Arch: a}, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.Stats(); st.Compiles != 1 || st.Hits != 1 {
		t.Errorf("two solves of one Problem content: %d compiles, %d hits, want 1 and 1", st.Compiles, st.Hits)
	}
	if _, err := Solve(context.Background(), Problem{}, Options{}); err == nil {
		t.Error("empty Problem must fail validation")
	}
}
