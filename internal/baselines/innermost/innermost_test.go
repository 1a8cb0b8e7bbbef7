package innermost

import (
	"context"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/faults"
	"sunstone/internal/tensor"
	"sunstone/internal/workloads"
)

func conv(t *testing.T, name string) *tensor.Workload {
	t.Helper()
	for _, s := range workloads.ResNet18 {
		if s.Name == name {
			return s.Inference(1)
		}
	}
	t.Fatalf("no ResNet-18 shape %q", name)
	return nil
}

// TestAlwaysValid: across architectures and shapes, the mapper must return a
// mapping that passes full structural validation — the guarantee the
// resilient fallback chain is built on.
func TestAlwaysValid(t *testing.T) {
	m := New()
	archs := map[string]*arch.Arch{
		"tiny":         arch.Tiny(256),
		"tiny-spatial": arch.TinySpatial(256, 4096, 4),
		"simba":        arch.Simba(),
		"conventional": arch.Conventional(),
	}
	for an, a := range archs {
		for _, ln := range []string{"conv1", "conv2_x", "conv5_x"} {
			w := conv(t, ln)
			res := m.MapContext(context.Background(), w, a)
			if res.Mapping == nil {
				t.Fatalf("%s/%s: no mapping", an, ln)
			}
			if err := res.Mapping.Validate(); err != nil {
				t.Errorf("%s/%s: invalid mapping: %v", an, ln, err)
			}
			if !res.Valid {
				t.Errorf("%s/%s: scored invalid: %s", an, ln, res.InvalidReason)
			}
		}
	}
}

// TestGrowthBeatsTrivial: the greedy factor descent must improve on the
// everything-at-top starting point (whose EDP is dominated by streaming all
// tensors from the top level every iteration).
func TestGrowthBeatsTrivial(t *testing.T) {
	w := conv(t, "conv2_x")
	a := arch.Tiny(256)
	grown := New().MapContext(context.Background(), w, a)
	if grown.Mapping == nil || !grown.Valid {
		t.Fatal("mapper failed on a clean stack")
	}
	triv := trivial(w, a)
	if err := triv.Validate(); err != nil {
		t.Fatalf("trivial completion invalid: %v", err)
	}
	sess := New().Model.NewSession(w, a)
	_, _, _, ok := sess.NewEvaluator().EvaluateEDP(triv)
	if !ok {
		t.Fatal("trivial completion must evaluate valid")
	}
	tedp, _, _, _ := sess.NewEvaluator().EvaluateEDP(triv)
	if grown.Report.EDP >= tedp {
		t.Errorf("growth did not improve: grown EDP %g >= trivial %g", grown.Report.EDP, tedp)
	}
}

// TestIgnoresCancellationAndDeadFaults: with a canceled context AND a 100%
// evaluation panic the mapper still returns a structurally valid mapping —
// degraded to unscored, never absent.
func TestIgnoresCancellationAndDeadFaults(t *testing.T) {
	inj, err := faults.NewInjector(1,
		faults.Rule{Site: faults.SiteEvaluate, Kind: faults.Panic, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Activate(inj)
	defer restore()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := New().MapContext(ctx, conv(t, "conv1"), arch.Tiny(256))
	if res.Mapping == nil {
		t.Fatal("guaranteed mapper returned no mapping")
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatalf("guaranteed mapping invalid: %v", err)
	}
	if res.Valid {
		t.Error("scoring with a dead cost model cannot be Valid")
	}
	if len(res.Errors) == 0 {
		t.Error("the contained scoring panic should be reported")
	}
}
