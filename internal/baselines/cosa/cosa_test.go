package cosa

import (
	"context"
	"testing"
	"time"

	"sunstone/internal/arch"
	"sunstone/internal/workloads"
)

func TestOneShotAndFast(t *testing.T) {
	w := workloads.ResNet18[2].Inference(16)
	res := New().MapContext(context.Background(), w, arch.Simba())
	// One factor allocation, a constant handful of permutation variants
	// (the MIP's permutation variables) — no search.
	if res.Evaluated > 20 {
		t.Errorf("CoSA must stay one-shot; evaluated %d", res.Evaluated)
	}
	if res.Elapsed > time.Second {
		t.Errorf("CoSA should be nearly instantaneous, took %v", res.Elapsed)
	}
	if res.Mapping == nil {
		t.Fatal("CoSA always returns a mapping (possibly invalid)")
	}
}

func TestInvalidMappingsOnSimba(t *testing.T) {
	// Section V-B3: most CoSA mappings on the Simba-like machine are
	// invalid because the linear relaxation drops capacity non-linearities.
	invalid := 0
	for _, cs := range workloads.ResNet18 {
		res := New().MapContext(context.Background(), cs.Inference(16), arch.Simba())
		if !res.Valid {
			invalid++
			if res.InvalidReason == "" {
				t.Errorf("%s: invalid without reason", cs.Name)
			}
		}
	}
	if invalid == 0 {
		t.Error("expected at least some invalid mappings on Simba (the paper reports most)")
	}
	t.Logf("CoSA invalid on %d/%d ResNet-18 layers", invalid, len(workloads.ResNet18))
}

func TestValidOnGenerousArch(t *testing.T) {
	// With a roomy single-level memory the relaxation artifacts cannot
	// overflow anything.
	w := workloads.Conv1D("c", 8, 8, 28, 3)
	res := New().MapContext(context.Background(), w, arch.Tiny(1<<20))
	if !res.Valid {
		t.Fatalf("expected valid mapping on a huge L1: %s", res.InvalidReason)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCoverageAlwaysComplete(t *testing.T) {
	// Even when invalid (capacity), the mapping must cover the problem —
	// CoSA's invalidity is tile overflow, not missing loops.
	for _, cs := range workloads.ResNet18[:4] {
		w := cs.Inference(16)
		res := New().MapContext(context.Background(), w, arch.Simba())
		for d, bound := range w.Dims {
			if res.Mapping.Coverage(d) < bound {
				t.Errorf("%s: dim %s coverage %d < %d", cs.Name, d, res.Mapping.Coverage(d), bound)
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	w := workloads.ResNet18[1].Inference(16)
	r1 := New().MapContext(context.Background(), w, arch.Simba())
	r2 := New().MapContext(context.Background(), w, arch.Simba())
	if r1.Mapping.String() != r2.Mapping.String() {
		t.Error("CoSA must be deterministic")
	}
}

func TestName(t *testing.T) {
	if New().Name() != "CoSA" {
		t.Error("name")
	}
}
