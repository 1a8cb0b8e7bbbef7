package marvel

import (
	"context"
	"strings"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/core"
	"sunstone/internal/workloads"
)

func TestFindsValidMapping(t *testing.T) {
	w := workloads.ResNet18[2].Inference(4)
	res := New().MapContext(context.Background(), w, arch.Conventional())
	if !res.Valid {
		t.Fatalf("expected valid mapping: %s", res.InvalidReason)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatalf("returned mapping illegal: %v", err)
	}
	if res.Evaluated <= 0 {
		t.Error("no candidates examined")
	}
}

func TestDecouplingCostsQuality(t *testing.T) {
	// The decoupled search must be in Sunstone's ballpark but is allowed
	// (and expected, on some layers) to lose: committing to DRAM bounds
	// before the on-chip step is a structural handicap.
	w := workloads.ResNet18[1].Inference(4)
	a := arch.Conventional()
	mv := New().MapContext(context.Background(), w, a)
	if !mv.Valid {
		t.Fatalf("marvel invalid: %s", mv.InvalidReason)
	}
	sun, err := core.Solve(context.Background(), core.Problem{Workload: w, Arch: a}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := mv.Report.EDP / sun.Report.EDP
	if ratio < 0.95 {
		t.Errorf("Marvel (%.3e) materially beats Sunstone (%.3e)", mv.Report.EDP, sun.Report.EDP)
	}
	if ratio > 50 {
		t.Errorf("Marvel EDP %.1fx Sunstone — decoupling should not be catastrophic", ratio)
	}
	t.Logf("Marvel/Sunstone EDP = %.2fx (%d candidates)", ratio, mv.Evaluated)
}

func TestRejectsMultiSpatial(t *testing.T) {
	w := workloads.ResNet18[2].Inference(4)
	res := New().MapContext(context.Background(), w, arch.Simba())
	if res.Valid || !strings.Contains(res.InvalidReason, "spatial levels") {
		t.Errorf("Marvel should reject Simba: %+v", res.InvalidReason)
	}
}

func TestWorksOnNonConv(t *testing.T) {
	w := workloads.MTTKRP("m", 64, 32, 32, 16)
	res := New().MapContext(context.Background(), w, arch.Conventional())
	if !res.Valid {
		t.Fatalf("Marvel should handle MTTKRP-shaped workloads: %s", res.InvalidReason)
	}
}

func TestName(t *testing.T) {
	if New().Name() != "Marvel" {
		t.Error("name")
	}
}
