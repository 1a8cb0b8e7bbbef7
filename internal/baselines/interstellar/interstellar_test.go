package interstellar

import (
	"context"
	"strings"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/workloads"
)

func TestFindsValidMapping(t *testing.T) {
	w := workloads.ResNet18[2].Inference(16)
	res := New().MapContext(context.Background(), w, arch.Conventional())
	if !res.Valid {
		t.Fatalf("expected valid mapping: %s", res.InvalidReason)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatalf("returned mapping illegal: %v", err)
	}
}

func TestPrefersCKUnrolling(t *testing.T) {
	// With C=64 and K=128 covering the 1024-PE grid, only C and K may be
	// unrolled (no fallback needed).
	w := workloads.Conv2D("c", 16, 128, 64, 28, 28, 3, 3, 1, 1)
	res := New().MapContext(context.Background(), w, arch.Conventional())
	if !res.Valid {
		t.Fatalf("expected valid mapping: %s", res.InvalidReason)
	}
	lm := res.Mapping.Levels[1] // the spatial (L2) level
	for d, f := range lm.Spatial {
		if f > 1 && d != "C" && d != "K" {
			t.Errorf("preset violated: %s unrolled by %d", d, f)
		}
	}
}

func TestFallbackWhenCKCannotFill(t *testing.T) {
	// C=3, K=8: CK covers at most 24 of 1024 PEs; the fallback must engage
	// and other dims appear in the unrolling.
	w := workloads.Conv2D("stem", 16, 8, 3, 56, 56, 3, 3, 1, 1)
	res := New().MapContext(context.Background(), w, arch.Conventional())
	if !res.Valid {
		t.Fatalf("fallback should produce a mapping: %s", res.InvalidReason)
	}
	other := false
	for d, f := range res.Mapping.Levels[1].Spatial {
		if f > 1 && d != "C" && d != "K" {
			other = true
		}
	}
	if !other {
		t.Error("fallback did not unroll non-CK dimensions despite CK underutilization")
	}
}

func TestRejectsWorkloadWithoutCK(t *testing.T) {
	w := workloads.MTTKRP("m", 64, 32, 32, 32)
	res := New().MapContext(context.Background(), w, arch.Conventional())
	if res.Valid {
		t.Fatal("MTTKRP has no C/K dims; the preset cannot apply")
	}
	if !strings.Contains(res.InvalidReason, "preset") {
		t.Errorf("reason = %q", res.InvalidReason)
	}
}

func TestRejectsMultiSpatialArch(t *testing.T) {
	w := workloads.ResNet18[2].Inference(16)
	res := New().MapContext(context.Background(), w, arch.Simba())
	if res.Valid {
		t.Fatal("Interstellar does not support multi-spatial-level architectures")
	}
}

func TestName(t *testing.T) {
	if New().Name() != "INTER" {
		t.Error("name")
	}
}
