package dmaze

import (
	"context"
	"strings"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/workloads"
)

func TestFindsValidMappingOnConventional(t *testing.T) {
	w := workloads.ResNet18[2].Inference(16) // conv3_1, symmetric
	res := New(Fast()).MapContext(context.Background(), w, arch.Conventional())
	if !res.Valid {
		t.Fatalf("expected valid mapping: %s", res.InvalidReason)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatalf("returned mapping illegal: %v", err)
	}
	// Fast config enforces >= 80% L1 utilization.
	if u := res.Mapping.Utilization(0, 0); u < 0.8 {
		t.Errorf("L1 utilization %.2f below the configured threshold", u)
	}
}

func TestRejectsAsymmetricConvolution(t *testing.T) {
	w := workloads.InceptionV3[6].Inference(16) // 1x7_deep
	res := New(Fast()).MapContext(context.Background(), w, arch.Conventional())
	if res.Valid {
		t.Fatal("asymmetric convolution must be rejected")
	}
	if !strings.Contains(res.InvalidReason, "asymmetric") {
		t.Errorf("reason = %q", res.InvalidReason)
	}
}

func TestRejectsMultiSpatialArch(t *testing.T) {
	w := workloads.ResNet18[2].Inference(16)
	res := New(Fast()).MapContext(context.Background(), w, arch.Simba())
	if res.Valid {
		t.Fatal("Simba-like architectures are not supported by dMazeRunner")
	}
	if !strings.Contains(res.InvalidReason, "spatial levels") {
		t.Errorf("reason = %q", res.InvalidReason)
	}
}

func TestUtilizationThresholdFailure(t *testing.T) {
	// A tiny layer whose entire footprint is far below 80% of L1: no tile
	// can meet the threshold (the Fig. 7 failure on light early layers).
	w := workloads.Conv2D("tiny", 1, 2, 2, 2, 2, 1, 1, 1, 1)
	res := New(Fast()).MapContext(context.Background(), w, arch.Conventional())
	if res.Valid {
		t.Fatal("threshold should be unsatisfiable on a tiny layer")
	}
	if !strings.Contains(res.InvalidReason, "utilization") {
		t.Errorf("reason = %q", res.InvalidReason)
	}
}

func TestSlowConfigMoreForgiving(t *testing.T) {
	f, s := Fast(), Slow()
	if s.L1Util >= f.L1Util || s.L2Util >= f.L2Util {
		t.Error("slow config must have lower thresholds (Table V)")
	}
	if f.AllowSpatialReduction || !s.AllowSpatialReduction {
		t.Error("Table V: fast forbids spatial reduction, slow allows it")
	}
}

func TestName(t *testing.T) {
	if New(Fast()).Name() != "dMaze-fast" || New(Slow()).Name() != "dMaze-slow" {
		t.Error("names")
	}
}
