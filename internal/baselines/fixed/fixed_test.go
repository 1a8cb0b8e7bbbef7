package fixed

import (
	"context"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/core"
	"sunstone/internal/workloads"
)

func TestAllStylesProduceValidMappings(t *testing.T) {
	w := workloads.ResNet18[2].Inference(4)
	a := arch.Conventional()
	for _, s := range []Style{WeightStationary, OutputStationary, InputStationary} {
		res := New(s).MapContext(context.Background(), w, a)
		if !res.Valid {
			t.Errorf("%s: %s", s, res.InvalidReason)
			continue
		}
		if err := res.Mapping.Validate(); err != nil {
			t.Errorf("%s: illegal mapping: %v", s, err)
		}
		if res.Evaluated != 1 {
			t.Errorf("%s: fixed dataflows do not search (%d evals)", s, res.Evaluated)
		}
	}
}

func TestStationaryOperandIsResident(t *testing.T) {
	// Output-stationary: the reduction dims (non-indexing for the output)
	// must be the innermost loops at every level above L1.
	w := workloads.ResNet18[2].Inference(4)
	res := New(OutputStationary).MapContext(context.Background(), w, arch.Conventional())
	if !res.Valid {
		t.Fatal(res.InvalidReason)
	}
	order := res.Mapping.EffectiveOrder(len(res.Mapping.Levels) - 1)
	redSet := map[string]bool{"C": true, "R": true, "S": true}
	for i := 0; i < 3; i++ {
		if !redSet[string(order[i])] {
			t.Errorf("output-stationary order %v should start with reduction dims", order)
		}
	}
}

// TestSearchedBeatsFixed reproduces the motivation of the paper's intro: a
// searched mapping beats every fixed dataflow, often by a large factor (the
// Timeloop paper's 19x energy spread across dataflows).
func TestSearchedBeatsFixed(t *testing.T) {
	w := workloads.ResNet18[1].Inference(4)
	a := arch.Conventional()
	sun, err := core.Solve(context.Background(), core.Problem{Workload: w, Arch: a}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	worst := 1.0
	for _, s := range []Style{WeightStationary, OutputStationary, InputStationary} {
		res := New(s).MapContext(context.Background(), w, a)
		if !res.Valid {
			continue
		}
		ratio := res.Report.EDP / sun.Report.EDP
		if ratio < 0.999 {
			t.Errorf("%s beats the searched mapping (%.2fx)", s, ratio)
		}
		if ratio > worst {
			worst = ratio
		}
		t.Logf("%s: %.2fx Sunstone", s, ratio)
	}
	if worst < 1.2 {
		t.Errorf("fixed dataflows all within %.2fx of optimal — dataflow choice should matter", worst)
	}
}

func TestGenericWorkloadFallbacks(t *testing.T) {
	// Non-conv workloads have no "weight"/"ifmap" roles; the styles fall
	// back to structural choices and still work.
	w := workloads.MTTKRP("m", 64, 32, 32, 16)
	for _, s := range []Style{WeightStationary, OutputStationary, InputStationary} {
		res := New(s).MapContext(context.Background(), w, arch.Conventional())
		if !res.Valid {
			t.Errorf("%s on MTTKRP: %s", s, res.InvalidReason)
		}
	}
}

func TestRejectsMultiSpatial(t *testing.T) {
	w := workloads.ResNet18[2].Inference(4)
	if res := New(WeightStationary).MapContext(context.Background(), w, arch.Simba()); res.Valid {
		t.Error("fixed dataflows are single-spatial-level")
	}
}

func TestStyleNames(t *testing.T) {
	if WeightStationary.String() != "weight-stationary" ||
		OutputStationary.String() != "output-stationary" ||
		InputStationary.String() != "input-stationary" {
		t.Error("style names")
	}
}
