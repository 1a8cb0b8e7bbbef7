package cost

import (
	"math/rand"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
	"sunstone/internal/workloads"
)

// pinnedModel is the default model with ifmap and ofmap resident at level
// lvl — the shape of the model the fused network scheduler builds for a
// middle member of a fusion group.
func pinnedModel(lvl int) Model {
	m := Default
	m.Resident = &Residency{Pins: []Pin{
		{Tensor: arch.Ofmap, Level: lvl},
		{Tensor: arch.Ifmap, Level: lvl},
	}}
	return m
}

// dramMapping is the trivial everything-at-DRAM mapping: all loops at the top
// level, size-1 tiles below. Valid on any arch whose levels hold a one-element
// tile per tensor.
func dramMapping(w *tensor.Workload, a *arch.Arch) *mapping.Mapping {
	m := mapping.New(w, a)
	top := len(a.Levels) - 1
	for d, n := range w.Dims {
		m.Levels[top].Temporal[d] = n
	}
	return m
}

// TestResidencyZeroDRAMTraffic: pinning a tensor at the outermost on-chip
// level removes every one of its DRAM accesses (the defining property of
// fused execution) and strictly lowers energy; unpinned tensors keep theirs.
func TestResidencyZeroDRAMTraffic(t *testing.T) {
	w := workloads.ResNet18[1].Inference(1)
	a := arch.Conventional() // L1(0), L2(1), DRAM(2)
	m := dramMapping(w, a)

	base := Default.Evaluate(m)
	if !base.Valid {
		t.Fatal("baseline mapping invalid")
	}
	if base.TotalAccesses("DRAM") == 0 {
		t.Fatal("baseline has no DRAM traffic; fixture is broken")
	}

	res := pinnedModel(1).Evaluate(m)
	if !res.Valid {
		t.Fatal("resident mapping invalid")
	}
	for key, acc := range res.Accesses {
		if (acc.Reads != 0 || acc.Writes != 0) &&
			(key == "DRAM/DRAM/"+arch.Ifmap || key == "DRAM/DRAM/"+arch.Ofmap) {
			t.Errorf("pinned tensor still touches DRAM: %s = %+v", key, acc)
		}
	}
	if got := res.TotalAccesses("DRAM/DRAM/" + arch.Weight); got != base.TotalAccesses("DRAM/DRAM/"+arch.Weight) {
		t.Errorf("unpinned weight DRAM traffic changed: %d", got)
	}
	if res.EnergyPJ >= base.EnergyPJ {
		t.Errorf("residency did not lower energy: %v >= %v", res.EnergyPJ, base.EnergyPJ)
	}
}

// TestResidencyBelowInnermostKeeper: a pin below the tensor's innermost
// keeper degrades to that keeper — the flow chain keeps exactly one level
// and the model stays well-defined.
func TestResidencyBelowInnermostKeeper(t *testing.T) {
	w := workloads.ResNet18[1].Inference(1)
	a := arch.Simba() // weight's innermost keeper is the PE register (level 0)
	mo := Default
	mo.Resident = &Residency{Pins: []Pin{{Tensor: arch.Weight, Level: -1}}}
	flows := mo.Flows(dramMapping(w, a), w.Tensor(arch.Weight))
	if len(flows) != 1 || flows[0].Child != -1 {
		t.Fatalf("expected only the datapath flow, got %d flows", len(flows))
	}
}

// TestResidencyFastSlowParity: under the fused scheduler's two-pin residency
// model the evaluator still reproduces the reference model bit-for-bit on
// randomized valid and invalid mappings (see checkEquivalence).
func TestResidencyFastSlowParity(t *testing.T) {
	w := workloads.ResNet18[1].Inference(4)
	for _, tc := range []struct {
		name string
		a    *arch.Arch
		lvl  int
	}{
		{"conventional", arch.Conventional(), 1},
		{"simba", arch.Simba(), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model := pinnedModel(tc.lvl)
			ev := model.NewSession(w, tc.a).NewEvaluator()
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 150; i++ {
				checkEquivalence(t, model, ev, randomMappingOn(w, tc.a, rng))
			}
		})
	}
}

// TestResidencyLowerBoundAdmissible: the precomputed lower bound of a
// resident Session never exceeds the true cost of any valid mapping — the
// truncated flow plans feed buildLowerBound, so group-level bound pruning in
// the fusion search stays sound.
func TestResidencyLowerBoundAdmissible(t *testing.T) {
	w := workloads.ResNet18[1].Inference(1)
	a := arch.Conventional()
	model := pinnedModel(1)
	s := model.NewSession(w, a)
	lbE, lbC := s.LowerBound(0)
	ev := s.NewEvaluator()
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for i := 0; i < 400 && checked < 50; i++ {
		m := randomMappingOn(w, a, rng)
		_, en, cy, valid := ev.EvaluateEDP(m)
		if !valid {
			continue
		}
		checked++
		if lbE > en || lbC > cy {
			t.Fatalf("bound not admissible: lb=(%v pJ, %v cyc) > actual=(%v, %v)", lbE, lbC, en, cy)
		}
	}
	if checked == 0 {
		t.Skip("no valid random mapping sampled")
	}
}

// TestCanonicalPins: deterministic sort order, defensive copy, nil safety.
func TestCanonicalPins(t *testing.T) {
	var nilR *Residency
	if got := nilR.CanonicalPins(); got != nil {
		t.Fatalf("nil residency: got %v", got)
	}
	r := &Residency{Pins: []Pin{{"ofmap", 2}, {"ifmap", 2}, {"ofmap", 1}}}
	got := r.CanonicalPins()
	want := []Pin{{"ifmap", 2}, {"ofmap", 1}, {"ofmap", 2}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("canonical order: got %v, want %v", got, want)
		}
	}
	if &got[0] == &r.Pins[0] {
		t.Fatal("CanonicalPins must copy")
	}
}
