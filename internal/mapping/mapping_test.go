package mapping

import (
	"strings"
	"testing"
	"testing/quick"

	"sunstone/internal/arch"
	"sunstone/internal/tensor"
)

func conv1D(t testing.TB, k, c, p, r int) *tensor.Workload {
	t.Helper()
	w, err := tensor.New("conv1d",
		map[tensor.Dim]int{"K": k, "C": c, "P": p, "R": r},
		&tensor.Tensor{Name: arch.Ifmap, Axes: []tensor.Axis{tensor.Win("P", 1, "R", 1), tensor.A("C")}},
		&tensor.Tensor{Name: arch.Weight, Axes: []tensor.Axis{tensor.A("K"), tensor.A("C"), tensor.A("R")}},
		&tensor.Tensor{Name: arch.Ofmap, Axes: []tensor.Axis{tensor.A("K"), tensor.A("P")}, Output: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// paperMapping builds Algorithm 4 of the paper on the Tiny two-level arch:
// L1 tile (P_L1, K_L1, C_L1, R), DRAM loops (P_L2, K_L2, C_L2) with order
// C innermost, then K, then P.
func paperMapping(t testing.TB, l1Words int) *Mapping {
	t.Helper()
	w := conv1D(t, 4, 4, 14, 3)
	a := arch.Tiny(l1Words)
	m := New(w, a)
	m.Levels[0].Temporal = map[tensor.Dim]int{"P": 7, "K": 2, "C": 2, "R": 3}
	m.Levels[1].Temporal = map[tensor.Dim]int{"P": 2, "K": 2, "C": 2}
	m.Levels[1].Order = []tensor.Dim{"C", "K", "P"} // innermost-first
	return m
}

func TestExtents(t *testing.T) {
	m := paperMapping(t, 4096)
	if got := m.Extent("P", 0); got != 7 {
		t.Errorf("P extent at L1 = %d, want 7", got)
	}
	if got := m.Extent("P", 1); got != 14 {
		t.Errorf("P extent at DRAM = %d, want 14", got)
	}
	if got := m.Extent("R", 1); got != 3 {
		t.Errorf("R extent at DRAM = %d, want 3", got)
	}
}

func TestCoverageAndPaddedMACs(t *testing.T) {
	m := paperMapping(t, 4096)
	for _, d := range []tensor.Dim{"K", "C", "P", "R"} {
		if m.Coverage(d) != m.Workload.Dims[d] {
			t.Errorf("coverage of %s = %d, want %d", d, m.Coverage(d), m.Workload.Dims[d])
		}
	}
	if got := m.PaddedMACs(); got != int64(4*4*14*3) {
		t.Errorf("PaddedMACs = %d, want %d", got, 4*4*14*3)
	}
}

func TestValidateOK(t *testing.T) {
	// L1 tile: ifmap (7+3-1)*2=18, weight 2*2*3=12, ofmap 7*2=14 -> 44 words.
	m := paperMapping(t, 44)
	if err := m.Validate(); err != nil {
		t.Fatalf("mapping should be valid: %v", err)
	}
}

func TestValidateCapacityOverflow(t *testing.T) {
	m := paperMapping(t, 43) // one word short
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("want capacity error, got %v", err)
	}
}

func TestValidateCoverage(t *testing.T) {
	m := paperMapping(t, 4096)
	m.Levels[1].Temporal["P"] = 1 // now P covered only 7 < 14
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "coverage") {
		t.Fatalf("want coverage error, got %v", err)
	}
}

func TestValidateFanout(t *testing.T) {
	w := conv1D(t, 8, 8, 16, 3)
	a := arch.TinySpatial(64, 4096, 4)
	m := New(w, a)
	for _, d := range []tensor.Dim{"K", "C", "P", "R"} {
		m.Levels[2].Temporal[d] = w.Dims[d]
	}
	m.Levels[1].Spatial = map[tensor.Dim]int{"K": 8} // fanout is 4
	m.Levels[2].Temporal["K"] = 1
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "fanout") {
		t.Fatalf("want fanout error, got %v", err)
	}
}

func TestValidateSpatialReduction(t *testing.T) {
	w := conv1D(t, 8, 8, 16, 3)
	a := arch.TinySpatial(64, 4096, 4)
	a.Levels[1].AllowSpatialReduction = false
	m := New(w, a)
	for _, d := range []tensor.Dim{"K", "C", "P", "R"} {
		m.Levels[2].Temporal[d] = w.Dims[d]
	}
	m.Levels[1].Spatial = map[tensor.Dim]int{"C": 4} // C is a reduction dim
	m.Levels[2].Temporal["C"] = 2
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "partial sums") {
		t.Fatalf("want spatial-reduction error, got %v", err)
	}
}

func TestValidateNonPositiveFactors(t *testing.T) {
	m := paperMapping(t, 4096)
	m.Levels[0].Temporal["K"] = 0
	if err := m.Validate(); err == nil {
		t.Fatal("want error for zero temporal factor")
	}
	m = paperMapping(t, 4096)
	m.Levels[1].Spatial["K"] = -2
	if err := m.Validate(); err == nil {
		t.Fatal("want error for negative spatial factor")
	}
}

// TestValidateStrayDimension: a factor above 1 on a dimension the workload
// does not declare is rejected — the spatial one would claim fanout and widen
// multicasts for a loop that does not exist — while a factor of 1 there is
// legal and invisible.
func TestValidateStrayDimension(t *testing.T) {
	for kind, factors := range map[string]func(*LevelMapping) map[tensor.Dim]int{
		"temporal": func(lm *LevelMapping) map[tensor.Dim]int { return lm.Temporal },
		"spatial":  func(lm *LevelMapping) map[tensor.Dim]int { return lm.Spatial },
	} {
		w := conv1D(t, 8, 8, 16, 3)
		m := New(w, arch.TinySpatial(64, 4096, 4)) // level 1 has fanout for the stray unroll
		for d, n := range w.Dims {
			m.Levels[2].Temporal[d] = n
		}
		factors(&m.Levels[1])["Z"] = 1
		if err := m.Validate(); err != nil {
			t.Errorf("%s factor 1 on an undeclared dimension: %v", kind, err)
		}
		factors(&m.Levels[1])["Z"] = 2
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), "no such dimension") || !strings.Contains(err.Error(), kind) {
			t.Errorf("%s factor 2 on an undeclared dimension: got %v", kind, err)
		}
	}
}

func TestEffectiveOrder(t *testing.T) {
	m := paperMapping(t, 4096)
	order := m.EffectiveOrder(1)
	if len(order) != 4 {
		t.Fatalf("effective order %v should list all 4 dims", order)
	}
	if order[0] != "C" || order[1] != "K" || order[2] != "P" {
		t.Errorf("explicit prefix wrong: %v", order)
	}
	if order[3] != "R" {
		t.Errorf("missing dim should be appended: %v", order)
	}
	// Duplicates and undeclared dims in Order are ignored.
	m.Levels[1].Order = []tensor.Dim{"C", "C", "Z", "K"}
	order = m.EffectiveOrder(1)
	if len(order) != 4 || order[0] != "C" || order[1] != "K" {
		t.Errorf("order with noise = %v", order)
	}
}

func TestUtilization(t *testing.T) {
	m := paperMapping(t, 88) // tile uses 44 words of 88
	u := m.Utilization(0, 0)
	if u < 0.49 || u > 0.51 {
		t.Errorf("L1 utilization = %f, want 0.5", u)
	}
	if m.Utilization(1, 0) != 0 {
		t.Error("unbounded buffer utilization should be 0")
	}
}

func TestPEUtilization(t *testing.T) {
	w := conv1D(t, 8, 8, 16, 3)
	a := arch.TinySpatial(64, 4096, 4)
	m := New(w, a)
	m.Levels[1].Spatial = map[tensor.Dim]int{"K": 2}
	if got := m.PEUtilization(); got != 0.5 {
		t.Errorf("PE utilization = %f, want 0.5", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := paperMapping(t, 4096)
	c := m.Clone()
	c.Levels[0].Temporal["K"] = 99
	c.Levels[1].Order[0] = "P"
	if m.Levels[0].Temporal["K"] == 99 || m.Levels[1].Order[0] == "P" {
		t.Error("Clone must be deep")
	}
}

func TestStringRendersLoops(t *testing.T) {
	m := paperMapping(t, 4096)
	s := m.String()
	for _, want := range []string{"DRAM:", "L1:", "P7", "C2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestExtentMultiplicativeProperty(t *testing.T) {
	w := conv1D(t, 8, 8, 16, 4)
	a := arch.TinySpatial(1024, 65536, 4)
	f := func(t0, t1, t2, s1 uint8) bool {
		m := New(w, a)
		m.Levels[0].Temporal["K"] = int(t0%4) + 1
		m.Levels[1].Temporal["K"] = int(t1%4) + 1
		m.Levels[2].Temporal["K"] = int(t2%4) + 1
		m.Levels[1].Spatial["K"] = int(s1%2) + 1
		want := (int(t0%4) + 1) * (int(t1%4) + 1) * (int(t2%4) + 1) * (int(s1%2) + 1)
		return m.Coverage("K") == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFootprintBits(t *testing.T) {
	m := paperMapping(t, 4096)
	// ofmap tile at L1: 7*2 = 14 elements * 16 bits.
	ofm := m.Workload.Tensor(arch.Ofmap)
	if got := m.FootprintBits(ofm, 0); got != 14*16 {
		t.Errorf("FootprintBits = %d, want %d", got, 14*16)
	}
}

func TestStringSpatialRendering(t *testing.T) {
	w := conv1D(t, 8, 8, 16, 3)
	a := arch.TinySpatial(1024, 1<<16, 8)
	m := New(w, a)
	m.Levels[1].Spatial = map[tensor.Dim]int{"K": 4, "C": 2}
	m.Levels[2].Temporal = map[tensor.Dim]int{"K": 2, "C": 4, "P": 16, "R": 3}
	s := m.String()
	if !strings.Contains(s, "[spatial: C2 K4]") {
		t.Errorf("spatial factors not rendered: %s", s)
	}
}
