package cost

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sunstone/internal/arch"
	"sunstone/internal/mapping"
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

// algorithm4 builds the 2-level tiled dataflow of Algorithm 4 in the paper:
// DRAM loops (outermost-to-innermost) P_L2, K_L2, C_L2 over an L1 tile of
// P_L1 x K_L1 x C_L1 x R, on the Tiny (L1 + DRAM) architecture.
func algorithm4(t testing.TB, k, c, p, r, kl1, cl1, pl1, l1Words int) *mapping.Mapping {
	t.Helper()
	w := conv1D(t, k, c, p, r)
	a := arch.Tiny(l1Words)
	m := mapping.New(w, a)
	m.Levels[0].Temporal = map[tensor.Dim]int{"P": pl1, "K": kl1, "C": cl1, "R": r}
	m.Levels[1].Temporal = map[tensor.Dim]int{"P": p / pl1, "K": k / kl1, "C": c / cl1}
	m.Levels[1].Order = []tensor.Dim{"C", "K", "P"} // C innermost (Algorithm 4)
	return m
}

func flowTo(t *testing.T, m *mapping.Mapping, name string, parent int) Flow {
	t.Helper()
	tn := m.Workload.Tensor(name)
	for _, f := range Default.Flows(m, tn) {
		if f.Parent == parent && f.Child >= 0 {
			return f
		}
	}
	t.Fatalf("no flow for %s with parent level %d", name, parent)
	return Flow{}
}

// TestPaperEquations1to3 checks the model against the paper's Section III-A
// access-count equations for Algorithm 4:
//
//	ifmap : K_L2 * C * P_L2 * (P_L1 + R - 1)   (Eq. 1)
//	weight: C * K * R * P_L2                   (Eq. 2)
//	ofmap : P * K                              (Eq. 3, C innermost => reuse)
func TestPaperEquations1to3(t *testing.T) {
	const K, C, P, R = 4, 4, 14, 3
	const KL1, CL1, PL1 = 2, 2, 7
	m := algorithm4(t, K, C, P, R, KL1, CL1, PL1, 4096)
	KL2, CL2, PL2 := K/KL1, C/CL1, P/PL1

	ifm := flowTo(t, m, arch.Ifmap, 1)
	want := int64(KL2 * C * PL2 * (PL1 + R - 1))
	if ifm.ParentReads != want {
		t.Errorf("Eq1: ifmap DRAM reads = %d, want %d", ifm.ParentReads, want)
	}

	wgt := flowTo(t, m, arch.Weight, 1)
	want = int64(C * K * R * PL2)
	if wgt.ParentReads != want {
		t.Errorf("Eq2: weight DRAM reads = %d, want %d", wgt.ParentReads, want)
	}

	ofm := flowTo(t, m, arch.Ofmap, 1)
	want = int64(P * K)
	if ofm.ParentWrites != want {
		t.Errorf("Eq3: ofmap DRAM writes = %d, want %d", ofm.ParentWrites, want)
	}
	if ofm.PsumReads != 0 {
		t.Errorf("Eq3: C innermost fully reuses ofmap; psum readback = %d, want 0", ofm.PsumReads)
	}
	_ = CL2
}

// TestOfmapReuseDestroyedByInnerK reproduces the Ordering Principle 2
// discussion: with K innermost at DRAM, ofmap is written back every C pass
// and partial sums must be read back.
func TestOfmapReuseDestroyedByInnerK(t *testing.T) {
	const K, C, P, R = 4, 4, 14, 3
	m := algorithm4(t, K, C, P, R, 2, 2, 7, 4096)
	m.Levels[1].Order = []tensor.Dim{"K", "C", "P"} // K innermost

	ofm := flowTo(t, m, arch.Ofmap, 1)
	// passes = K_L2*C_L2*P_L2 = 8, fp = 14 -> 112 writes; outIters = K_L2*P_L2
	// = 4 -> psum reads = (8-4)*14 = 56.
	if ofm.ParentWrites != 112 {
		t.Errorf("ofmap writes = %d, want 112", ofm.ParentWrites)
	}
	if ofm.PsumReads != 56 {
		t.Errorf("ofmap psum reads = %d, want 56", ofm.PsumReads)
	}
}

// TestPaperEquations5to7 checks the spatial-unrolling equations of Section
// III-B: unrolling P and K across PEs leaves each tensor's parent traffic a
// function only of its *indexing* spatially-unrolled dimensions; ifmap is
// multicast across K_spatial.
func TestPaperEquations5to7(t *testing.T) {
	const K, C, P, R = 8, 4, 28, 3
	const KL1, CL1, PL1 = 2, 2, 7
	const Ksp, Psp = 2, 2
	w := conv1D(t, K, C, P, R)
	a := arch.TinySpatial(4096, 1<<20, 4)
	m := mapping.New(w, a)
	m.Levels[0].Temporal = map[tensor.Dim]int{"P": PL1, "K": KL1, "C": CL1, "R": R}
	m.Levels[1].Spatial = map[tensor.Dim]int{"K": Ksp, "P": Psp}
	KL2, CL2, PL2 := K/(KL1*Ksp), C/CL1, P/(PL1*Psp)
	m.Levels[2].Temporal = map[tensor.Dim]int{"P": PL2, "K": KL2, "C": CL2}
	m.Levels[2].Order = []tensor.Dim{"C", "K", "P"}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}

	// Eq 5: ifmap L2 reads = K_L2*P_L2*C_L2 * (Psp*P_L1 + R - 1)*C_L1.
	ifm := flowTo(t, m, arch.Ifmap, 1)
	want := int64(KL2 * PL2 * CL2 * ((Psp*PL1 + R - 1) * CL1))
	if ifm.ParentReads != want {
		t.Errorf("Eq5: ifmap L2 reads = %d, want %d", ifm.ParentReads, want)
	}
	// Ifmap is multicast across K_spatial: fills into PEs exceed L2 reads.
	if ifm.ChildFills != ifm.ParentReads*Ksp {
		t.Errorf("ifmap child fills = %d, want %d (multicast x%d)",
			ifm.ChildFills, ifm.ParentReads*Ksp, Ksp)
	}

	// Eq 6: weight L2 reads = C*K*R*P_L2 (P_spatial does not index weight).
	wgt := flowTo(t, m, arch.Weight, 1)
	want = int64(C * K * R * PL2)
	if wgt.ParentReads != want {
		t.Errorf("Eq6: weight L2 reads = %d, want %d", wgt.ParentReads, want)
	}

	// Eq 7: ofmap L2 writes = P*K (C innermost reuses ofmap temporally).
	ofm := flowTo(t, m, arch.Ofmap, 1)
	want = int64(P * K)
	if ofm.ParentWrites != want {
		t.Errorf("Eq7: ofmap L2 writes = %d, want %d", ofm.ParentWrites, want)
	}
}

// TestTilingPrincipleMonotonicity verifies the Tiling Principle on the model:
// enlarging an indexing dimension of the reused operand (ofmap, with C
// innermost at DRAM) strictly reduces total upper-level accesses.
func TestTilingPrincipleMonotonicity(t *testing.T) {
	const K, C, P, R = 4, 4, 14, 3
	small := algorithm4(t, K, C, P, R, 2, 2, 7, 1<<20) // K_L1 = 2
	large := algorithm4(t, K, C, P, R, 4, 2, 7, 1<<20) // K_L1 = 4 (enlarged)
	sSmall := flowTo(t, small, arch.Ifmap, 1).ParentReads +
		flowTo(t, small, arch.Weight, 1).ParentReads +
		flowTo(t, small, arch.Ofmap, 1).ParentWrites
	sLarge := flowTo(t, large, arch.Ifmap, 1).ParentReads +
		flowTo(t, large, arch.Weight, 1).ParentReads +
		flowTo(t, large, arch.Ofmap, 1).ParentWrites
	if sLarge >= sSmall {
		t.Errorf("enlarging K_L1 should cut DRAM accesses: %d -> %d", sSmall, sLarge)
	}
}

func TestSlidingWindowDiscount(t *testing.T) {
	// With P innermost at DRAM and R inside the tile, consecutive P tiles
	// overlap by R-1 rows of ifmap; the sliding model must fetch less than
	// the naive model.
	const K, C, P, R = 4, 4, 16, 3
	m := algorithm4(t, K, C, P, R, 2, 2, 4, 1<<20)
	m.Levels[1].Order = []tensor.Dim{"P", "C", "K"}

	naive := Model{NoSlidingReuse: true}
	slide := Model{}
	tn := m.Workload.Tensor(arch.Ifmap)
	var rNaive, rSlide int64
	for _, f := range naive.Flows(m, tn) {
		if f.Child == 0 {
			rNaive = f.ParentReads
		}
	}
	for _, f := range slide.Flows(m, tn) {
		if f.Child == 0 {
			rSlide = f.ParentReads
		}
	}
	if rSlide >= rNaive {
		t.Errorf("sliding reuse should reduce ifmap reads: naive %d, sliding %d", rNaive, rSlide)
	}
	// The discount must never fetch less than the tensor's full size.
	full := int64(tn.Footprint(m.Workload.FullExtents()))
	if rSlide < full {
		t.Errorf("sliding reads %d below tensor size %d", rSlide, full)
	}
}

func TestEvaluateValidMapping(t *testing.T) {
	m := algorithm4(t, 4, 4, 14, 3, 2, 2, 7, 4096)
	r := Evaluate(m)
	if !r.Valid {
		t.Fatalf("mapping should be valid: %v", r.Invalid)
	}
	if r.EnergyPJ <= 0 || r.Cycles <= 0 || r.EDP <= 0 {
		t.Errorf("bad report: E=%f cycles=%f EDP=%f", r.EnergyPJ, r.Cycles, r.EDP)
	}
	if r.MACs != int64(4*4*14*3) {
		t.Errorf("MACs = %d", r.MACs)
	}
	// Breakdown must sum to total energy.
	var sum float64
	for _, e := range r.Breakdown {
		sum += e
	}
	if math.Abs(sum-r.EnergyPJ) > 1e-6*r.EnergyPJ {
		t.Errorf("breakdown sums to %f, total %f", sum, r.EnergyPJ)
	}
	if r.Breakdown["MAC"] <= 0 || r.Breakdown["DRAM"] <= 0 || r.Breakdown["L1"] <= 0 {
		t.Errorf("missing components: %v", r.Breakdown)
	}
}

func TestEvaluateInvalidMapping(t *testing.T) {
	m := algorithm4(t, 4, 4, 14, 3, 2, 2, 7, 8) // L1 too small
	r := Evaluate(m)
	if r.Valid || r.Invalid == nil {
		t.Fatal("overflowing mapping must be invalid")
	}
	if !math.IsInf(r.EDP, 1) {
		t.Error("invalid mapping should have +Inf EDP")
	}
}

// TestReuseReducesEnergy: with reuse-friendly tiling, total energy must be
// well below the naive all-at-DRAM streaming mapping.
func TestReuseReducesEnergy(t *testing.T) {
	const K, C, P, R = 8, 8, 56, 3
	w := conv1D(t, K, C, P, R)
	a := arch.Tiny(512)

	naive := mapping.New(w, a)
	naive.Levels[0].Temporal = map[tensor.Dim]int{}
	naive.Levels[1].Temporal = map[tensor.Dim]int{"K": K, "C": C, "P": P, "R": R}
	rNaive := Evaluate(naive)
	if !rNaive.Valid {
		t.Fatalf("naive streaming should be valid: %v", rNaive.Invalid)
	}

	tiled := mapping.New(w, a)
	tiled.Levels[0].Temporal = map[tensor.Dim]int{"K": 4, "C": 4, "P": 7, "R": R}
	tiled.Levels[1].Temporal = map[tensor.Dim]int{"K": 2, "C": 2, "P": 8}
	tiled.Levels[1].Order = []tensor.Dim{"C", "K", "P"}
	rTiled := Evaluate(tiled)
	if !rTiled.Valid {
		t.Fatalf("tiled mapping should be valid: %v", rTiled.Invalid)
	}
	if rTiled.EnergyPJ >= rNaive.EnergyPJ/2 {
		t.Errorf("tiling should cut energy at least 2x: naive %.0f, tiled %.0f",
			rNaive.EnergyPJ, rTiled.EnergyPJ)
	}
}

func TestSpatialUnrollingCutsLatency(t *testing.T) {
	const K, C, P, R = 8, 4, 28, 3
	w := conv1D(t, K, C, P, R)
	a := arch.TinySpatial(4096, 1<<20, 4)

	serial := mapping.New(w, a)
	serial.Levels[0].Temporal = map[tensor.Dim]int{"P": 7, "K": 2, "C": 2, "R": R}
	serial.Levels[2].Temporal = map[tensor.Dim]int{"P": 4, "K": 4, "C": 2}
	rSerial := Evaluate(serial)

	par := serial.Clone()
	par.Levels[1].Spatial = map[tensor.Dim]int{"K": 2, "P": 2}
	par.Levels[2].Temporal = map[tensor.Dim]int{"P": 2, "K": 2, "C": 2}
	rPar := Evaluate(par)

	if !rSerial.Valid || !rPar.Valid {
		t.Fatalf("both mappings should be valid: %v %v", rSerial.Invalid, rPar.Invalid)
	}
	if rPar.Cycles >= rSerial.Cycles {
		t.Errorf("4-way unrolling should cut latency: serial %.0f, parallel %.0f cycles",
			rSerial.Cycles, rPar.Cycles)
	}
}

// TestBypass: on Simba, weights must have no traffic through L2.
func TestBypassWeightsSkipL2(t *testing.T) {
	w := conv1D(t, 8, 8, 16, 3)
	a := arch.Simba()
	m := mapping.New(w, a)
	m.Levels[1].Temporal = map[tensor.Dim]int{"P": 2, "R": 3}
	m.Levels[1].Spatial = map[tensor.Dim]int{"K": 8, "C": 8}
	m.Levels[0].Temporal = map[tensor.Dim]int{"P": 1}
	m.Levels[2].Spatial = map[tensor.Dim]int{"P": 2}
	m.Levels[3].Temporal = map[tensor.Dim]int{"P": 4, "K": 1, "C": 1}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	r := Evaluate(m)
	for key := range r.Accesses {
		if strings.Contains(key, "L2/L2/weight") {
			t.Errorf("weight traffic found at L2: %s", key)
		}
	}
	tn := w.Tensor(arch.Weight)
	flows := Default.Flows(m, tn)
	for _, f := range flows {
		if f.Child == 1 && f.Parent != 3 {
			t.Errorf("weight parent above PEBuf should be DRAM (3), got %d", f.Parent)
		}
	}
}

func TestPassCountTransparentBound1Loops(t *testing.T) {
	w := conv1D(t, 4, 4, 14, 3)
	ofmap := w.Tensor(arch.Ofmap)
	// R (bound 1) and C (non-indexing) innermost keep ofmap reused even
	// with the bound-1 loop interleaved.
	loops := []loop{
		{d: "R", bound: 1}, {d: "C", bound: 4}, {d: "R", bound: 1}, {d: "K", bound: 2}, {d: "P", bound: 2},
	}
	passes, breaker := passCount(ofmap, loops)
	if passes != 4 {
		t.Errorf("passes = %d, want 4 (C skipped, bound-1 loops transparent)", passes)
	}
	if breaker == nil || breaker.d != "K" {
		t.Errorf("breaker = %v, want K", breaker)
	}
}

func TestPassCountAllNonIndexing(t *testing.T) {
	w := conv1D(t, 4, 4, 14, 3)
	ofmap := w.Tensor(arch.Ofmap)
	loops := []loop{{d: "C", bound: 4}, {d: "R", bound: 3}}
	passes, breaker := passCount(ofmap, loops)
	if passes != 1 || breaker != nil {
		t.Errorf("fully reused: passes=%d breaker=%v", passes, breaker)
	}
}

// TestOrderingPrinciple3Property: reordering the loops *above* the innermost
// reusing loop does not change any tensor's access counts (Ordering
// Principle 3 — the paper's justification for optimizing only the innermost
// reuse chain).
func TestOrderingPrinciple3Property(t *testing.T) {
	f := func(kl1Sel, cl1Sel uint8) bool {
		kl1 := []int{1, 2, 4}[kl1Sel%3]
		// Keep C_L2 >= 2 so C stays the (non-transparent) innermost loop.
		cl1 := []int{1, 2}[cl1Sel%2]
		m1 := algorithm4(t, 4, 4, 14, 3, kl1, cl1, 7, 1<<20)
		m1.Levels[1].Order = []tensor.Dim{"C", "K", "P"}
		m2 := algorithm4(t, 4, 4, 14, 3, kl1, cl1, 7, 1<<20)
		m2.Levels[1].Order = []tensor.Dim{"C", "P", "K"} // swap loops above C
		r1, r2 := Evaluate(m1), Evaluate(m2)
		return math.Abs(r1.EnergyPJ-r2.EnergyPJ) < 1e-9*r1.EnergyPJ
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBreakdownString(t *testing.T) {
	m := algorithm4(t, 4, 4, 14, 3, 2, 2, 7, 4096)
	r := Evaluate(m)
	s := r.BreakdownString()
	if !strings.Contains(s, "MAC") || !strings.Contains(s, "DRAM") {
		t.Errorf("breakdown missing components:\n%s", s)
	}
}

func TestTotalAccesses(t *testing.T) {
	m := algorithm4(t, 4, 4, 14, 3, 2, 2, 7, 4096)
	r := Evaluate(m)
	if r.TotalAccesses("DRAM") <= 0 {
		t.Error("expected DRAM accesses")
	}
	if r.TotalAccesses("nonexistent") != 0 {
		t.Error("unknown component should have 0 accesses")
	}
}

// TestLatencyBandwidthBound: when DRAM bandwidth is the bottleneck, cycles
// must track transfer time, not compute time (the double-buffering max).
func TestLatencyBandwidthBound(t *testing.T) {
	const K, C, P, R = 4, 4, 14, 3
	// A starved DRAM port (0.1 words/cycle) makes the mapping
	// transfer-bound: DRAM moves ~300 words -> ~3000 cycles > 672 MACs.
	m := algorithm4(t, K, C, P, R, 2, 2, 7, 1<<20)
	m.Arch.Levels[1].Buffers[0].ReadBW = 0.1
	m.Arch.Levels[1].Buffers[0].WriteBW = 0.1
	slow := Evaluate(m)

	// Same mapping at the default bandwidth is compute-bound.
	m2 := algorithm4(t, K, C, P, R, 2, 2, 7, 1<<20)
	fast := Evaluate(m2)

	if slow.Cycles <= fast.Cycles {
		t.Errorf("higher DRAM bandwidth should cut cycles when transfer-bound: %f vs %f",
			slow.Cycles, fast.Cycles)
	}
	// Energy is bandwidth-independent.
	if slow.EnergyPJ != fast.EnergyPJ {
		t.Errorf("bandwidth must not change energy: %f vs %f", slow.EnergyPJ, fast.EnergyPJ)
	}
	// With unbounded bandwidth, compute time is the floor.
	m3 := algorithm4(t, K, C, P, R, 2, 2, 7, 1<<20)
	m3.Arch.Levels[1].Buffers[0].ReadBW = 0
	m3.Arch.Levels[1].Buffers[0].WriteBW = 0
	unbounded := Evaluate(m3)
	if unbounded.Cycles != float64(unbounded.MACs) {
		t.Errorf("unbounded-BW single-MAC cycles = %f, want %d", unbounded.Cycles, unbounded.MACs)
	}
}

func TestAccessTable(t *testing.T) {
	m := algorithm4(t, 4, 4, 14, 3, 2, 2, 7, 4096)
	rep := Evaluate(m)
	s := rep.AccessTable()
	for _, want := range []string{"DRAM/DRAM/ifmap", "L1/L1/ofmap", "reads", "writes"} {
		if !strings.Contains(s, want) {
			t.Errorf("access table missing %q:\n%s", want, s)
		}
	}
}
