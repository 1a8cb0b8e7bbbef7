package cost

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/factor"
	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
	"sunstone/internal/workloads"
)

// randomMappingOn samples one unconstrained mapping of w onto a: prime
// factors scattered uniformly over every temporal and spatial slot, random
// (sometimes partial) loop orders, and an occasional dropped factor. The
// samples deliberately include invalid mappings — capacity and fanout
// overflows, uncovered dimensions, reduction dims unrolled across
// non-reducing levels — because the evaluator must agree with the reference
// model on those too.
func randomMappingOn(w *tensor.Workload, a *arch.Arch, rng *rand.Rand) *mapping.Mapping {
	m := mapping.New(w, a)
	type slot struct {
		level   int
		spatial bool
	}
	var slots []slot
	for l := range a.Levels {
		slots = append(slots, slot{l, false})
		if a.Levels[l].Fanout > 1 {
			slots = append(slots, slot{l, true})
		}
	}
	for _, d := range w.Order {
		for _, p := range factor.Primes(w.Dims[d]) {
			if rng.Intn(20) == 0 {
				continue // dropped factor: coverage-invalid sample
			}
			s := slots[rng.Intn(len(slots))]
			if s.spatial {
				m.Levels[s.level].Spatial[d] = m.Levels[s.level].S(d) * p
			} else {
				m.Levels[s.level].Temporal[d] = m.Levels[s.level].T(d) * p
			}
		}
	}
	for l := range m.Levels {
		order := append([]tensor.Dim(nil), w.Order...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if rng.Intn(3) == 0 {
			order = order[:rng.Intn(len(order)+1)] // partial declared order
		}
		m.Levels[l].Order = order
	}
	return m
}

// deface turns a sampled mapping into one the search never builds but a file
// or a caller can: repeated or undeclared names in a loop order, a factor of
// 0, a factor above 1 on a dimension the workload does not have.
func deface(m *mapping.Mapping, rng *rand.Rand) {
	lm := &m.Levels[rng.Intn(len(m.Levels))]
	d := m.Workload.Order[rng.Intn(len(m.Workload.Order))]
	switch rng.Intn(5) {
	case 0:
		lm.Order = append(append([]tensor.Dim{d}, lm.Order...), d)
	case 1:
		lm.Order = append([]tensor.Dim{"Z"}, lm.Order...)
	case 2:
		lm.Order = append(lm.Order, "Z", d, "Z")
	case 3:
		lm.Temporal[d] = 0
	case 4:
		lm.Spatial["Z"] = 2
	}
}

// rowsOf puts m into the form the evaluator's row entry points take: raw
// factors by (level, dimension index), 1 where the map has no entry, and the
// declared dimensions of each loop order by index, repeats kept. ok is false
// when m has no row form — a factor other than 1 on an undeclared dimension.
func rowsOf(s *Session, m *mapping.Mapping) (t, sp []int, order [][]int32, ok bool) {
	nd := len(s.dims)
	t, sp = make([]int, s.nLevels*nd), make([]int, s.nLevels*nd)
	for i := range t {
		t[i], sp[i] = 1, 1
	}
	order = make([][]int32, s.nLevels)
	for l := range m.Levels {
		lm := &m.Levels[l]
		for _, fm := range []struct {
			factors map[tensor.Dim]int
			row     []int
		}{{lm.Temporal, t[l*nd:]}, {lm.Spatial, sp[l*nd:]}} {
			for d, n := range fm.factors {
				if i, declared := s.dimIdx[d]; declared {
					fm.row[i] = n
				} else if n != 1 {
					return nil, nil, nil, false
				}
			}
		}
		for _, d := range lm.Order {
			if i, declared := s.dimIdx[d]; declared {
				order[l] = append(order[l], int32(i))
			}
		}
	}
	return t, sp, order, true
}

// requireSameScalars asserts bit-for-bit agreement between a Report and one
// scalar evaluation.
func requireSameScalars(t *testing.T, label string, rep Report, edp, en, cy float64, valid bool) {
	t.Helper()
	if valid != rep.Valid ||
		math.Float64bits(edp) != math.Float64bits(rep.EDP) ||
		math.Float64bits(en) != math.Float64bits(rep.EnergyPJ) ||
		math.Float64bits(cy) != math.Float64bits(rep.Cycles) {
		t.Fatalf("%s: (edp=%v en=%v cy=%v valid=%v) != Report (edp=%v en=%v cy=%v valid=%v)",
			label, edp, en, cy, valid, rep.EDP, rep.EnergyPJ, rep.Cycles, rep.Valid)
	}
}

// checkEquivalence holds one mapping's evaluation to the reference model
// (reference_test.go) in everything a Report and Flows expose — validity and
// its message, MACs, the bits of energy, cycles and EDP, the Breakdown and
// Accesses key sets and values, every Flow field — and requires the
// memoized path (twice: miss then hit) and the uncached path to return the
// Report's scalars. The row entry points are held to the same numbers and the
// same Key; which front takes the memo miss alternates with the key, so both
// fill the cache. ev must be an Evaluator of model.
func checkEquivalence(t *testing.T, model Model, ev *Evaluator, m *mapping.Mapping) {
	t.Helper()
	ref := model.referenceEvaluate(m)
	rep := ev.Report(m)
	requireSameScalars(t, "reference", rep, ref.EDP, ref.EnergyPJ, ref.Cycles, ref.Valid)
	if rep.MACs != ref.MACs {
		t.Fatalf("MACs %d, reference %d", rep.MACs, ref.MACs)
	}
	if (m.Validate() == nil) != rep.Valid || fmt.Sprint(rep.Invalid) != fmt.Sprint(ref.Invalid) {
		t.Fatalf("valid=%v with Invalid=%v; Validate says %v, reference %v", rep.Valid, rep.Invalid, m.Validate(), ref.Invalid)
	}
	if len(rep.Breakdown) != len(ref.Breakdown) {
		t.Fatalf("Breakdown keys %v, reference %v", rep.Breakdown, ref.Breakdown)
	}
	for k, want := range ref.Breakdown {
		if got, ok := rep.Breakdown[k]; !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Breakdown[%s] = %v (present %v), reference %v", k, got, ok, want)
		}
	}
	if len(rep.Accesses) != len(ref.Accesses) {
		t.Fatalf("Accesses keys %v, reference %v", rep.Accesses, ref.Accesses)
	}
	for k, want := range ref.Accesses {
		if got, ok := rep.Accesses[k]; !ok || got != want {
			t.Fatalf("Accesses[%s] = %+v (present %v), reference %+v", k, got, ok, want)
		}
	}
	if _, keyed := ev.Key(m); keyed {
		// Flows needs only representable factors, not a legal mapping.
		for _, tn := range m.Workload.Tensors {
			got, want := model.Flows(m, tn), model.referenceFlows(m, tn)
			if len(got) != len(want) {
				t.Fatalf("%s: %d flows, reference %d", tn.Name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s flow %d = %+v, reference %+v", tn.Name, i, got[i], want[i])
				}
			}
		}
	}
	key, keyed := ev.Key(m)
	rowT, rowS, rowOrder, hasRows := rowsOf(ev.s, m)
	if hasRows {
		if k, ok := ev.KeyRows(rowT, rowS, rowOrder); ok != keyed || k != key {
			t.Fatalf("KeyRows = %v (ok=%v), Key = %v (ok=%v)", k, ok, key, keyed)
		}
	} else if keyed {
		t.Fatalf("Key accepted a mapping with a factor on an undeclared dimension")
	}
	for pass := 0; pass < 4; pass++ {
		if byRows := (uint64(pass)+key.Lo)%2 == 0; byRows && hasRows {
			edp, en, cy, valid := ev.EvaluateRows(rowT, rowS, rowOrder)
			requireSameScalars(t, "EvaluateRows", rep, edp, en, cy, valid)
		} else {
			edp, en, cy, valid := ev.EvaluateEDP(m)
			requireSameScalars(t, "EvaluateEDP", rep, edp, en, cy, valid)
		}
	}
	edp, en, cy, valid := ev.EvaluateEDPUncached(m)
	requireSameScalars(t, "EvaluateEDPUncached", rep, edp, en, cy, valid)
}

// equivalenceCase is one (workload, arch) pair of the property tests.
type equivalenceCase struct {
	name string
	w    *tensor.Workload
	a    *arch.Arch
}

func equivalenceCases() []equivalenceCase {
	conv1d := tensor.MustNew("conv1d",
		map[tensor.Dim]int{"K": 16, "C": 8, "P": 24, "R": 3},
		&tensor.Tensor{Name: arch.Ifmap, Axes: []tensor.Axis{tensor.Win("P", 1, "R", 1), tensor.A("C")}},
		&tensor.Tensor{Name: arch.Weight, Axes: []tensor.Axis{tensor.A("K"), tensor.A("C"), tensor.A("R")}},
		&tensor.Tensor{Name: arch.Ofmap, Axes: []tensor.Axis{tensor.A("K"), tensor.A("P")}, Output: true},
	)
	conv2d := workloads.ResNet18[1].Inference(4)
	return []equivalenceCase{
		{"conv1d/tinyspatial", conv1d, arch.TinySpatial(4096, 1<<18, 8)},
		{"conv2d/conventional", conv2d, arch.Conventional()},
		{"conv2d/simba", conv2d, arch.Simba()},
		{"conv2d/diannao", conv2d, arch.DianNao()},
		{"mttkrp/conventional", workloads.MTTKRPOn(workloads.Nell2), arch.Conventional()},
	}
}

// TestEvaluateEDPEquivalenceProperty: the evaluator reproduces the reference
// model bit-for-bit (see checkEquivalence) on randomized valid AND invalid
// mappings across the Conventional, Simba, and DianNao presets (plus the tiny
// fixture the other property tests use).
func TestEvaluateEDPEquivalenceProperty(t *testing.T) {
	const samples = 120
	for _, tc := range equivalenceCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			ev := Default.NewSession(tc.w, tc.a).NewEvaluator()
			valid, invalid := 0, 0
			for i := 0; i < samples; i++ {
				m := randomMappingOn(tc.w, tc.a, rng)
				if m.Validate() == nil {
					valid++
				} else {
					invalid++
				}
				checkEquivalence(t, Default, ev, m)
			}
			if invalid == 0 {
				t.Error("sampler produced no invalid mappings; the invalid branch went untested")
			}
			t.Logf("%d valid, %d invalid samples", valid, invalid)
		})
	}
}

// TestEvaluateEDPSlidingReuseOff: equivalence holds for non-default model
// configurations too.
func TestEvaluateEDPSlidingReuseOff(t *testing.T) {
	model := Model{NoSlidingReuse: true}
	tc := equivalenceCases()[0]
	ev := model.NewSession(tc.w, tc.a).NewEvaluator()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		checkEquivalence(t, model, ev, randomMappingOn(tc.w, tc.a, rng))
	}
}

// TestReportMatchesReference crosses what the tests above sample one axis at
// a time: random valid and invalid mappings on every machine — the presets
// plus the dual-spatial one of core's TestFlowGolden, the only machine with a
// fanout at both level 0 and level 1 — under all four models of sliding
// reuse on/off and the output tensor pinned at the outermost on-chip level
// or not, a quarter of them defaced (see deface), each held to the reference
// model by checkEquivalence — through the Mapping front and through the row
// entry points.
func TestReportMatchesReference(t *testing.T) {
	dual := arch.TinySpatial(64, 4096, 8)
	dual.Name = "dual-spatial"
	dual.Levels[0].Fanout = 4
	cases := equivalenceCases()
	cases = append(cases, equivalenceCase{"conv1d/dualspatial", cases[0].w, dual})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out string
			for _, tn := range tc.w.Tensors {
				if tn.Output {
					out = tn.Name
				}
			}
			pin := &Residency{Pins: []Pin{{Tensor: out, Level: len(tc.a.Levels) - 2}}}
			for _, model := range []Model{
				{}, {NoSlidingReuse: true}, {Resident: pin}, {NoSlidingReuse: true, Resident: pin},
			} {
				ev := model.NewSession(tc.w, tc.a).NewEvaluator()
				rng := rand.New(rand.NewSource(23))
				// Valid samples are ~1% of the draws on the tighter machines:
				// draw until both kinds are well represented.
				const wantValid, wantInvalid = 15, 45
				valid, invalid := 0, 0
				for i := 0; i < 8000 && (valid < wantValid || invalid < wantInvalid); i++ {
					m := randomMappingOn(tc.w, tc.a, rng)
					if i%4 == 0 {
						deface(m, rng)
					}
					count, want := &invalid, wantInvalid
					if m.Validate() == nil {
						count, want = &valid, wantValid
					}
					if *count == want {
						continue // enough of this kind already
					}
					*count++
					checkEquivalence(t, model, ev, m)
				}
				if valid < wantValid || invalid < wantInvalid {
					t.Errorf("sampled %d valid and %d invalid mappings, want %d and %d", valid, invalid, wantValid, wantInvalid)
				}
			}
		})
	}
}

// TestEvaluateEDPEdgeCases pins the evaluator's handling of factors the T/S
// view cannot represent: raw factors < 1 and factors > 1 on a dimension
// outside the workload are invalid (exactly when mapping.Validate says so)
// and have no Key; explicit 1-entries, on known or unknown dimensions, are
// invisible.
func TestEvaluateEDPEdgeCases(t *testing.T) {
	tc := equivalenceCases()[0]
	ev := Default.NewSession(tc.w, tc.a).NewEvaluator()
	rng := rand.New(rand.NewSource(3))
	base := func() *mapping.Mapping {
		for {
			m := randomMappingOn(tc.w, tc.a, rng)
			if m.Validate() == nil {
				return m
			}
		}
	}
	requireRejected := func(label string, m *mapping.Mapping) {
		t.Helper()
		checkEquivalence(t, Default, ev, m)
		if rep := ev.Report(m); rep.Valid || rep.Invalid == nil {
			t.Errorf("%s: Report valid=%v, Invalid=%v; want rejected with a reason", label, rep.Valid, rep.Invalid)
		}
		if _, ok := ev.Key(m); ok {
			t.Errorf("%s: Key accepted the mapping", label)
		}
		if flows := Default.Flows(m, tc.w.Tensors[0]); flows != nil {
			t.Errorf("%s: Flows returned %d flows", label, len(flows))
		}
	}

	zero := base()
	zero.Levels[0].Temporal["K"] = 0
	requireRejected("raw zero factor", zero)

	neg := base()
	neg.Levels[1].Spatial["C"] = -2
	requireRejected("negative factor", neg)

	stray := base()
	stray.Levels[1].Spatial["Z"] = 2
	requireRejected("stray spatial factor", stray)

	strayT := base()
	strayT.Levels[2].Temporal["Z"] = 5
	requireRejected("stray temporal factor", strayT)

	ones := base()
	want, _ := ev.Key(ones)
	if ones.Levels[0].T("R") == 1 {
		ones.Levels[0].Temporal["R"] = 1
	}
	if ones.Levels[1].S("K") == 1 {
		ones.Levels[1].Spatial["K"] = 1
	}
	ones.Levels[1].Spatial["Z"] = 1
	ones.Levels[2].Temporal["Z"] = 1
	checkEquivalence(t, Default, ev, ones)
	if got, ok := ev.Key(ones); !ok || got != want {
		t.Errorf("explicit 1-factors changed the Key: %v (ok=%v), want %v", got, ok, want)
	}
	if rep := ev.Report(ones); !rep.Valid {
		t.Errorf("explicit 1-factors made the mapping invalid: %v", rep.Invalid)
	}
}

// TestMappingKeyCanonicalization: equal-content mappings share a Key, the
// Key ignores differences the model cannot observe (bound-1 loop positions,
// explicit 1-factors), and real tiling changes alter it.
func TestMappingKeyCanonicalization(t *testing.T) {
	tc := equivalenceCases()[0]
	ev := Default.NewSession(tc.w, tc.a).NewEvaluator()
	rng := rand.New(rand.NewSource(5))
	var m *mapping.Mapping
	for {
		m = randomMappingOn(tc.w, tc.a, rng)
		if m.Validate() == nil {
			break
		}
	}
	k1, ok := ev.Key(m)
	if !ok {
		t.Fatal("Key rejected a valid mapping")
	}
	if k2, _ := ev.Key(m.Clone()); k2 != k1 {
		t.Error("clone changed the Key")
	}

	ones := m.Clone()
	for _, lm := range ones.Levels { // explicit 1-entries in empty slots: T()/S() view unchanged
		for _, d := range tc.w.Order {
			if lm.T(d) == 1 {
				lm.Temporal[d] = 1
			}
		}
	}
	if k2, _ := ev.Key(ones); k2 != k1 {
		t.Error("explicit 1-factor changed the Key")
	}

	tiled := m.Clone()
	tiled.Levels[len(tiled.Levels)-1].Temporal["K"] = tiled.Levels[len(tiled.Levels)-1].T("K") * 2
	if k2, _ := ev.Key(tiled); k2 == k1 {
		t.Error("tiling change did not change the Key")
	}
}

// TestEvaluateEDPZeroAlloc guards the tentpole's core claim: the fast path
// allocates nothing in steady state, on both the cache-hit path and the raw
// compute path.
func TestEvaluateEDPZeroAlloc(t *testing.T) {
	tc := equivalenceCases()[1] // conv2d on Conventional: a realistic size
	ev := Default.NewSession(tc.w, tc.a).NewEvaluator()
	rng := rand.New(rand.NewSource(9))
	var m *mapping.Mapping
	for {
		m = randomMappingOn(tc.w, tc.a, rng)
		if m.Validate() == nil {
			break
		}
	}
	ev.EvaluateEDP(m) // warm: the first call pays the cache insert
	if allocs := testing.AllocsPerRun(200, func() { ev.EvaluateEDP(m) }); allocs != 0 {
		t.Errorf("cache-hit path allocates %v objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { ev.EvaluateEDPUncached(m) }); allocs != 0 {
		t.Errorf("compute path allocates %v objects/op, want 0", allocs)
	}
}

// TestEvaluatorConcurrentScratchReuse exercises per-worker scratch reuse and
// the shared memoization cache under concurrency (run with -race): workers
// with private Evaluators score an overlapping candidate stream against a
// single Session, and every result must match the serial full model.
func TestEvaluatorConcurrentScratchReuse(t *testing.T) {
	tc := equivalenceCases()[2] // conv2d on Simba: multi-spatial-level
	sess := Default.NewSession(tc.w, tc.a)
	rng := rand.New(rand.NewSource(17))
	const n = 200
	ms := make([]*mapping.Mapping, n)
	want := make([]Report, n)
	for i := range ms {
		ms[i] = randomMappingOn(tc.w, tc.a, rng)
		want[i] = Default.Evaluate(ms[i])
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			ev := sess.NewEvaluator()
			// Offset start: workers overlap on the same mappings, hitting
			// the cache from different goroutines.
			for j := 0; j < n; j++ {
				i := (j + wk*n/workers) % n
				edp, en, cy, valid := ev.EvaluateEDP(ms[i])
				rep := want[i]
				if valid != rep.Valid ||
					math.Float64bits(edp) != math.Float64bits(rep.EDP) ||
					math.Float64bits(en) != math.Float64bits(rep.EnergyPJ) ||
					math.Float64bits(cy) != math.Float64bits(rep.Cycles) {
					select {
					case errs <- "concurrent fast-path result diverged from Evaluate":
					default:
					}
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	hits, misses := sess.CacheStats()
	if hits == 0 || misses == 0 {
		t.Errorf("cache stats hits=%d misses=%d: expected both non-zero under overlapping workers", hits, misses)
	}
}

// seenProbe records the mapping of the last evaluation it was shown.
type seenProbe struct{ m *mapping.Mapping }

func (p *seenProbe) BeforeEvaluate(m *mapping.Mapping) { p.m = m }

// TestEvaluateRowsShowsProbeTheMapping: a model with a Probe is shown, for a
// row evaluation, the Mapping those rows denote — a caller who installed one
// cannot tell which form the search holds its candidates in.
func TestEvaluateRowsShowsProbeTheMapping(t *testing.T) {
	tc := equivalenceCases()[0]
	probe := &seenProbe{}
	ev := Model{Probe: probe}.NewSession(tc.w, tc.a).NewEvaluator()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20; i++ {
		m := randomMappingOn(tc.w, tc.a, rng)
		rowT, rowS, rowOrder, _ := rowsOf(ev.s, m)
		probe.m = nil
		ev.EvaluateRows(rowT, rowS, rowOrder)
		if probe.m == nil || probe.m.String() != m.String() || probe.m.Workload != tc.w || probe.m.Arch != tc.a {
			t.Fatalf("probe saw %v for\n%s", probe.m, m)
		}
	}
}

// TestLegalCapacityMatchesValidate isolates the capacity rule: mappings whose
// every prime sits in some temporal slot cover the problem and use no fanout,
// so only a buffer overflow can make them illegal. On the machines with
// per-datatype and bypassing buffers the evaluator's verdict — Session's
// dense capacity table — equals mapping.Validate's map-based one, and the
// per-level answers of LevelFits say which level overflowed.
func TestLegalCapacityMatchesValidate(t *testing.T) {
	for _, tc := range equivalenceCases()[2:4] { // conv2d on Simba and DianNao
		s := Default.NewSession(tc.w, tc.a)
		ev := s.NewEvaluator()
		rng := rand.New(rand.NewSource(41))
		top := len(tc.a.Levels) - 1
		legal, illegal := 0, 0
		for i := 0; i < 2000; i++ {
			m := mapping.New(tc.w, tc.a)
			down := rng.Intn(6) // this sample's pull toward the small buffers
			for _, d := range tc.w.Order {
				for _, p := range factor.Primes(tc.w.Dims[d]) {
					l := top
					if rng.Intn(6) < down {
						l = rng.Intn(top + 1)
					}
					m.Levels[l].Temporal[d] = m.Levels[l].T(d) * p
				}
			}
			want := m.Validate() == nil
			if !ev.snapshot(m) {
				t.Fatalf("%s: snapshot rejected\n%s", tc.name, m)
			}
			ev.extents()
			if got := ev.legal(); got != want {
				t.Fatalf("%s: legal %v, Validate %v\n%s", tc.name, got, m.Validate(), m)
			}
			fits := true
			for l := 0; l < top; l++ {
				fits = fits && s.LevelFits(l, ev.cum[l*len(s.dims):])
			}
			if fits != want {
				t.Fatalf("%s: LevelFits over all levels %v, Validate %v\n%s", tc.name, fits, m.Validate(), m)
			}
			if want {
				legal++
			} else {
				illegal++
			}
		}
		t.Logf("%s: %d legal, %d overflowing", tc.name, legal, illegal)
		if legal < 20 || illegal < 20 {
			t.Errorf("%s: %d legal and %d overflowing samples — the generator does not straddle capacity", tc.name, legal, illegal)
		}
	}
}
