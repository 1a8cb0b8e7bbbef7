package unroll

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sunstone/internal/factor"
	"sunstone/internal/tensor"
)

func get(c Candidate, d tensor.Dim) int {
	if f, ok := c[d]; ok {
		return f
	}
	return 1
}

func TestPrincipleExcludesNonIndexingDims(t *testing.T) {
	// Running example: OP = ofmap reused temporally, so only its indexing
	// dims P and K may be unrolled; C must never appear.
	cands, _ := Enumerate(Space{
		Allowed:               []tensor.Dim{"K", "P"},
		ReductionDims:         []tensor.Dim{"C", "R"},
		Quota:                 map[tensor.Dim]int{"K": 8, "P": 8, "C": 8, "R": 3},
		Fanout:                4,
		MinUtilization:        0.5,
		AllowSpatialReduction: true,
	})
	if len(cands) == 0 {
		t.Fatal("expected unroll candidates")
	}
	for _, c := range cands {
		for d, f := range c {
			if f > 1 && d != "K" && d != "P" {
				t.Errorf("candidate %s unrolls disallowed dim %s", c.Key(), d)
			}
		}
	}
}

func TestFullFanoutUtilization(t *testing.T) {
	cands, _ := Enumerate(Space{
		Allowed:        []tensor.Dim{"K", "P"},
		Quota:          map[tensor.Dim]int{"K": 8, "P": 8},
		Fanout:         16,
		MinUtilization: 0.99,
	})
	if len(cands) == 0 {
		t.Fatal("expected candidates")
	}
	for _, c := range cands {
		if get(c, "K")*get(c, "P") != 16 {
			t.Errorf("candidate %s does not fill the 16-way fanout", c.Key())
		}
	}
}

func TestReductionDimsExcludedWithoutHardwareSupport(t *testing.T) {
	cands, _ := Enumerate(Space{
		Allowed:               []tensor.Dim{"C", "K"},
		ReductionDims:         []tensor.Dim{"C"},
		Quota:                 map[tensor.Dim]int{"C": 8, "K": 8},
		Fanout:                4,
		AllowSpatialReduction: false,
	})
	for _, c := range cands {
		if get(c, "C") > 1 {
			t.Errorf("candidate %s spatially reduces without hardware support", c.Key())
		}
	}
}

func TestFanout1TrivialCandidate(t *testing.T) {
	cands, stats := Enumerate(Space{
		Quota:  map[tensor.Dim]int{"K": 8},
		Fanout: 1,
	})
	if len(cands) != 1 || len(cands[0]) != 0 {
		t.Errorf("fanout 1 should give only the empty unrolling, got %v", cands)
	}
	if stats.Survivors != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestFallbackWhenNothingMeetsUtilization(t *testing.T) {
	// Quotas too small to fill the fanout: best effort must be returned.
	cands, _ := Enumerate(Space{
		Allowed:        []tensor.Dim{"K"},
		Quota:          map[tensor.Dim]int{"K": 2},
		Fanout:         64,
		MinUtilization: 0.8,
	})
	if len(cands) != 1 || get(cands[0], "K") != 2 {
		t.Errorf("fallback should return the best (K=2) unrolling, got %v", cands)
	}
}

func TestMaximality(t *testing.T) {
	cands, _ := Enumerate(Space{
		Allowed:        []tensor.Dim{"K", "P"},
		Quota:          map[tensor.Dim]int{"K": 4, "P": 4},
		Fanout:         8,
		MinUtilization: 0,
	})
	// Every returned candidate must be maximal: K*P == 8 (e.g. 2x4, 4x2)
	// or blocked by quota.
	for _, c := range cands {
		p := get(c, "K") * get(c, "P")
		if p < 8 && get(c, "K") < 4 && get(c, "P") < 4 {
			t.Errorf("candidate %s is not maximal", c.Key())
		}
	}
}

func TestEmptyAllowedUsesAllDims(t *testing.T) {
	cands, _ := Enumerate(Space{
		Quota:          map[tensor.Dim]int{"A": 4, "B": 4},
		Fanout:         4,
		MinUtilization: 0.9,
	})
	foundA, foundB := false, false
	for _, c := range cands {
		if get(c, "A") > 1 {
			foundA = true
		}
		if get(c, "B") > 1 {
			foundB = true
		}
	}
	if !foundA || !foundB {
		t.Errorf("expected candidates over both dims, got %v", cands)
	}
}

func TestQuotaCapsFactors(t *testing.T) {
	cands, _ := Enumerate(Space{
		Allowed: []tensor.Dim{"K"},
		Quota:   map[tensor.Dim]int{"K": 3},
		Fanout:  64,
	})
	for _, c := range cands {
		if get(c, "K") > 3 {
			t.Errorf("factor exceeds quota: %s", c.Key())
		}
	}
}

// referenceEnumerate is the map-and-string enumeration this package shipped
// before it moved onto factor vectors, kept as the oracle for
// TestWalkMatchesReference: same candidates, same order, same Stats.
func referenceEnumerate(s Space) ([]Candidate, Stats) {
	var stats Stats
	if s.Fanout <= 1 {
		return []Candidate{{}}, Stats{NodesVisited: 1, Survivors: 1}
	}
	var dims []tensor.Dim
	if len(s.Allowed) == 0 {
		for d := range s.Quota {
			dims = append(dims, d)
		}
	} else {
		dims = append(dims, s.Allowed...)
	}
	var usable []tensor.Dim
	for _, d := range dims {
		if slices.Contains(s.ReductionDims, d) && !s.AllowSpatialReduction {
			continue
		}
		if s.Quota[d] > 1 {
			usable = append(usable, d)
		}
	}
	sort.Slice(usable, func(i, j int) bool { return usable[i] < usable[j] })
	ladders := map[tensor.Dim][]int{}
	for _, d := range usable {
		ladders[d] = factor.Ladder(min(s.Quota[d], s.Fanout), 2)
	}
	productOf := func(c Candidate) int {
		p := 1
		for _, f := range c {
			p *= f
		}
		return p
	}
	var all []Candidate
	cur := Candidate{}
	var rec func(i, product int)
	rec = func(i, product int) {
		stats.NodesVisited++
		if i == len(usable) {
			c := Candidate{}
			for d, f := range cur {
				c[d] = f
			}
			all = append(all, c)
			return
		}
		d := usable[i]
		for _, f := range ladders[d] {
			if product*f > s.Fanout {
				break
			}
			if f > 1 {
				cur[d] = f
			} else {
				delete(cur, d)
			}
			rec(i+1, product*f)
		}
		delete(cur, d)
	}
	rec(0, 1)
	var maximal []Candidate
	for _, c := range all {
		p, dominated := productOf(c), false
		for _, d := range usable {
			for _, v := range ladders[d] {
				if v > get(c, d) {
					dominated = dominated || p/get(c, d)*v <= s.Fanout
					break
				}
			}
		}
		if !dominated {
			maximal = append(maximal, c)
		}
	}
	best := 0.0
	for _, c := range maximal {
		best = max(best, float64(productOf(c))/float64(s.Fanout))
	}
	thresh := min(s.MinUtilization, best)
	var out []Candidate
	for _, c := range maximal {
		if float64(productOf(c))/float64(s.Fanout) >= thresh {
			out = append(out, c)
		}
	}
	if s.MaxCandidates > 0 && len(out) > s.MaxCandidates {
		sort.Slice(out, func(i, j int) bool {
			if pi, pj := productOf(out[i]), productOf(out[j]); pi != pj {
				return pi > pj
			}
			return out[i].Key() < out[j].Key()
		})
		out = out[:s.MaxCandidates]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	stats.Survivors = len(out)
	return out, stats
}

// TestWalkMatchesReference drives both enumerations over random spaces —
// prefix-related dimension names, reduction dimensions with and without
// hardware support, fanouts that are and are not reachable, utilization
// thresholds nothing meets, candidate caps — and requires identical output.
func TestWalkMatchesReference(t *testing.T) {
	names := []tensor.Dim{"P", "P1", "PQ", "K", "C", "R2", "R"}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		s := Space{
			Quota:                 map[tensor.Dim]int{},
			Fanout:                []int{1, 4, 12, 16, 64, 168, 1024}[rng.Intn(7)],
			MinUtilization:        []float64{0, 0.5, 0.9, 1}[rng.Intn(4)],
			AllowSpatialReduction: rng.Intn(2) == 0,
		}
		for _, i := range rng.Perm(len(names))[:1+rng.Intn(5)] {
			s.Quota[names[i]] = 1 + rng.Intn(96)
			if rng.Intn(3) > 0 {
				s.Allowed = append(s.Allowed, names[i])
			}
			if rng.Intn(3) == 0 {
				s.ReductionDims = append(s.ReductionDims, names[i])
			}
		}
		if rng.Intn(2) == 0 {
			s.MaxCandidates = 1 + rng.Intn(6)
		}
		got, gotStats := Enumerate(s)
		want, wantStats := referenceEnumerate(s)
		if gotStats != wantStats {
			t.Fatalf("trial %d: stats %+v, reference %+v (space %+v)", trial, gotStats, wantStats, s)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d candidates, reference %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Key() != want[i].Key() {
				t.Fatalf("trial %d candidate %d: %s, reference %s", trial, i, got[i].Key(), want[i].Key())
			}
		}
	}
}

// TestWalkAllocsIndependentOfNodes: a reused Walker allocates nothing once
// its buffers have grown, however many nodes the enumeration visits.
func TestWalkAllocsIndependentOfNodes(t *testing.T) {
	var wk Walker
	ladders := map[int][]int{}
	for _, fanout := range []int{4, 1024} {
		v := Vec{
			Dims:      []tensor.Dim{"C", "K", "P", "Q"},
			Quota:     []int{720, 720, 720, 720},
			Reduction: []bool{true, false, false, false},
			Ladder: func(n, minDiv int) []int { // memoized, as the search's compiled ladder cache does
				if ladders[n] == nil {
					ladders[n] = factor.Ladder(n, minDiv)
				}
				return ladders[n]
			},
			Fanout:                fanout,
			MinUtilization:        0.5,
			AllowSpatialReduction: true,
		}
		_, stats := wk.Walk(v)
		if allocs := testing.AllocsPerRun(10, func() { wk.Walk(v) }); allocs != 0 {
			t.Errorf("fanout %d (%d nodes): %.0f allocs per walk on a warm Walker, want 0", fanout, stats.NodesVisited, allocs)
		}
	}
}
